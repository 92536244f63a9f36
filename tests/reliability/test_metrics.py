"""Baseline-normalised reliability metrics (Section IV-B)."""

import pytest

from repro.reliability.metrics import mttf_relative, normalized_abc


class TestEquations:
    def test_mttf_identity_baseline(self):
        assert mttf_relative(100, 10, 100, 10) == 1.0

    def test_mttf_improves_with_lower_abc(self):
        # Half the ABC at the same runtime: twice the MTTF.
        assert mttf_relative(100, 10, 50, 10) == 2.0

    def test_mttf_accounts_for_runtime(self):
        # Same ABC but faster: AVF rises, MTTF drops (eq. 2-4).
        assert mttf_relative(100, 10, 100, 5) == 0.5

    def test_mttf_infinite_when_variant_abc_zero(self):
        assert mttf_relative(100, 10, 0, 10) == float("inf")

    def test_normalized_abc(self):
        assert normalized_abc(200, 50) == 0.25
        with pytest.raises(ValueError):
            normalized_abc(0, 50)

