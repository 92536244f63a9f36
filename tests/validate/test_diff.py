"""Differential check: a sanitized checkpoint fork equals the cold run."""

from repro.checkpoint import warm_checkpoint
from repro.common.params import BASELINE
from repro.sim import measure, simulate


class TestHarness:
    def test_sanitized_diff(self):
        """Cold and forked cores, both under the invariant sanitizer,
        give bit-identical results."""
        cold = simulate("libquantum", BASELINE, "RAR", instructions=800,
                        warmup=200, validate=True)
        ckpt = warm_checkpoint("libquantum", BASELINE, "RAR", warmup=200,
                               validate=True)
        fork = measure(ckpt.fork("RAR", validate=True), 800,
                       ckpt.workload)
        assert fork.to_dict() == cold.to_dict()
