"""Golden conformance fingerprints: canonical hashing, freeze/check
round-trip, drift detection, the fork leg, and (slow tier) the full
frozen matrix."""

import json
import os

import pytest

from repro import checkpoint
from repro.common.params import BASELINE
from repro.obs.ledger import check_complete, read_ledger
from repro.validate import golden
from repro.validate.golden import (
    GOLDEN_MACHINES,
    GOLDEN_POLICIES,
    GOLDEN_SCHEMA,
    canonical_fingerprint,
    check_golden,
    golden_points,
    regen_golden,
)
from tests.validate.fork_fault import leave_predictor_cold

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "golden")


class TestCanonicalFingerprint:
    def test_key_order_independent(self):
        a = canonical_fingerprint({"x": 1, "y": [1, 2], "z": {"a": 0.5}})
        b = canonical_fingerprint({"z": {"a": 0.5}, "y": [1, 2], "x": 1})
        assert a == b
        assert len(a) == 64

    def test_value_sensitive(self):
        base = {"result": {"ipc": 0.5, "cycles": 100}, "digest": "aa"}
        drifted = {"result": {"ipc": 0.5, "cycles": 101}, "digest": "aa"}
        assert canonical_fingerprint(base) != canonical_fingerprint(drifted)

    def test_list_order_sensitive(self):
        assert (canonical_fingerprint([1, 2])
                != canonical_fingerprint([2, 1]))


class TestFrozenFiles:
    """The checked-in fingerprints are well-formed without re-measuring."""

    def test_all_machines_frozen(self):
        for machine in GOLDEN_MACHINES:
            path = os.path.join(GOLDEN_DIR, f"{machine}.json")
            assert os.path.exists(path), f"missing {path}"

    @pytest.mark.parametrize("machine", sorted(GOLDEN_MACHINES))
    def test_file_shape(self, machine):
        with open(os.path.join(GOLDEN_DIR, f"{machine}.json")) as f:
            payload = json.load(f)
        assert payload["schema"] == GOLDEN_SCHEMA
        assert payload["machine"] == machine
        assert payload["workload"] == golden.GOLDEN_WORKLOAD
        assert set(payload["points"]) == set(GOLDEN_POLICIES)
        for entry in payload["points"].values():
            assert len(entry["fingerprint"]) == 64
            assert len(entry["commit_digest"]) == 64
            assert entry["cycles"] > 0

    def test_point_grid(self):
        assert len(golden_points()) == 25  # the 25-point baseline


class TestRoundTrip:
    """Freeze → check → tamper → detect, on a reduced grid so the whole
    cycle stays tier-1 fast."""

    @pytest.fixture()
    def small_grid(self, monkeypatch, tmp_path):
        monkeypatch.setattr(golden, "GOLDEN_MACHINES",
                            {"baseline": BASELINE})
        monkeypatch.setattr(golden, "GOLDEN_POLICIES", ("OOO", "RAR"))
        directory = str(tmp_path / "golden")
        regen_golden(directory, instructions=400, warmup=300)
        return directory

    def test_regen_then_check_ok(self, small_grid):
        assert check_golden(small_grid) == []

    def test_check_is_stable_across_runs(self, small_grid):
        assert check_golden(small_grid) == []
        assert check_golden(small_grid) == []  # second run, same verdict

    def test_fingerprint_drift_detected(self, small_grid):
        path = os.path.join(small_grid, "baseline.json")
        with open(path) as f:
            payload = json.load(f)
        entry = payload["points"]["RAR"]
        entry["fingerprint"] = "0" * 64
        with open(path, "w") as f:
            json.dump(payload, f)
        problems = check_golden(small_grid)
        assert len(problems) == 1
        assert "baseline/RAR" in problems[0]

    def test_digest_drift_reported(self, small_grid):
        path = os.path.join(small_grid, "baseline.json")
        with open(path) as f:
            payload = json.load(f)
        entry = payload["points"]["OOO"]
        entry["fingerprint"] = "0" * 64
        entry["commit_digest"] = "f" * 64
        with open(path, "w") as f:
            json.dump(payload, f)
        (problem,) = check_golden(small_grid)
        assert "commit digest also drifted" in problem

    def test_missing_file_detected(self, small_grid):
        os.remove(os.path.join(small_grid, "baseline.json"))
        problems = check_golden(small_grid)
        assert any("missing golden file" in p for p in problems)

    def test_stale_schema_detected(self, small_grid):
        path = os.path.join(small_grid, "baseline.json")
        with open(path) as f:
            payload = json.load(f)
        payload["schema"] = GOLDEN_SCHEMA + 1
        with open(path, "w") as f:
            json.dump(payload, f)
        problems = check_golden(small_grid)
        assert any("schema" in p for p in problems)

    def test_fork_fault_named_once_per_point(self, small_grid, monkeypatch):
        """A fault only a checkpoint fork sees is caught by the fork leg:
        one line per point, naming it, while the cold leg still matches
        the frozen file."""
        leave_predictor_cold(monkeypatch)
        problems = check_golden(small_grid)
        assert [p.split(":")[0] for p in problems] == [
            "baseline/OOO", "baseline/RAR"]
        for line in problems:
            assert ": fork diverges from the cold run in " in line
            assert "branch_mispredicts" in line
            assert "commit digest " in line

    def test_regen_writes_nothing_while_forks_diverge(self, monkeypatch,
                                                      tmp_path):
        monkeypatch.setattr(golden, "GOLDEN_MACHINES",
                            {"baseline": BASELINE})
        monkeypatch.setattr(golden, "GOLDEN_POLICIES", ("RAR",))
        leave_predictor_cold(monkeypatch)
        directory = tmp_path / "golden"
        with pytest.raises(RuntimeError, match="baseline/RAR: fork"):
            regen_golden(str(directory), instructions=400, warmup=300)
        assert not directory.exists()

    def test_fork_leg_forks_every_point(self, small_grid, monkeypatch,
                                        tmp_path):
        """The ledger shows one shared warmup per point and no cached
        point: the fork leg really forked, rather than being served the
        cold leg's result."""
        # A fresh process checkpoint cache: the fixture's regen already
        # warmed these checkpoints, and a hit records no warmup.
        monkeypatch.setattr(checkpoint, "_PROCESS_CACHE", None)
        path = str(tmp_path / "g.jsonl")
        assert check_golden(small_grid, ledger=path) == []
        events = read_ledger(path)
        shared = [e["policy"] for e in events if e["ev"] == "warmup_shared"]
        assert shared == ["OOO", "RAR"]
        assert not [e for e in events if e["ev"] == "point_cached"]
        assert check_complete(events) == []

    def test_check_uses_frozen_run_sizes(self, monkeypatch, tmp_path):
        """A file frozen at non-default sizes still checks clean: the
        check measures at the sizes the file records."""
        monkeypatch.setattr(golden, "GOLDEN_MACHINES",
                            {"baseline": BASELINE})
        monkeypatch.setattr(golden, "GOLDEN_POLICIES", ("OOO",))
        directory = str(tmp_path / "golden")
        regen_golden(directory, instructions=250, warmup=150)
        assert check_golden(directory) == []


@pytest.mark.slow
class TestFullMatrix:
    """The real frozen 25-point matrix, serially and on the farm."""

    def test_frozen_matrix_conformant_serial(self):
        assert check_golden(GOLDEN_DIR, jobs=1) == []

    def test_frozen_matrix_conformant_parallel(self):
        assert check_golden(GOLDEN_DIR, jobs=4) == []
