"""Golden scenario rows: trace fixtures + phased workloads fingerprinted
across the five policies, frozen next to the machine rows in
tests/golden/golden.json."""

import json
import os

import pytest

from repro import checkpoint
from repro.common.params import BASELINE
from repro.obs.ledger import check_complete, read_ledger
from repro.validate import golden
from repro.validate.golden import (
    GOLDEN_FILE,
    GOLDEN_POLICIES,
    GOLDEN_ROWS,
    GOLDEN_SCHEMA,
    check,
    golden_workload,
    regen,
)
from tests.validate.fork_fault import leave_predictor_cold

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "golden")

#: The rows that do not run mcf on a machine of the core series.
SCENARIO_ROWS = [r for r in GOLDEN_ROWS if GOLDEN_ROWS[r][0] != "mcf"]


def _load(directory):
    with open(os.path.join(directory, GOLDEN_FILE)) as f:
        return json.load(f)


def _dump(directory, payload):
    with open(os.path.join(directory, GOLDEN_FILE), "w") as f:
        json.dump(payload, f)


class TestGrid:
    def test_point_grid(self):
        assert len(SCENARIO_ROWS) * len(GOLDEN_POLICIES) == 20
        assert set(SCENARIO_ROWS) == {"fixture:champsim", "fixture:gem5",
                                      "ph-swap-chase-stream",
                                      "ph-burst-mpki"}

    def test_fixture_scenarios_resolve_to_imported_traces(self):
        from repro.workloads.tracewl import MaterializedTraceWorkload
        for name in ("fixture:champsim", "fixture:gem5"):
            wl = golden_workload(name)
            assert isinstance(wl, MaterializedTraceWorkload)
            assert wl.name == name
            assert len(wl.build_trace()) > 1000

    def test_phased_scenarios_resolve_via_catalog(self):
        assert golden_workload("ph-burst-mpki").phases

    def test_fixture_points_run_past_end_of_stream(self):
        """The table requests more instructions than the fixture holds,
        so the drain path is inside the fingerprint."""
        for name in ("fixture:champsim", "fixture:gem5"):
            _, _, instructions, warmup = GOLDEN_ROWS[name]
            n_uops = len(golden_workload(name).build_trace())
            assert warmup + instructions > n_uops


class TestFrozenFile:
    def test_frozen_scenarios_well_formed(self):
        rows = _load(GOLDEN_DIR)["rows"]
        for name in SCENARIO_ROWS:
            entry = rows[name]
            workload, machine, instructions, warmup = GOLDEN_ROWS[name]
            assert (entry["workload"], entry["machine"]) \
                == (workload, machine.name)
            assert (entry["instructions"], entry["warmup"]) \
                == (instructions, warmup)
            assert list(entry["points"]) == list(GOLDEN_POLICIES)
            for point in entry["points"].values():
                assert len(point["fingerprint"]) == 64
                assert len(point["commit_digest"]) == 64
                assert point["cycles"] > 0


class TestRoundTrip:
    """Freeze → check → tamper → detect on a reduced grid of one fixture
    row and two policies."""

    ROWS = {"fixture:gem5": ("fixture:gem5", BASELINE, 700, 100)}

    @pytest.fixture()
    def small_grid(self, monkeypatch, tmp_path):
        monkeypatch.setattr(golden, "GOLDEN_ROWS", dict(self.ROWS))
        monkeypatch.setattr(golden, "GOLDEN_POLICIES", ("OOO", "RAR"))
        directory = str(tmp_path / "golden")
        regen(directory)
        return directory

    def test_regen_then_check_ok(self, small_grid):
        assert check(small_grid) == []

    def test_drift_detected(self, small_grid):
        payload = _load(small_grid)
        payload["rows"]["fixture:gem5"]["points"]["RAR"][
            "fingerprint"] = "0" * 64
        _dump(small_grid, payload)
        problems = check(small_grid)
        assert len(problems) == 1
        assert "fixture:gem5/RAR" in problems[0]

    def test_missing_file_detected(self, tmp_path):
        (problem,) = check(str(tmp_path))
        assert "missing golden file" in problem

    def test_missing_scenario_detected(self, small_grid, monkeypatch):
        monkeypatch.setitem(golden.GOLDEN_ROWS, "fixture:champsim",
                            ("fixture:champsim", BASELINE, 700, 100))
        (problem,) = check(small_grid)
        assert "rows missing ['fixture:champsim']" in problem

    def test_stale_schema_detected(self, small_grid):
        payload = _load(small_grid)
        payload["schema"] = GOLDEN_SCHEMA + 1
        _dump(small_grid, payload)
        (problem,) = check(small_grid)
        assert "schema" in problem

    def test_fork_fault_named_once_per_point(self, small_grid, monkeypatch):
        leave_predictor_cold(monkeypatch)
        problems = check(small_grid)
        assert [p.split(": ")[0] for p in problems] == [
            "fixture:gem5/OOO", "fixture:gem5/RAR"]
        for line in problems:
            assert ": fork diverges from the cold run in " in line

    def test_regen_writes_nothing_while_forks_diverge(self, monkeypatch,
                                                      tmp_path):
        monkeypatch.setattr(golden, "GOLDEN_ROWS", dict(self.ROWS))
        monkeypatch.setattr(golden, "GOLDEN_POLICIES", ("RAR",))
        leave_predictor_cold(monkeypatch)
        directory = tmp_path / "golden"
        with pytest.raises(RuntimeError, match="fixture:gem5/RAR: fork"):
            regen(str(directory))
        assert not directory.exists()

    def test_fork_leg_forks_every_point(self, small_grid, monkeypatch,
                                        tmp_path):
        monkeypatch.setattr(checkpoint, "_PROCESS_CACHE", None)
        path = str(tmp_path / "g.jsonl")
        assert check(small_grid, ledger=path) == []
        events = read_ledger(path)
        shared = [(e["workload"], e["policy"]) for e in events
                  if e["ev"] == "warmup_shared"]
        assert shared == [("fixture:gem5", "OOO"), ("fixture:gem5", "RAR")]
        assert not [e for e in events if e["ev"] == "point_cached"]
        assert check_complete(events) == []

    def test_row_frozen_at_other_sizes_named(self, small_grid, monkeypatch):
        """A fixture row frozen at sizes other than the table's is named
        with both sets of coordinates."""
        monkeypatch.setitem(golden.GOLDEN_ROWS, "fixture:gem5",
                            ("fixture:gem5", BASELINE, 999, 111))
        (problem,) = check(small_grid)
        assert problem.startswith(
            "fixture:gem5: frozen as fixture:gem5 on baseline at 700/100, "
            "the table says fixture:gem5 on baseline at 999/111")
