"""Golden scenario grid: trace fixtures + phased workloads fingerprinted
across the five policies, frozen in tests/golden/scenarios.json."""

import json
import os

import pytest

from repro import checkpoint
from repro.obs.ledger import check_complete, read_ledger
from repro.validate import golden
from repro.validate.golden import (
    GOLDEN_POLICIES,
    GOLDEN_SCENARIOS,
    GOLDEN_SCHEMA,
    check_scenarios,
    regen_scenarios,
    scenario_points,
    scenario_workload,
)
from tests.validate.fork_fault import leave_predictor_cold

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "golden")


class TestGrid:
    def test_point_grid(self):
        assert len(scenario_points()) == 20  # 4 scenarios x 5 policies
        names = {s for s, _ in scenario_points()}
        assert names == {"fixture:champsim", "fixture:gem5",
                         "ph-swap-chase-stream", "ph-burst-mpki"}

    def test_fixture_scenarios_resolve_to_imported_traces(self):
        from repro.workloads.tracewl import MaterializedTraceWorkload
        for name in ("fixture:champsim", "fixture:gem5"):
            wl = scenario_workload(name)
            assert isinstance(wl, MaterializedTraceWorkload)
            assert wl.name == name
            assert len(wl.build_trace()) > 1000

    def test_phased_scenarios_resolve_via_catalog(self):
        wl = scenario_workload("ph-burst-mpki")
        assert wl.phases

    def test_fixture_points_run_past_end_of_stream(self):
        """The frozen sizes request more instructions than the fixture
        holds, so the drain path is inside the fingerprint."""
        for name in ("fixture:champsim", "fixture:gem5"):
            instructions, warmup = GOLDEN_SCENARIOS[name]
            n_uops = len(scenario_workload(name).build_trace())
            assert warmup + instructions > n_uops


class TestFrozenFile:
    def test_frozen_scenarios_well_formed(self):
        with open(os.path.join(GOLDEN_DIR, "scenarios.json")) as f:
            payload = json.load(f)
        assert payload["schema"] == GOLDEN_SCHEMA
        assert set(payload["scenarios"]) == set(GOLDEN_SCENARIOS)
        for name, entry in payload["scenarios"].items():
            assert (entry["instructions"], entry["warmup"]) \
                == GOLDEN_SCENARIOS[name]
            assert set(entry["points"]) == set(GOLDEN_POLICIES)
            for point in entry["points"].values():
                assert len(point["fingerprint"]) == 64
                assert len(point["commit_digest"]) == 64
                assert point["cycles"] > 0


class TestRoundTrip:
    @pytest.fixture()
    def small_grid(self, monkeypatch, tmp_path):
        monkeypatch.setattr(golden, "GOLDEN_SCENARIOS",
                            {"fixture:gem5": (700, 100)})
        monkeypatch.setattr(golden, "GOLDEN_POLICIES", ("OOO", "RAR"))
        directory = str(tmp_path / "golden")
        regen_scenarios(directory)
        return directory

    def test_regen_then_check_ok(self, small_grid):
        assert check_scenarios(small_grid) == []

    def test_drift_detected(self, small_grid):
        path = os.path.join(small_grid, "scenarios.json")
        with open(path) as f:
            payload = json.load(f)
        payload["scenarios"]["fixture:gem5"]["points"]["RAR"][
            "fingerprint"] = "0" * 64
        with open(path, "w") as f:
            json.dump(payload, f)
        problems = check_scenarios(small_grid)
        assert len(problems) == 1
        assert "fixture:gem5/RAR" in problems[0]

    def test_missing_file_detected(self, tmp_path):
        problems = check_scenarios(str(tmp_path))
        assert len(problems) == 1
        assert "missing golden file" in problems[0]

    def test_missing_scenario_detected(self, small_grid, monkeypatch):
        monkeypatch.setattr(
            golden, "GOLDEN_SCENARIOS",
            {"fixture:gem5": (700, 100), "fixture:champsim": (700, 100)})
        problems = check_scenarios(small_grid)
        assert any("fixture:champsim" in p for p in problems)

    def test_stale_schema_detected(self, small_grid):
        path = os.path.join(small_grid, "scenarios.json")
        with open(path) as f:
            payload = json.load(f)
        payload["schema"] = GOLDEN_SCHEMA + 1
        with open(path, "w") as f:
            json.dump(payload, f)
        problems = check_scenarios(small_grid)
        assert any("schema" in p for p in problems)

    def test_fork_fault_named_once_per_point(self, small_grid, monkeypatch):
        leave_predictor_cold(monkeypatch)
        problems = check_scenarios(small_grid)
        assert [p.split(": ")[0] for p in problems] == [
            "fixture:gem5/OOO", "fixture:gem5/RAR"]
        for line in problems:
            assert ": fork diverges from the cold run in " in line

    def test_regen_writes_nothing_while_forks_diverge(self, monkeypatch,
                                                      tmp_path):
        monkeypatch.setattr(golden, "GOLDEN_SCENARIOS",
                            {"fixture:gem5": (700, 100)})
        monkeypatch.setattr(golden, "GOLDEN_POLICIES", ("RAR",))
        leave_predictor_cold(monkeypatch)
        directory = tmp_path / "golden"
        with pytest.raises(RuntimeError, match="fixture:gem5/RAR: fork"):
            regen_scenarios(str(directory))
        assert not directory.exists()

    def test_fork_leg_forks_every_point(self, small_grid, monkeypatch,
                                        tmp_path):
        monkeypatch.setattr(checkpoint, "_PROCESS_CACHE", None)
        path = str(tmp_path / "g.jsonl")
        assert check_scenarios(small_grid, ledger=path) == []
        events = read_ledger(path)
        shared = [e["policy"] for e in events if e["ev"] == "warmup_shared"]
        assert shared == ["OOO", "RAR"]
        assert not [e for e in events if e["ev"] == "point_cached"]
        assert check_complete(events) == []

    def test_check_uses_frozen_run_sizes(self, small_grid, monkeypatch):
        """Sizes come from the file, not the module constants."""
        monkeypatch.setattr(golden, "GOLDEN_SCENARIOS",
                            {"fixture:gem5": (999, 111)})
        assert check_scenarios(small_grid) == []


@pytest.mark.slow
class TestFullScenarioMatrix:
    """The real frozen scenario grid, serially and forked."""

    def test_frozen_scenarios_conformant_serial(self):
        assert check_scenarios(GOLDEN_DIR, jobs=1) == []

    def test_frozen_scenarios_conformant_parallel(self):
        assert check_scenarios(GOLDEN_DIR, jobs=4) == []
