"""Trace-backed workloads: ``trace:<path>`` resolution, streaming
replay, end-of-stream drain under the oracle, and checkpoint warming."""

import pytest

from repro.common.params import BASELINE
from repro.isa.tracefile import save_trace
from repro.workloads.catalog import get_workload
from repro.workloads.tracewl import (
    TRACE_PREFIX,
    MaterializedTraceWorkload,
    TraceWorkload,
    is_trace_name,
)


@pytest.fixture()
def saved_trace(tmp_path):
    path = str(tmp_path / "x264.trace.gz")
    save_trace(get_workload("x264").build_trace(), path, limit=4000)
    return path


class TestResolution:
    def test_prefix_detection(self):
        assert is_trace_name("trace:/tmp/a.trc")
        assert not is_trace_name("mcf")

    def test_get_workload_resolves_trace_names(self, saved_trace):
        wl = get_workload(f"{TRACE_PREFIX}{saved_trace}")
        assert isinstance(wl, TraceWorkload)
        assert wl.path == saved_trace
        assert wl.memory_intensive
        assert wl.resident_regions() == []

    def test_missing_file_raises_keyerror(self):
        with pytest.raises(KeyError, match="not found"):
            get_workload("trace:/nonexistent/file.trc")

    def test_empty_path_raises_keyerror(self):
        with pytest.raises(KeyError, match="empty path"):
            get_workload("trace:")

    def test_unknown_name_error_mentions_trace_syntax(self):
        with pytest.raises(KeyError, match="trace:<path>"):
            get_workload("wolfenstein3d")

    def test_header_only_construction(self, saved_trace):
        wl = TraceWorkload(saved_trace)
        assert wl.version == 2
        assert wl.trace_name == "x264"

    def test_file_sha256_cached(self, saved_trace):
        wl = TraceWorkload(saved_trace)
        assert wl.file_sha256() == wl.file_sha256()
        assert len(wl.file_sha256()) == 64

    def test_picklable_by_path(self, saved_trace):
        import pickle
        wl = get_workload(f"{TRACE_PREFIX}{saved_trace}")
        clone = pickle.loads(pickle.dumps(wl))
        assert clone.path == wl.path
        assert len(clone.build_trace()) >= 0  # workers re-open the file


class TestSimulation:
    def test_replay_matches_loaded_trace(self, saved_trace):
        """A ``trace:`` workload run is bit-identical to simulating the
        loaded trace directly (no residency hints on either path; the
        generated spec differs only by its preloaded regions)."""
        from repro.isa.tracefile import load_trace
        from repro.sim import simulate
        a = simulate(load_trace(saved_trace), BASELINE, "OOO",
                     instructions=800, warmup=400)
        b = simulate(f"{TRACE_PREFIX}{saved_trace}", BASELINE, "OOO",
                     instructions=800, warmup=400)
        assert a.cycles == b.cycles
        assert a.abc_total == b.abc_total

    def test_eos_drain_under_oracle_and_validate(self, tmp_path):
        """Requesting more instructions than the file holds drains at
        end-of-stream cleanly, with the oracle checking the full
        architectural stream (the PR-5 finite-trace contract)."""
        from repro.sim import simulate
        path = str(tmp_path / "short.trace")
        save_trace(get_workload("mcf").build_trace(), path, limit=1500)
        r = simulate(f"{TRACE_PREFIX}{path}", BASELINE, "RAR",
                     instructions=10_000, warmup=200,
                     validate=True, oracle=True)
        assert 0 < r.instructions <= 1500

    def test_warm_checkpoint_fork(self, saved_trace):
        from repro.checkpoint import warm_checkpoint
        name = f"{TRACE_PREFIX}{saved_trace}"
        cp = warm_checkpoint(name, BASELINE, "OOO", warmup=300)
        a, b = cp.fork(oracle=True), cp.fork(oracle=True)
        a.run(500)
        b.run(500)
        assert a.cycle == b.cycle
        assert a.stats.committed == b.stats.committed

    def test_sweep_accepts_trace_workloads(self, saved_trace):
        from repro.analysis.experiments import ExperimentRunner
        runner = ExperimentRunner(instructions=400, warmup=200)
        name = f"{TRACE_PREFIX}{saved_trace}"
        matrix = runner.run_matrix([name], BASELINE, ["OOO", "RAR"])
        matrix.raise_if_failed()
        assert set(matrix) == {"OOO", "RAR"}
        for policy in matrix:
            assert matrix[policy][name].instructions >= 400


class TestMaterialized:
    def test_fresh_trace_per_build(self):
        src = get_workload("x264").build_trace()
        uops = [src.get(i) for i in range(100)]
        wl = MaterializedTraceWorkload(uops, name="mat")
        t1, t2 = wl.build_trace(), wl.build_trace()
        assert t1 is not t2
        assert len(t1) == len(t2) == 100
        assert t1.get(50).pc == t2.get(50).pc
