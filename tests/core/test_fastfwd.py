"""Functional fast-warmup: boundary contract and interchangeability.

The fast engine is allowed to produce *different* warmed state than the
detailed core (that delta is quantified by ``repro warmval``), but a
fast-warmed checkpoint must be indistinguishable *mechanically*: same
blob schema, same fork/measure semantics, same determinism, same farm
and cache behaviour. These tests pin that contract.
"""

import dataclasses

import pytest

from repro.analysis.experiments import ExperimentRunner, _variant
from repro.checkpoint import Checkpoint, CheckpointCache, warm_checkpoint
from repro.common.params import BASELINE
from repro.core.core import OutOfOrderCore
from repro.core.fastfwd import (
    DETAILED_TAIL_DIVISOR,
    detailed_tail,
    functional_warmup,
    validate_warmup_mode,
)
from repro.core.runahead import get_policy
from repro.sim import measure, simulate, warm_core
from repro.workloads import get_workload

N, W = 1000, 500


def _fresh_core(workload="mcf", policy="RAR", seed=7):
    spec = get_workload(workload)
    core = OutOfOrderCore(BASELINE, spec.build_trace(seed=seed),
                          get_policy(policy), seed=seed)
    for level, base, size in spec.resident_regions():
        core.mem.preload(base, size, level)
    return core


class TestFunctionalWarmup:
    def test_lands_on_architectural_boundary(self):
        core = _fresh_core()
        seen = functional_warmup(core, W)
        assert seen == W
        assert core.stats.committed == W
        assert core.frontend_stage.fetch_idx == W
        assert core.backend.next_dispatch_idx == W
        assert core.engine.cycle == core.stats.cycles >= W

    def test_trains_caches_and_predictor(self):
        cold = _fresh_core()
        warm = _fresh_core()
        functional_warmup(warm, W)
        # The walk must have moved state in the long-lived structures,
        # but pipeline counters stay at zero: warmup is not measurement.
        assert warm.mem.l1d.accesses > cold.mem.l1d.accesses
        assert warm.stats.branch_resolved == 0

    def test_rejects_used_core(self):
        core = _fresh_core()
        core.run(10)
        with pytest.raises(ValueError):
            functional_warmup(core, W)

    def test_short_trace_stops_early(self):
        from repro.common.enums import UopClass
        from repro.isa.trace import Trace
        from repro.isa.uop import StaticUop
        uops = [StaticUop(idx=i, pc=0x1000 + 4 * i,
                          cls=int(UopClass.INT_ADD)) for i in range(40)]
        trace = Trace(iter(uops), name="tiny")
        core = OutOfOrderCore(BASELINE, trace, get_policy("OOO"), seed=0)
        assert functional_warmup(core, 10_000) == len(uops)

    def test_mode_validation(self):
        assert validate_warmup_mode("fast") == "fast"
        with pytest.raises(ValueError):
            validate_warmup_mode("warp")

    def test_detailed_tail_fraction(self):
        assert detailed_tail(20_000) == 20_000 // DETAILED_TAIL_DIVISOR
        assert detailed_tail(0) == 0


class TestInterchangeability:
    def test_zero_warmup_modes_identical(self):
        """With no warmup region the modes cannot differ at all."""
        cold = simulate("mcf", BASELINE, "RAR", instructions=N, warmup=0,
                        seed=7)
        for mode in ("detailed", "fast"):
            core, name = warm_core("mcf", BASELINE, "RAR", 0, 7,
                                   warmup_mode=mode)
            assert measure(core, N, name) == cold, mode

    def test_blob_schema_matches_detailed(self):
        """Fast capture goes through the identical snapshot machinery."""
        det = warm_checkpoint("mcf", BASELINE, "RAR", warmup=W, seed=7)
        fast = warm_checkpoint("mcf", BASELINE, "RAR", warmup=W, seed=7,
                               warmup_mode="fast")
        assert det._blob.keys() == fast._blob.keys()
        assert (det._blob["structures"].keys()
                == fast._blob["structures"].keys())
        assert (det._blob["components"].keys()
                == fast._blob["components"].keys())
        assert det._blob["stats"].keys() == fast._blob["stats"].keys()
        assert det.warmup_mode == "detailed"
        assert fast.warmup_mode == "fast"

    def test_double_fork_deterministic(self):
        """Two forks of one fast checkpoint measure identically."""
        ck = warm_checkpoint("mcf", BASELINE, "RAR", warmup=W, seed=3,
                             warmup_mode="fast")
        assert (measure(ck.fork(), N, "mcf")
                == measure(ck.fork(), N, "mcf"))

    def test_cross_policy_fork_runs(self):
        ck = warm_checkpoint("mcf", BASELINE, "OOO", warmup=W,
                             warmup_mode="fast")
        r = measure(ck.fork("RAR"), N, "mcf")
        assert r.policy == "RAR"
        assert N <= r.instructions < N + BASELINE.core.width

    def test_oracle_and_validate_accept_fast_fork(self):
        ck = warm_checkpoint("mcf", BASELINE, "RAR", warmup=W,
                             warmup_mode="fast")
        r = measure(ck.fork(validate=True, oracle=True), N, "mcf")
        assert r.instructions >= N

    @pytest.mark.parametrize("workload", ["mcf", "lbm"])
    @pytest.mark.parametrize("policy", ["OOO", "RAR"])
    def test_fast_warm_core_equals_fast_fork(self, workload, policy):
        """An unshared fast point measures ``warm_core``'s core with the
        oracle riding through the detailed tail; it gives the result and
        the measured-window commit digest of a fork of a fast-warmed
        checkpoint with the oracle attached after the restore."""
        core, name = warm_core(workload, BASELINE, policy, W, 5,
                               oracle=True, warmup_mode="fast")
        direct = measure(core, N, name)
        ck = warm_checkpoint(workload, BASELINE, policy, warmup=W, seed=5,
                             warmup_mode="fast")
        fork = ck.fork(oracle=True)
        assert measure(fork, N, workload) == direct
        assert fork.oracle.digest() == core.oracle.digest()

    def test_unshared_fast_sweep_captures_nothing(self, tmp_path,
                                                  monkeypatch):
        """Without a shared warmup a fast point warms its own core: no
        checkpoint is captured and no ``warmup_shared`` is logged."""
        from repro.obs.ledger import read_ledger
        captures = []
        capture = Checkpoint.capture

        def counting_capture(*args, **kwargs):
            captures.append(args)
            return capture(*args, **kwargs)

        monkeypatch.setattr(Checkpoint, "capture", counting_capture)
        ledger = str(tmp_path / "l.jsonl")
        out = ExperimentRunner(instructions=N, warmup=W).run_matrix(
            ["mcf", "x264"], BASELINE, ["OOO", "RAR"],
            warmup_mode="fast", ledger=ledger)
        assert out.ok and captures == []
        events = [e["ev"] for e in read_ledger(ledger)]
        assert events.count("point_done") == 4
        assert "warmup_shared" not in events

    def test_matrix_parallel_matches_serial(self, tmp_path):
        """Farm workers reproduce the serial fast-mode results."""
        workloads, policies = ["mcf", "x264"], ["OOO", "RAR"]
        serial = ExperimentRunner(
            instructions=N, warmup=W,
            cache_path=str(tmp_path / "a.json")).run_matrix(
            workloads, BASELINE, policies, warmup_mode="fast")
        parallel = ExperimentRunner(
            instructions=N, warmup=W,
            cache_path=str(tmp_path / "b.json")).run_matrix(
            workloads, BASELINE, policies, jobs=2, share_warmup=True,
            warmup_mode="fast")
        for p in policies:
            for w in workloads:
                assert serial[p][w] == parallel[p][w], (w, p)

    def test_matrix_fast_differs_from_detailed_cache(self, tmp_path):
        """Mode is part of the run key: results never mix."""
        runner = ExperimentRunner(instructions=N, warmup=W,
                                  cache_path=str(tmp_path / "c.json"))
        det = runner.run_matrix(["mcf"], BASELINE, ["RAR"])
        fast = runner.run_matrix(["mcf"], BASELINE, ["RAR"],
                                 warmup_mode="fast")
        det2 = runner.run_matrix(["mcf"], BASELINE, ["RAR"])
        # the detailed rerun is a cache hit, untouched by the fast run
        assert det2["RAR"]["mcf"] == det["RAR"]["mcf"]
        assert fast["RAR"]["mcf"] != det["RAR"]["mcf"]


class TestVariantAndCache:
    def test_variant_tags(self):
        assert _variant(False, "RAR", "RAR") == ""
        assert _variant(False, "RAR", "RAR", warmup_mode="fast") == "wm:fast"
        assert _variant(True, "RAR", "OOO",
                        warmup_mode="fast") == "wm:fast+sw:OOO"

    def test_checkpoint_cache_keys_on_mode(self):
        cache = CheckpointCache(capacity=8)
        a = cache.get_or_warm("mcf", BASELINE, "RAR", warmup=W)
        b = cache.get_or_warm("mcf", BASELINE, "RAR", warmup=W,
                              warmup_mode="fast")
        assert a is not b
        assert a.warmup_mode == "detailed" and b.warmup_mode == "fast"
        assert cache.get_or_warm("mcf", BASELINE, "RAR", warmup=W,
                                 warmup_mode="fast") is b

    def test_ledger_records_mode(self, tmp_path):
        from repro.obs.ledger import read_ledger
        path = str(tmp_path / "ledger.jsonl")
        warm_checkpoint("mcf", BASELINE, "RAR", warmup=W, ledger=path,
                        warmup_mode="fast")
        events = [e for e in read_ledger(path)
                  if e.get("ev") == "warmup_shared"]
        assert events and events[0]["mode"] == "fast"


class TestWarmupHeldMshrs:
    """Fills issued by the functional walk hold L1 MSHRs without an
    engine event. When they are all that is left in flight, the engine
    must wake on the first release instead of reporting a deadlock."""

    @pytest.mark.parametrize("workload, offset",
                             [("libquantum", 1), ("lbm", 5)])
    def test_shared_fast_warmup_completes(self, tmp_path, workload, offset):
        spec = get_workload(workload)
        spec = dataclasses.replace(spec, seed=spec.seed + offset)
        runner = ExperimentRunner(instructions=10_000, warmup=10_000,
                                  cache_path=str(tmp_path / "c.json"))
        matrix = runner.run_matrix(
            [spec], BASELINE, ["OOO", "RAR"], share_warmup=True,
            warmup_mode="fast", validate=True, oracle=True)
        assert not matrix.failures, matrix.failures
        for policy in ("OOO", "RAR"):
            assert matrix[policy][workload].instructions >= 10_000
