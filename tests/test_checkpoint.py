"""Checkpoint capture/fork and the bit-identity determinism contract."""

import pytest

from repro.analysis.experiments import ExperimentRunner
from repro.checkpoint import Checkpoint, warm_checkpoint
from repro.common.params import BASELINE, CORE1
from repro.sim import SimResult, measure, simulate

#: The paper's five main policies — the acceptance criterion demands
#: bit-identity for every one of them.
POLICIES = ("OOO", "FLUSH", "TR", "PRE", "RAR")

N, W = 1000, 500


class TestBitIdentity:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_fork_matches_cold_run(self, policy):
        """measure(warm_checkpoint(P).fork()) == cold simulate(P)."""
        cold = simulate("mcf", BASELINE, policy, instructions=N, warmup=W,
                        seed=7)
        ck = warm_checkpoint("mcf", BASELINE, policy, warmup=W, seed=7)
        forked = measure(ck.fork(), N, ck.workload)
        assert forked == cold  # every field, bit for bit

    def test_serial_forked_and_multiprocess_agree(self, tmp_path):
        """The three execution paths produce identical SimResults."""
        workloads = ("mcf", "x264")
        cold = {(w, p): simulate(w, BASELINE, p, instructions=N, warmup=W)
                for w in workloads for p in POLICIES}

        forked = {}
        for w in workloads:
            for p in POLICIES:
                ck = warm_checkpoint(w, BASELINE, p, warmup=W)
                forked[(w, p)] = measure(ck.fork(), N, w)

        runner = ExperimentRunner(instructions=N, warmup=W,
                                  cache_dir=str(tmp_path / "cache"))
        matrix = runner.run_matrix(workloads, BASELINE, POLICIES, jobs=2)

        for w in workloads:
            for p in POLICIES:
                assert forked[(w, p)] == cold[(w, p)], (w, p, "forked")
                assert matrix[p][w] == cold[(w, p)], (w, p, "multiprocess")

    def test_double_fork_no_cross_contamination(self):
        """Two forks of one checkpoint are independent and identical."""
        ck = warm_checkpoint("mcf", BASELINE, "RAR", warmup=W, seed=3)
        first = measure(ck.fork(), N, "mcf")
        second = measure(ck.fork(), N, "mcf")
        assert first == second

    def test_mutated_fork_leaves_the_checkpoint_intact(self):
        """Forks copy the cache and predictor tables by slice: writing
        into one fork's L3 sets, TAGE counters, bimodal table and BTB in
        place must not reach the checkpoint or a later fork."""
        ck = warm_checkpoint("mcf", BASELINE, "RAR", warmup=W, seed=3)
        before = ck.fork()
        victim = ck.fork()
        l3 = victim.mem.l3
        assert l3._sets and l3._dirty is not before.mem.l3._dirty
        for ways in l3._sets.values():
            ways.reverse()
            ways.append(-1)
        l3._dirty.add((0, -1))
        for table in victim.predictor.tables:
            table.ctrs[:] = [3] * len(table.ctrs)
            table.tags[0] ^= 1
        victim.predictor.bimodal[:] = [0] * len(victim.predictor.bimodal)
        victim.btb._tags[:] = [7] * len(victim.btb._tags)
        after = ck.fork()
        assert after.mem.l3._sets == before.mem.l3._sets
        assert after.mem.l3._dirty == before.mem.l3._dirty
        for got, want in zip(after.predictor.tables, before.predictor.tables):
            assert (got.tags, got.ctrs, got.useful) == \
                (want.tags, want.ctrs, want.useful)
        assert after.predictor.bimodal == before.predictor.bimodal
        assert after.btb._tags == before.btb._tags
        assert measure(after, N, "mcf") == measure(before, N, "mcf")


class TestCheckpointApi:
    def test_cross_policy_fork_runs(self):
        """Shared-warmup approximation: fork under a different policy."""
        ck = warm_checkpoint("mcf", BASELINE, "OOO", warmup=W)
        r = measure(ck.fork("RAR"), N, "mcf")
        assert r.policy == "RAR"
        # commit can overshoot by at most the commit width in the last cycle
        assert N <= r.instructions < N + BASELINE.core.width

    def test_capture_records_coordinates(self):
        ck = warm_checkpoint("x264", CORE1, "FLUSH", warmup=300, seed=5)
        assert ck.workload == "x264"
        assert ck.machine is CORE1
        assert ck.policy.name == "FLUSH"
        assert ck.warmup == 300 and ck.seed == 5

    def test_zero_warmup_checkpoint(self):
        ck = warm_checkpoint("x264", BASELINE, "OOO", warmup=0)
        r = measure(ck.fork(), 400, "x264")
        assert r == simulate("x264", BASELINE, "OOO", instructions=400,
                             warmup=0)

    def test_rejects_nonpositive_instructions(self):
        ck = warm_checkpoint("x264", BASELINE, "OOO", warmup=100)
        with pytest.raises(ValueError):
            measure(ck.fork(), 0, "x264")

    def test_fork_is_checkpoint_method(self):
        ck = warm_checkpoint("x264", BASELINE, "OOO", warmup=100)
        assert isinstance(ck, Checkpoint)
        core = ck.fork("RAR")
        assert core.policy.name == "RAR"
        assert core.stats.committed >= 100  # warmed state restored

    def test_telemetry_attaches_to_fork(self):
        """A fork's stats tree equals a cold run's: every registry
        getter reads the restored state, ``ace.<s>.bits`` included."""
        from repro.obs import Telemetry
        ck = warm_checkpoint("mcf", BASELINE, "RAR", warmup=W)
        tel = Telemetry(interval=100)
        core = ck.fork()
        tel.attach(core)
        r = measure(core, N, "mcf")
        assert len(tel.sampler.rows) >= 5
        payload = tel.stats_dict(r)
        assert payload["result"]["instructions"] == r.instructions
        cold_tel = Telemetry(interval=100)
        cold = simulate("mcf", BASELINE, "RAR", instructions=N, warmup=W,
                        telemetry=cold_tel)
        assert cold == r
        assert payload["stats"] == cold_tel.stats_dict(cold)["stats"]
        assert payload["stats"]["ace"]["rob"]["bits"] == r.abc["rob"] > 0


class TestSimResultRoundTrip:
    def test_to_dict_from_dict_identity(self):
        r = simulate("mcf", BASELINE, "RAR", instructions=600, warmup=200)
        assert SimResult.from_dict(r.to_dict()) == r

    def test_round_trip_survives_json(self):
        import json
        r = simulate("x264", BASELINE, "OOO", instructions=400, warmup=100)
        payload = json.loads(json.dumps(r.to_dict()))
        assert SimResult.from_dict(payload) == r

    def test_unknown_keys_rejected(self):
        r = simulate("x264", BASELINE, "OOO", instructions=400, warmup=100)
        payload = r.to_dict()
        payload["bogus_field"] = 1
        with pytest.raises(TypeError):
            SimResult.from_dict(payload)

    @pytest.mark.parametrize("name,value", [
        ("cycles", "oops"), ("cycles", True), ("cycles", 1.5),
        ("ipc", "0.5"), ("ipc", None), ("workload", 3),
        ("abc", [1, 2]), ("abc", {"rob": 1.0}), ("abc", {"rob": False}),
    ])
    def test_wrong_types_rejected_naming_field(self, name, value):
        r = simulate("x264", BASELINE, "OOO", instructions=400, warmup=100)
        payload = r.to_dict()
        payload[name] = value
        with pytest.raises(TypeError, match=repr(name)):
            SimResult.from_dict(payload)

    def test_int_accepted_for_float_field(self):
        r = simulate("x264", BASELINE, "OOO", instructions=400, warmup=100)
        payload = r.to_dict()
        payload["mlp"] = 2
        assert SimResult.from_dict(payload).mlp == 2


class TestCheckpointCache:
    def test_warms_once_then_hits(self):
        from repro.checkpoint import CheckpointCache
        cache = CheckpointCache(capacity=2)
        a = cache.get_or_warm("mcf", BASELINE, "OOO", warmup=300)
        b = cache.get_or_warm("mcf", BASELINE, "OOO", warmup=300)
        assert a is b
        assert (cache.hits, cache.misses) == (1, 1)
        # a cached checkpoint measures bit-identically to a fresh one
        fresh = warm_checkpoint("mcf", BASELINE, "OOO", warmup=300)
        assert measure(a.fork("RAR"), 500, "mcf") == \
            measure(fresh.fork("RAR"), 500, "mcf")

    def test_key_pins_machine_policy_and_warmup(self):
        from repro.checkpoint import CheckpointCache
        cache = CheckpointCache(capacity=8)
        base = cache.get_or_warm("mcf", BASELINE, "OOO", warmup=300)
        assert cache.get_or_warm("mcf", CORE1, "OOO", warmup=300) \
            is not base
        assert cache.get_or_warm("mcf", BASELINE, "RAR", warmup=300) \
            is not base
        assert cache.get_or_warm("mcf", BASELINE, "OOO", warmup=400) \
            is not base
        assert cache.misses == 4 and cache.hits == 0

    def test_lru_eviction_bounds_memory(self):
        from repro.checkpoint import CheckpointCache
        cache = CheckpointCache(capacity=1)
        a = cache.get_or_warm("mcf", BASELINE, "OOO", warmup=300)
        cache.get_or_warm("x264", BASELINE, "OOO", warmup=300)
        assert len(cache) == 1  # mcf was evicted
        again = cache.get_or_warm("mcf", BASELINE, "OOO", warmup=300)
        assert again is not a and cache.misses == 3

    def test_process_cache_is_singleton(self):
        from repro.checkpoint import process_checkpoint_cache
        assert process_checkpoint_cache() is process_checkpoint_cache()
