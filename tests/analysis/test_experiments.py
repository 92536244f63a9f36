"""Experiment runner caching."""

import json
import logging
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.analysis.experiments import ExperimentRunner, RunKey, \
    workload_digest
from repro.common.params import BASELINE
from repro.core.runahead import OOO
from repro.workloads.catalog import get_workload


def _x264(runner, policy=OOO):
    """The one x264 point on BASELINE, measured through ``run_matrix``."""
    (by_workload,) = runner.run_matrix(["x264"], BASELINE, [policy]).values()
    return by_workload["x264"]


class TestRunKey:
    def test_round_trip_string(self):
        k = RunKey("mcf", "baseline", "RAR", 1000, 500, "abc123")
        assert k.as_str() == "mcf|baseline|RAR|1000|500|abc123"

    def test_digest_distinguishes_configs(self):
        from dataclasses import replace
        from repro.common.params import BASELINE
        same_name = replace(BASELINE, l3=replace(BASELINE.l3, latency=99))
        assert RunKey.digest(BASELINE) != RunKey.digest(same_name)

    def test_digest_stable(self):
        from repro.common.params import BASELINE
        assert RunKey.digest(BASELINE) == RunKey.digest(BASELINE)

    def test_distinct_keys(self):
        a = RunKey("mcf", "baseline", "RAR", 1000, 500)
        b = RunKey("mcf", "baseline", "PRE", 1000, 500)
        assert a.as_str() != b.as_str()

    def test_variant_tags_key(self):
        exact = RunKey("mcf", "baseline", "RAR", 1000, 500, "abc123")
        shared = RunKey("mcf", "baseline", "RAR", 1000, 500, "abc123",
                        "sw:OOO")
        # empty variant preserves the legacy key format exactly
        assert exact.as_str() == "mcf|baseline|RAR|1000|500|abc123"
        assert shared.as_str() == "mcf|baseline|RAR|1000|500|abc123|sw:OOO"
        assert exact.as_str() != shared.as_str()


class TestRunnerCache:
    def test_memoisation(self):
        r = ExperimentRunner(instructions=600, warmup=200)
        first = _x264(r)
        second = _x264(r)
        assert first is second  # cached object, not a re-run

    def test_policy_by_name(self):
        r = ExperimentRunner(instructions=600, warmup=200)
        res = _x264(r, "ooo")
        assert res.policy == "OOO"

    def test_run_matrix_shape(self):
        r = ExperimentRunner(instructions=600, warmup=200)
        out = r.run_matrix(["x264"], BASELINE, ["OOO", "RAR"])
        assert set(out) == {"OOO", "RAR"}
        assert set(out["OOO"]) == {"x264"}

    def test_disk_cache_roundtrip(self, tmp_path):
        path = os.path.join(str(tmp_path), "cache.json")
        r1 = ExperimentRunner(instructions=600, warmup=200, cache_path=path)
        first = _x264(r1)
        assert os.path.exists(path)

        r2 = ExperimentRunner(instructions=600, warmup=200, cache_path=path)
        second = _x264(r2)
        assert second.ipc == first.ipc
        assert second.abc_total == first.abc_total

    def test_corrupt_disk_cache_ignored(self, tmp_path):
        path = os.path.join(str(tmp_path), "cache.json")
        with open(path, "w") as f:
            f.write("{not json")
        r = ExperimentRunner(instructions=600, warmup=200, cache_path=path)
        assert _x264(r).instructions > 0

    def test_bad_disk_cache_set_aside_not_overwritten(self, tmp_path, caplog):
        """An unreadable or foreign-schema cache is renamed to the first
        free ``<path>.bad-<n>`` with its bytes intact, and the warning
        names both files; the run then writes a fresh cache."""
        path = os.path.join(str(tmp_path), "cache.json")
        corrupt = b"{not json"
        foreign = json.dumps({"schema": -1, "data": {"k": 1}}).encode()
        with open(path, "wb") as f:
            f.write(corrupt)
        with open(path + ".bad-0", "wb") as f:
            f.write(b"an earlier casualty")
        with caplog.at_level(logging.WARNING, logger="repro"):
            r = ExperimentRunner(instructions=600, warmup=200,
                                 cache_path=path)
            _x264(r)
        with open(path + ".bad-0", "rb") as f:
            assert f.read() == b"an earlier casualty"
        with open(path + ".bad-1", "rb") as f:
            assert f.read() == corrupt
        assert any(path in m and path + ".bad-1" in m
                   for m in caplog.messages)
        with open(path) as f:
            assert len(json.load(f)["data"]) == 1

        with open(path, "wb") as f:
            f.write(foreign)
        r = ExperimentRunner(instructions=600, warmup=200, cache_path=path)
        _x264(r)
        with open(path + ".bad-2", "rb") as f:
            assert f.read() == foreign

    def test_wrong_type_entry_recomputed_with_warning(self, tmp_path,
                                                      caplog):
        """An entry whose fields have the wrong types is not served: the
        warning names the cache, the key and the field, and the point is
        recomputed bit-identically."""
        path = os.path.join(str(tmp_path), "cache.json")
        r1 = ExperimentRunner(instructions=600, warmup=200, cache_path=path)
        first = r1.run_matrix(["x264"], BASELINE, ["OOO", "RAR"])
        with open(path) as f:
            raw = json.load(f)
        key = next(k for k in raw["data"] if "|OOO|" in k)
        raw["data"][key]["cycles"] = "oops"
        raw["data"][key]["abc"] = [1, 2]
        with open(path, "w") as f:
            json.dump(raw, f)
        with caplog.at_level(logging.WARNING, logger="repro"):
            r2 = ExperimentRunner(instructions=600, warmup=200,
                                  cache_path=path)
            second = r2.run_matrix(["x264"], BASELINE, ["OOO", "RAR"])
        assert second["OOO"]["x264"] == first["OOO"]["x264"]
        assert second["RAR"]["x264"] == first["RAR"]["x264"]
        warned = [m for m in caplog.messages if key in m]
        assert len(warned) == 1
        assert path in warned[0] and "'cycles'" in warned[0]
        with open(path) as f:
            assert json.load(f)["data"][key] == first["OOO"]["x264"].to_dict()

    def test_default_warmup_matches_simulate(self):
        from repro.common.params import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP
        r = ExperimentRunner()
        assert r.instructions == DEFAULT_INSTRUCTIONS
        assert r.warmup == DEFAULT_WARMUP


class TestParallelMatrix:
    WLS = ["mcf", "x264"]
    POLS = ["OOO", "RAR"]

    def test_parallel_equals_serial(self, tmp_path):
        serial = ExperimentRunner(instructions=800, warmup=300)
        parallel = ExperimentRunner(instructions=800, warmup=300)
        a = serial.run_matrix(self.WLS, BASELINE, self.POLS)
        b = parallel.run_matrix(self.WLS, BASELINE, self.POLS, jobs=2)
        for p in self.POLS:
            for w in self.WLS:
                assert a[p][w] == b[p][w]

    def test_share_warmup_tags_cache_variant(self):
        r = ExperimentRunner(instructions=800, warmup=300)
        out = r.run_matrix(self.WLS, BASELINE, self.POLS, share_warmup=True,
                           warmup_policy="OOO")
        assert set(out) == set(self.POLS)
        shared_keys = [k for k in r._cache if k.endswith("|sw:OOO")]
        exact_keys = [k for k in r._cache if not k.endswith("|sw:OOO")]
        # only the non-warmup-policy points carry the variant tag
        assert len(shared_keys) == len(self.WLS)
        assert all("|RAR|" in k for k in shared_keys)
        assert len(exact_keys) == len(self.WLS)

    def test_share_warmup_exact_for_warmup_policy(self):
        from repro.sim import simulate
        r = ExperimentRunner(instructions=800, warmup=300)
        out = r.run_matrix(["x264"], BASELINE, self.POLS, share_warmup=True)
        cold = simulate("x264", BASELINE, "OOO", instructions=800,
                        warmup=300)
        assert out["OOO"]["x264"] == cold

    def test_matrix_merges_into_disk_cache(self, tmp_path):
        import json
        path = os.path.join(str(tmp_path), "cache.json")
        r1 = ExperimentRunner(instructions=800, warmup=300, cache_path=path)
        a = r1.run_matrix(self.WLS, BASELINE, self.POLS, jobs=2)
        raw = json.load(open(path))
        assert raw["schema"] == 3
        assert len(raw["data"]) == len(self.WLS) * len(self.POLS)
        r2 = ExperimentRunner(instructions=800, warmup=300, cache_path=path)
        b = r2.run_matrix(self.WLS, BASELINE, self.POLS)
        for p in self.POLS:
            for w in self.WLS:
                assert a[p][w] == b[p][w]


class TestFaultIsolation:
    """One failing point no longer discards its siblings' work."""

    def test_raising_point_is_isolated_serially(self, monkeypatch):
        monkeypatch.setenv("REPRO_FARM_RAISE", "mcf:RAR")
        r = ExperimentRunner(instructions=800, warmup=300)
        out = r.run_matrix(["mcf", "x264"], BASELINE, ["OOO", "RAR"])
        assert not out.ok
        assert len(out.failures) == 1
        f = out.failures[0]
        assert (f["workload"], f["policy"]) == ("mcf", "RAR")
        assert "chaos" in f["error"]
        assert "RuntimeError" in f["traceback"]
        assert f["quarantined"] is False
        # the raising point's group-siblings and sibling groups survived
        assert sorted(out["OOO"]) == ["mcf", "x264"]
        assert sorted(out["RAR"]) == ["x264"]

    def test_raise_if_failed_restores_loud_behaviour(self, monkeypatch):
        import pytest
        monkeypatch.setenv("REPRO_FARM_RAISE", "mcf:RAR")
        r = ExperimentRunner(instructions=800, warmup=300)
        out = r.run_matrix(["mcf"], BASELINE, ["OOO", "RAR"])
        with pytest.raises(RuntimeError, match="mcf/RAR"):
            out.raise_if_failed()
        # a clean matrix chains through
        clean = ExperimentRunner(instructions=800, warmup=300)
        got = clean.run_matrix(["mcf"], BASELINE, ["OOO"])
        assert got.raise_if_failed() is got

    def test_failed_points_recorded_in_ledger(self, tmp_path, monkeypatch):
        from repro.obs.ledger import check_complete, read_ledger
        monkeypatch.setenv("REPRO_FARM_RAISE", "mcf:RAR")
        led = os.path.join(str(tmp_path), "led.jsonl")
        r = ExperimentRunner(instructions=800, warmup=300)
        r.run_matrix(["mcf"], BASELINE, ["OOO", "RAR"], ledger=led)
        events = read_ledger(led)
        assert check_complete(events) == []
        errs = [e for e in events if e["ev"] == "point_error"]
        assert len(errs) == 1 and errs[0]["policy"] == "RAR"
        done = [e for e in events if e["ev"] == "sweep_done"]
        assert done[0]["points_failed"] == 1

    def test_completed_groups_flushed_before_later_failure(
            self, tmp_path, monkeypatch):
        """A sweep dying on a later group keeps earlier groups' points
        on disk (incremental flush), serially and under the farm."""
        import json
        import pytest
        # monkeypatched stand-in dies on the second group outright
        import repro.analysis.experiments as exp

        calls = []
        real = exp._iter_group_points

        def flaky(task):
            calls.append(task[0].name)
            if len(calls) > 1:
                raise KeyboardInterrupt  # not caught by point isolation
            return real(task)

        monkeypatch.setattr(exp, "_iter_group_points", flaky)
        path = os.path.join(str(tmp_path), "cache.json")
        r = ExperimentRunner(instructions=800, warmup=300, cache_path=path)
        with pytest.raises(KeyboardInterrupt):
            r.run_matrix(["mcf", "x264"], BASELINE, ["OOO"])
        raw = json.load(open(path))
        assert len(raw["data"]) == 1  # first group survived the crash


class TestCachedStatsDir:
    def test_cached_point_renders_stats_without_resimulating(
            self, tmp_path, monkeypatch):
        import json
        r = ExperimentRunner(instructions=800, warmup=300)
        r.run_matrix(["mcf"], BASELINE, ["OOO"])
        stats = os.path.join(str(tmp_path), "stats")

        def boom(*a, **k):
            raise AssertionError("cached point was re-simulated")

        # historically `stats_dir` forced cached points back through the
        # simulator; the artifact must now come from the cached result
        import repro.analysis.experiments as exp
        monkeypatch.setattr(exp, "warm_core", boom)
        monkeypatch.setattr(exp, "measure", boom)
        out = r.run_matrix(["mcf"], BASELINE, ["OOO"], stats_dir=stats)
        artifact = os.path.join(stats, "mcf_baseline_OOO.json")
        payload = json.load(open(artifact))
        assert payload["manifest"]["point"]["from_cache"] is True
        cached = out["OOO"]["mcf"]
        assert payload["result"]["ipc"] == cached.ipc
        assert payload["result"]["cycles"] == cached.cycles
        assert payload["result"]["avf"] == cached.avf

    def test_fresh_points_still_write_live_stats(self, tmp_path):
        import json
        stats = os.path.join(str(tmp_path), "stats")
        r = ExperimentRunner(instructions=800, warmup=300)
        r.run_matrix(["mcf"], BASELINE, ["OOO"], stats_dir=stats)
        payload = json.load(
            open(os.path.join(stats, "mcf_baseline_OOO.json")))
        assert "from_cache" not in payload["manifest"]["point"]
        assert "stats" in payload  # live run: registry tree present


class TestIdempotentDiskCache:
    def test_save_merges_with_concurrent_writers(self, tmp_path):
        """Two runners sharing one cache file union their points instead
        of last-writer-wins clobbering (the requeue/retry safety net)."""
        path = os.path.join(str(tmp_path), "cache.json")
        a = ExperimentRunner(instructions=800, warmup=300, cache_path=path)
        a.run_matrix(["mcf"], BASELINE, ["OOO"])
        # b loaded (empty) before a's flush ever existed
        b = ExperimentRunner(instructions=800, warmup=300)
        b.cache_path = path
        b.run_matrix(["x264"], BASELINE, ["OOO"])
        import json
        raw = json.load(open(path))
        assert len(raw["data"]) == 2  # both runners' points survived

    def test_repeated_save_is_idempotent(self, tmp_path):
        import json
        path = os.path.join(str(tmp_path), "cache.json")
        r = ExperimentRunner(instructions=800, warmup=300, cache_path=path)
        r.run_matrix(["mcf"], BASELINE, ["OOO"])
        first = json.load(open(path))
        r._save_disk_cache()
        r._save_disk_cache()
        assert json.load(open(path)) == first


class TestContentKeys:
    """A point is keyed by its workload's content, not its name."""

    N = 2000

    @staticmethod
    def _mcf_pair():
        mcf = get_workload("mcf")
        return mcf, replace(mcf, seed=mcf.seed + 3)

    def test_digest_covers_seed_and_phases(self):
        mcf, mcf3 = self._mcf_pair()
        assert workload_digest(mcf) == workload_digest(replace(mcf))
        assert workload_digest(mcf) != workload_digest(mcf3)
        phased = get_workload("ph-drift-hot")
        (phase,) = phased.phases
        slower = replace(phased, phases=(replace(phase, drift=1024),))
        assert workload_digest(phased) != workload_digest(slower)

    def test_digest_rejects_unknown_workload_types(self):
        class Opaque:
            name = "opaque"

        with pytest.raises(TypeError, match="opaque"):
            workload_digest(Opaque())

    def test_digest_independent_of_hash_seed(self, tmp_path):
        from repro.isa.tracefile import save_trace
        path = str(tmp_path / "x264.trace.gz")
        save_trace(get_workload("x264").build_trace(), path, limit=500)
        code = ("from repro.analysis.experiments import workload_digest\n"
                "from repro.workloads.catalog import get_workload\n"
                "for n in ('mcf', 'ph-drift-hot', 'trace:' + %r):\n"
                "    print(workload_digest(get_workload(n)))\n" % path)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        outs = []
        for hash_seed in ("0", "7"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.path.abspath(src))
            outs.append(subprocess.run(
                [sys.executable, "-c", code], env=env, check=True,
                capture_output=True, text=True).stdout)
        assert outs[0] == outs[1]
        assert len(set(outs[0].split())) == 3

    def test_same_name_other_seed_is_another_point(self):
        from repro.sim import simulate
        mcf, mcf3 = self._mcf_pair()
        r = ExperimentRunner(instructions=self.N, warmup=self.N)
        first = r.run_matrix([mcf], BASELINE, ["OOO"])["OOO"]["mcf"]
        second = r.run_matrix([mcf3], BASELINE, ["OOO"])["OOO"]["mcf"]
        cold = simulate(mcf3, BASELINE, "OOO", instructions=self.N,
                        warmup=self.N)
        assert second == cold
        assert second.ipc != first.ipc

    def test_shared_warmup_checkpoint_keyed_by_content(self):
        """Two fresh runners in one process share the process checkpoint
        cache; the reseeded workload must warm its own checkpoint."""
        from repro.checkpoint import process_checkpoint_cache
        from repro.sim import simulate
        mcf, mcf3 = self._mcf_pair()
        process_checkpoint_cache().clear()
        a = ExperimentRunner(instructions=self.N, warmup=self.N).run_matrix(
            [mcf], BASELINE, ["OOO", "RAR"], share_warmup=True)
        b = ExperimentRunner(instructions=self.N, warmup=self.N).run_matrix(
            [mcf3], BASELINE, ["OOO", "RAR"], share_warmup=True)
        # OOO is the warmup policy, so the shared point equals a cold run
        assert b["OOO"]["mcf"] == simulate(mcf3, BASELINE, "OOO",
                                           instructions=self.N,
                                           warmup=self.N)
        assert b["RAR"]["mcf"] != a["RAR"]["mcf"]

    def test_rewritten_trace_is_another_point(self, tmp_path):
        from repro.isa.tracefile import save_trace
        from repro.sim import simulate
        trace = str(tmp_path / "t.trace.gz")
        name = f"trace:{trace}"
        cache = str(tmp_path / "cache.json")
        save_trace(get_workload("x264").build_trace(), trace, limit=1500)
        first = ExperimentRunner(600, 200, cache_path=cache).run_matrix(
            [name], BASELINE, ["OOO"])["OOO"][name]
        save_trace(get_workload("mcf").build_trace(), trace, limit=1500)
        second = ExperimentRunner(600, 200, cache_path=cache).run_matrix(
            [name], BASELINE, ["OOO"])["OOO"][name]
        assert second == simulate(name, BASELINE, "OOO", instructions=600,
                                  warmup=200)
        assert second != first

    def test_duplicate_labels_rejected(self):
        mcf, mcf3 = self._mcf_pair()
        r = ExperimentRunner(instructions=600, warmup=200)
        with pytest.raises(ValueError, match="share the label 'mcf'") as e:
            r.run_matrix([mcf, "x264", mcf3], BASELINE, ["OOO"])
        assert f"seed={mcf.seed}" in str(e.value)
        assert f"seed={mcf3.seed}" in str(e.value)
        assert r._cache == {}
