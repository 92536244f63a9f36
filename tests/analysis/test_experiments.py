"""Experiment runner caching."""

import json
import logging
import os

from repro.analysis.experiments import ExperimentRunner, RunKey
from repro.common.params import BASELINE
from repro.core.runahead import OOO


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
        first = r.run("x264", BASELINE, OOO)
        second = r.run("x264", BASELINE, OOO)
        assert first is second  # cached object, not a re-run

    def test_policy_by_name(self):
        r = ExperimentRunner(instructions=600, warmup=200)
        res = r.run("x264", BASELINE, "ooo")
        assert res.policy == "OOO"

    def test_run_matrix_shape(self):
        r = ExperimentRunner(instructions=600, warmup=200)
        out = r.run_matrix(["x264"], BASELINE, ["OOO", "RAR"])
        assert set(out) == {"OOO", "RAR"}
        assert set(out["OOO"]) == {"x264"}

    def test_disk_cache_roundtrip(self, tmp_path):
        path = os.path.join(str(tmp_path), "cache.json")
        r1 = ExperimentRunner(instructions=600, warmup=200, cache_path=path)
        first = r1.run("x264", BASELINE, OOO)
        assert os.path.exists(path)

        r2 = ExperimentRunner(instructions=600, warmup=200, cache_path=path)
        second = r2.run("x264", BASELINE, OOO)
        assert second.ipc == first.ipc
        assert second.abc_total == first.abc_total

    def test_corrupt_disk_cache_ignored(self, tmp_path):
        path = os.path.join(str(tmp_path), "cache.json")
        with open(path, "w") as f:
            f.write("{not json")
        r = ExperimentRunner(instructions=600, warmup=200, cache_path=path)
        assert r.run("x264", BASELINE, OOO).instructions > 0

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
            r.run("x264", BASELINE, OOO)
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
        r.run("x264", BASELINE, OOO)
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
        assert raw["schema"] == 2
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
        from repro import sim as sim_mod
        r = ExperimentRunner(instructions=800, warmup=300)
        r.run_matrix(["mcf"], BASELINE, ["OOO"])
        stats = os.path.join(str(tmp_path), "stats")

        def boom(*a, **k):
            raise AssertionError("cached point was re-simulated")

        # historically `stats_dir` forced cached points back through the
        # simulator; the artifact must now come from the cached result
        monkeypatch.setattr(sim_mod, "simulate", boom)
        import repro.analysis.experiments as exp
        monkeypatch.setattr(exp, "simulate", boom)
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
