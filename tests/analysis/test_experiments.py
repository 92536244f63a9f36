"""Experiment runner caching."""

import json
import logging
import os
import re
import subprocess
import sys
from dataclasses import replace

import pytest

import repro.analysis.experiments as exp
from repro.analysis.experiments import ExperimentRunner, RunKey, \
    workload_digest
from repro.common.params import BASELINE
from repro.core.runahead import OOO
from repro.workloads.catalog import get_workload
from tests.analysis.point_faults import raise_at


def _x264(runner, policy=OOO):
    """The one x264 point on BASELINE, measured through ``run_matrix``."""
    (by_workload,) = runner.run_matrix(["x264"], BASELINE, [policy]).values()
    return by_workload["x264"]


def _entries(cache):
    """A cache directory's entry files, keyed by the key each holds."""
    out = {}
    for name in sorted(os.listdir(cache)):
        if name.endswith(".json"):
            path = os.path.join(cache, name)
            with open(path) as f:
                out[json.load(f)["key"]] = path
    return out


def _count_measures(monkeypatch):
    """Count the points measured from here on (cache hits are not)."""
    calls = []
    real = exp.measure

    def measure(core, instructions, name):
        calls.append((name, core.policy.name))
        return real(core, instructions, name)

    monkeypatch.setattr(exp, "measure", measure)
    return calls


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

    def test_disk_cache_roundtrip(self, tmp_path, monkeypatch):
        cache = os.path.join(str(tmp_path), "cache")
        r1 = ExperimentRunner(instructions=600, warmup=200, cache_dir=cache)
        first = _x264(r1)
        ((key, path),) = _entries(cache).items()
        with open(path) as f:
            raw = json.load(f)
        assert raw["schema"] == 4 and raw["key"] == key
        assert raw["manifest"]["pid"] == os.getpid()  # its own manifest
        assert raw["result"] == first.to_dict()

        calls = _count_measures(monkeypatch)
        r2 = ExperimentRunner(instructions=600, warmup=200, cache_dir=cache)
        assert _x264(r2) == first
        assert calls == []  # served from the entry file

    def test_corrupt_disk_cache_ignored(self, tmp_path):
        cache = os.path.join(str(tmp_path), "cache")
        first = _x264(ExperimentRunner(600, 200, cache_dir=cache))
        (path,) = _entries(cache).values()
        with open(path, "w") as f:
            f.write("{not json")
        r = ExperimentRunner(instructions=600, warmup=200, cache_dir=cache)
        assert _x264(r) == first

    def test_bad_disk_cache_set_aside_not_overwritten(self, tmp_path, caplog,
                                                      monkeypatch):
        """An unreadable entry, a foreign-schema entry and an entry that
        holds another key are each renamed to their own first free
        ``<entry>.bad-<n>`` with their bytes intact, the warning names
        both files, and only those points are recomputed: the sibling
        entry is still served."""
        cache = os.path.join(str(tmp_path), "cache")
        pols = ["OOO", "RAR", "PRE", "FLUSH"]
        first = ExperimentRunner(600, 200, cache_dir=cache).run_matrix(
            ["x264"], BASELINE, pols)
        entry = {k.split("|")[2]: p for k, p in _entries(cache).items()}
        corrupt = b"{not json"
        foreign = json.dumps({"schema": -1, "data": {"k": 1}}).encode()
        with open(entry["FLUSH"], "rb") as f:
            other_key = f.read()
        with open(entry["OOO"] + ".bad-0", "wb") as f:
            f.write(b"an earlier casualty")
        for policy, data in (("OOO", corrupt), ("RAR", foreign),
                             ("PRE", other_key)):
            with open(entry[policy], "wb") as f:
                f.write(data)

        calls = _count_measures(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="repro"):
            second = ExperimentRunner(600, 200, cache_dir=cache).run_matrix(
                ["x264"], BASELINE, pols)
        assert sorted(p for _, p in calls) == ["OOO", "PRE", "RAR"]
        for p in pols:
            assert second[p]["x264"] == first[p]["x264"]
        with open(entry["OOO"] + ".bad-0", "rb") as f:
            assert f.read() == b"an earlier casualty"
        for policy, data, bad in (("OOO", corrupt, ".bad-1"),
                                  ("RAR", foreign, ".bad-0"),
                                  ("PRE", other_key, ".bad-0")):
            with open(entry[policy] + bad, "rb") as f:
                assert f.read() == data
            assert any(entry[policy] in m and entry[policy] + bad in m
                       for m in caplog.messages)
        assert not os.path.exists(entry["FLUSH"] + ".bad-0")
        # each recomputed point is back in its own entry
        assert sorted(_entries(cache).values()) == sorted(entry.values())

    def test_wrong_type_entry_recomputed_with_warning(self, tmp_path,
                                                      caplog):
        """An entry whose fields have the wrong types is not served: the
        warning names the entry, the key and the field, and the point is
        recomputed bit-identically into a fresh entry."""
        cache = os.path.join(str(tmp_path), "cache")
        r1 = ExperimentRunner(instructions=600, warmup=200, cache_dir=cache)
        first = r1.run_matrix(["x264"], BASELINE, ["OOO", "RAR"])
        key, path = next((k, p) for k, p in _entries(cache).items()
                         if "|OOO|" in k)
        with open(path) as f:
            raw = json.load(f)
        raw["result"]["cycles"] = "oops"
        raw["result"]["abc"] = [1, 2]
        with open(path, "w") as f:
            json.dump(raw, f)
        with caplog.at_level(logging.WARNING, logger="repro"):
            r2 = ExperimentRunner(instructions=600, warmup=200,
                                  cache_dir=cache)
            second = r2.run_matrix(["x264"], BASELINE, ["OOO", "RAR"])
        assert second["OOO"]["x264"] == first["OOO"]["x264"]
        assert second["RAR"]["x264"] == first["RAR"]["x264"]
        warned = [m for m in caplog.messages if key in m]
        assert len(warned) == 1
        assert path in warned[0] and "'cycles'" in warned[0]
        with open(path) as f:
            assert json.load(f)["result"] == first["OOO"]["x264"].to_dict()

    def test_cache_write_failure_warns_once_per_sweep(self, tmp_path,
                                                      caplog, monkeypatch):
        """A cache that cannot be written does not fail the sweep; one
        warning per ``run_matrix`` call names the cache and the error."""
        def refuse(path, payload, indent=None):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(exp, "atomic_write_json", refuse)
        cache = os.path.join(str(tmp_path), "cache")
        r = ExperimentRunner(instructions=600, warmup=200, cache_dir=cache)
        for policies in (["OOO", "RAR"], ["PRE", "FLUSH"]):
            with caplog.at_level(logging.WARNING, logger="repro"):
                out = r.run_matrix(["x264"], BASELINE, policies)
            assert set(out) == set(policies) and out.ok
            (warned,) = [m for m in caplog.messages if cache in m]
            assert "could not be written" in warned
            assert "Permission denied" in warned
            caplog.clear()
        assert os.listdir(cache) == []

    def test_non_directory_cache_rejected(self, tmp_path):
        """A path that is not a directory (a single-file cache of an
        older layout) is named in the error and left untouched."""
        path = os.path.join(str(tmp_path), "cache.json")
        with open(path, "w") as f:
            f.write('{"schema": 3, "data": {}}')
        with pytest.raises(ValueError, match=re.escape(path)):
            ExperimentRunner(instructions=600, warmup=200, cache_dir=path)
        with open(path) as f:
            assert f.read() == '{"schema": 3, "data": {}}'

    def test_one_write_per_point(self, tmp_path, monkeypatch):
        """A farm sweep of four points writes four files, each holding
        one point's result: no store rewrites what is already saved."""
        writes = []
        real = exp.atomic_write_json

        def record(path, payload, indent=None):
            writes.append((path, payload))
            real(path, payload, indent)

        monkeypatch.setattr(exp, "atomic_write_json", record)
        cache = os.path.join(str(tmp_path), "cache")
        out = ExperimentRunner(800, 300, cache_dir=cache).run_matrix(
            ["mcf", "x264"], BASELINE, ["OOO", "RAR"], jobs=2)
        assert out.ok
        assert len(writes) == 4
        assert len({path for path, _ in writes}) == 4
        for _, payload in writes:
            w, _, p = payload["key"].split("|")[:3]
            assert payload["result"] == out[p][w.split("@")[0]].to_dict()

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

    def test_matrix_merges_into_disk_cache(self, tmp_path, monkeypatch):
        cache = os.path.join(str(tmp_path), "cache")
        r1 = ExperimentRunner(instructions=800, warmup=300, cache_dir=cache)
        a = r1.run_matrix(self.WLS, BASELINE, self.POLS, jobs=2)
        entries = _entries(cache)
        assert len(entries) == len(self.WLS) * len(self.POLS)
        for path in entries.values():
            with open(path) as f:
                assert json.load(f)["schema"] == 4
        calls = _count_measures(monkeypatch)
        r2 = ExperimentRunner(instructions=800, warmup=300, cache_dir=cache)
        b = r2.run_matrix(self.WLS, BASELINE, self.POLS)
        assert calls == []
        for p in self.POLS:
            for w in self.WLS:
                assert a[p][w] == b[p][w]


class TestFaultIsolation:
    """One failing point no longer discards its siblings' work."""

    def test_raising_point_is_isolated_serially(self, monkeypatch):
        message = raise_at(monkeypatch, "mcf", "RAR")
        r = ExperimentRunner(instructions=800, warmup=300)
        out = r.run_matrix(["mcf", "x264"], BASELINE, ["OOO", "RAR"])
        assert not out.ok
        assert len(out.failures) == 1
        f = out.failures[0]
        assert (f["workload"], f["policy"]) == ("mcf", "RAR")
        assert message in f["error"]
        assert "RuntimeError" in f["traceback"]
        assert f["quarantined"] is False
        # the raising point's group-siblings and sibling groups survived
        assert sorted(out["OOO"]) == ["mcf", "x264"]
        assert sorted(out["RAR"]) == ["x264"]

    def test_raise_if_failed_restores_loud_behaviour(self, monkeypatch):
        raise_at(monkeypatch, "mcf", "RAR")
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
        raise_at(monkeypatch, "mcf", "RAR")
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
        on disk: each is written the moment it lands."""
        # monkeypatched stand-in dies on the second group outright
        calls = []
        real = exp._iter_group_points

        def flaky(task):
            calls.append(task[0].name)
            if len(calls) > 1:
                raise KeyboardInterrupt  # not caught by point isolation
            return real(task)

        monkeypatch.setattr(exp, "_iter_group_points", flaky)
        cache = os.path.join(str(tmp_path), "cache")
        r = ExperimentRunner(instructions=800, warmup=300, cache_dir=cache)
        with pytest.raises(KeyboardInterrupt):
            r.run_matrix(["mcf", "x264"], BASELINE, ["OOO"])
        (key,) = _entries(cache)  # first group survived the crash
        assert key.startswith("mcf@")


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
    def test_save_merges_with_concurrent_writers(self, tmp_path,
                                                 monkeypatch):
        """Two runners on one cache directory, both made before either
        stored a point, keep both points: each writes only its own
        entries, so neither clobbers the other."""
        cache = os.path.join(str(tmp_path), "cache")
        a = ExperimentRunner(instructions=800, warmup=300, cache_dir=cache)
        b = ExperimentRunner(instructions=800, warmup=300, cache_dir=cache)
        a.run_matrix(["mcf"], BASELINE, ["OOO"])
        b.run_matrix(["x264"], BASELINE, ["OOO"])
        assert len(_entries(cache)) == 2  # both runners' points survived
        calls = _count_measures(monkeypatch)
        ExperimentRunner(800, 300, cache_dir=cache).run_matrix(
            ["mcf", "x264"], BASELINE, ["OOO"])
        assert calls == []

    def test_repeated_save_is_idempotent(self, tmp_path):
        """Storing one key twice (a re-delivered farm point) leaves one
        file holding an equal result."""
        cache = os.path.join(str(tmp_path), "cache")
        r = ExperimentRunner(instructions=800, warmup=300, cache_dir=cache)
        result = r.run_matrix(["mcf"], BASELINE, ["OOO"])["OOO"]["mcf"]
        ((key, path),) = _entries(cache).items()
        with open(path) as f:
            first = json.load(f)
        r._store(key, result)
        r._store(key, result)
        assert _entries(cache) == {key: path}
        with open(path) as f:
            again = json.load(f)
        assert again["result"] == first["result"] == result.to_dict()


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
        cache = str(tmp_path / "cache")
        save_trace(get_workload("x264").build_trace(), trace, limit=1500)
        first = ExperimentRunner(600, 200, cache_dir=cache).run_matrix(
            [name], BASELINE, ["OOO"])["OOO"][name]
        save_trace(get_workload("mcf").build_trace(), trace, limit=1500)
        second = ExperimentRunner(600, 200, cache_dir=cache).run_matrix(
            [name], BASELINE, ["OOO"])["OOO"][name]
        assert second == simulate(name, BASELINE, "OOO", instructions=600,
                                  warmup=200)
        assert second != first
        assert len(_entries(cache)) == 2

    def test_duplicate_labels_rejected(self):
        mcf, mcf3 = self._mcf_pair()
        r = ExperimentRunner(instructions=600, warmup=200)
        with pytest.raises(ValueError, match="share the label 'mcf'") as e:
            r.run_matrix([mcf, "x264", mcf3], BASELINE, ["OOO"])
        assert f"seed={mcf.seed}" in str(e.value)
        assert f"seed={mcf3.seed}" in str(e.value)
        assert r._cache == {}
