"""Provenance manifests: git probe, host and per-point records."""

from repro.common.params import BASELINE
from repro.obs import manifest
from repro.obs.manifest import MANIFEST_SCHEMA, git_state, host_manifest, \
    point_manifest


class TestGitState:
    def test_repo_probe(self):
        state = git_state()
        # This test runs from a git checkout; outside one both fields
        # degrade to None (covered below), never raise.
        if state["sha"] is not None:
            assert len(state["sha"]) == 40
            assert isinstance(state["dirty"], bool)

    def test_cached_after_first_probe(self):
        first = git_state()
        assert git_state() is first

    def test_non_repo_degrades_to_none(self, tmp_path):
        state = git_state(cwd=str(tmp_path))
        assert state == {"sha": None, "dirty": None}

    def test_explicit_cwd_not_cached(self, tmp_path):
        cached = git_state()
        assert git_state(cwd=str(tmp_path)) is not cached
        assert git_state() is cached


class TestHostManifest:
    def test_fields(self):
        mani = host_manifest()
        assert mani["schema"] == MANIFEST_SCHEMA
        from repro import __version__
        assert mani["repro_version"] == __version__
        for key in ("timestamp", "git_sha", "git_dirty", "python",
                    "platform", "hostname", "pid", "argv"):
            assert key in mani
        assert isinstance(mani["argv"], list)

    def test_extra_fields_merge(self):
        mani = host_manifest(extra={"point": {"workload": "mcf"}})
        assert mani["point"] == {"workload": "mcf"}

    def test_json_serialisable(self):
        import json
        json.dumps(host_manifest())


def _wl(name, **changes):
    from dataclasses import replace
    from repro.workloads.catalog import get_workload
    return replace(get_workload(name), **changes)


class TestPointManifest:
    def test_machine_params_digested(self):
        from repro.analysis.experiments import RunKey, workload_digest
        mcf = _wl("mcf", seed=3)
        mani = point_manifest(mcf, BASELINE, "RAR", 1000, 500,
                              variant="sw:OOO")
        assert mani["workload"] == "mcf"
        assert mani["machine"] == BASELINE.name
        assert mani["policy"] == "RAR"
        assert mani["instructions"] == 1000 and mani["warmup"] == 500
        assert mani["seed"] == 3 and mani["variant"] == "sw:OOO"
        assert mani["workload_digest"] == workload_digest(mcf)
        assert mani["params_digest"] == RunKey.digest(BASELINE)
        assert "git_sha" in mani and "git_dirty" in mani

    def test_machine_name_string_accepted(self):
        mani = point_manifest(_wl("mcf"), "baseline", "OOO", 100, 50)
        assert mani["machine"] == "baseline"
        assert mani["params_digest"] == ""

    def test_distinct_machines_distinct_digests(self):
        from repro.common.params import CORE4
        a = point_manifest(_wl("mcf"), BASELINE, "OOO", 100, 50)
        b = point_manifest(_wl("mcf"), CORE4, "OOO", 100, 50)
        assert a["params_digest"] != b["params_digest"]

    def test_reseeded_workload_recorded(self, tmp_path):
        """Sweeps of catalog mcf and of mcf at another seed record
        different point manifests: the seed and the workload digest are
        the measured workload's, not the catalog name's."""
        from repro.analysis.experiments import ExperimentRunner
        from repro.obs.ledger import read_ledger
        catalog = _wl("mcf")
        manifests = []
        for spec in (catalog, _wl("mcf", seed=catalog.seed + 3)):
            path = str(tmp_path / f"{spec.seed}.jsonl")
            ExperimentRunner(200, 100).run_matrix(
                [spec], BASELINE, ["OOO"], ledger=path)
            (done,) = [e for e in read_ledger(path)
                       if e["ev"] == "point_done"]
            manifests.append(done["manifest"])
        a, b = manifests
        assert a["workload"] == b["workload"] == "mcf"
        assert (a["seed"], b["seed"]) == (catalog.seed, catalog.seed + 3)
        assert a["workload_digest"] != b["workload_digest"]

    def test_phased_workload_provenance(self):
        mani = point_manifest(_wl("ph-burst-mpki"), BASELINE, "OOO", 100, 50)
        assert mani["phase_count"] == 2
        assert mani["phase_schedule_iters"] > 0

    def test_trace_workload_provenance(self, tmp_path):
        from repro.isa.tracefile import save_trace
        from repro.workloads.catalog import get_workload
        path = str(tmp_path / "m.trace")
        save_trace(get_workload("x264").build_trace(), path, limit=50)
        mani = point_manifest(get_workload(f"trace:{path}"), BASELINE,
                              "OOO", 100, 50)
        assert mani["trace_file"] == path
        assert len(mani["trace_sha256"]) == 64
        assert mani["trace_format_version"] == 2
        assert mani["seed"] is None

    def test_stationary_workload_has_no_extra_provenance(self):
        mani = point_manifest(_wl("mcf"), BASELINE, "OOO", 100, 50)
        assert "phase_count" not in mani
        assert "trace_file" not in mani


class TestCacheIsolation:
    def test_module_cache_is_resettable(self, monkeypatch):
        monkeypatch.setattr(manifest, "_git_state", None)
        state = git_state()
        assert state is manifest._git_state
