"""End-to-end telemetry: attach, sample, trace, profile, reconcile."""

import json

import pytest

from repro import BASELINE, RAR, Telemetry, simulate
from repro.obs import flatten_tree, render_report, validate_chrome_trace


@pytest.fixture(scope="module")
def traced_run():
    tele = Telemetry(interval=200, trace=True, profile=True)
    result = simulate("mcf", BASELINE, RAR, instructions=3000, warmup=1500,
                      telemetry=tele)
    return tele, result


class TestReconciliation:
    def test_registry_deltas_match_result(self, traced_run):
        tele, r = traced_run
        flat = flatten_tree(tele.registry.dump())
        assert flat["core.commit.committed"] == r.instructions
        assert flat["core.clock.cycles"] == r.cycles
        assert flat["ace.total"] == r.abc_total
        assert flat["core.runahead.triggers"] == r.runahead_triggers
        assert flat["ace.head_blocked.bits"] == r.abc_head_blocked
        assert flat["core.ipc"] == pytest.approx(r.ipc)
        assert flat["ace.avf"] == pytest.approx(r.avf)
        for s, v in r.abc.items():
            assert flat[f"ace.{s}.bits"] == v

    def test_stats_dict_sections(self, traced_run):
        tele, r = traced_run
        d = tele.stats_dict(r)
        assert d["schema"] == "repro-stats-v1"
        assert d["result"]["instructions"] == r.instructions
        assert "stats" in d and "timeline" in d and "trace_summary" in d
        assert d["host_profile"]["instructions"] == r.instructions
        assert d["host_profile"]["kips"] > 0

    def test_stats_json_serialisable(self, traced_run, tmp_path):
        tele, r = traced_run
        path = str(tmp_path / "s.json")
        tele.write_stats(path, r)
        with open(path) as f:
            obj = json.load(f)
        assert obj["result"]["policy"] == "RAR"
        assert render_report(obj)  # renders without raising


class TestTimeline:
    def test_samples_cover_measured_window(self, traced_run):
        tele, r = traced_run
        rows = tele.sampler.rows
        assert len(rows) >= r.cycles // 200 - 1
        cycles = [row["cycle"] for row in rows]
        assert cycles == sorted(cycles)
        assert all(c % 200 == 0 for c in cycles)

    def test_sample_fields(self, traced_run):
        tele, _ = traced_run
        row = tele.sampler.rows[0]
        for key in ("cycle", "committed", "ipc", "rob_occ", "iq_occ",
                    "lq_occ", "sq_occ", "outstanding_misses", "mode",
                    "runahead_frac", "abc_rate"):
            assert key in row
        assert row["mode"] in ("NORMAL", "RUNAHEAD", "FLUSH_STALL")
        assert 0.0 <= row["runahead_frac"] <= 1.0

    def test_runahead_visible_in_timeline(self, traced_run):
        tele, r = traced_run
        assert r.runahead_cycles > 0
        assert any(row["runahead_frac"] > 0 for row in tele.sampler.rows)

    def test_jsonl_and_csv_export(self, traced_run, tmp_path):
        tele, _ = traced_run
        jpath, cpath = str(tmp_path / "t.jsonl"), str(tmp_path / "t.csv")
        n = tele.write_timeline(jpath)
        assert n == len(tele.sampler.rows)
        with open(jpath) as f:
            lines = [json.loads(line) for line in f]
        assert len(lines) == n
        assert tele.sampler.to_csv(cpath) == n
        with open(cpath) as f:
            header = f.readline().strip().split(",")
        assert "rob_occ" in header and "mode" in header

    def test_occupancy_distributions_recorded(self, traced_run):
        tele, _ = traced_run
        rob = tele.registry.get("core.rob.occupancy")
        assert rob.count == len(tele.sampler.rows)
        assert 0 <= rob.mean <= BASELINE.core.rob_size

    def test_stationary_workload_phase_is_zero(self, traced_run):
        tele, _ = traced_run
        assert all(row["phase"] == 0 for row in tele.sampler.rows)

    def test_phased_workload_phase_column(self):
        tele = Telemetry(interval=200)
        simulate("ph-swap-chase-stream", BASELINE, RAR,
                 instructions=4000, warmup=500, telemetry=tele)
        phases = {row["phase"] for row in tele.sampler.rows}
        assert phases >= {0, 1}  # the timeline sees the segment swaps


class TestTrace:
    def test_chrome_trace_valid(self, traced_run, tmp_path):
        tele, _ = traced_run
        path = str(tmp_path / "trace.json")
        tele.write_trace(path)
        with open(path) as f:
            obj = json.load(f)
        assert validate_chrome_trace(obj) is None

    def test_runahead_spans_match_triggers(self, traced_run):
        tele, r = traced_run
        counts = tele.tracer.summary()
        # The ring buffer may have dropped early events; never over-counts.
        assert 0 < counts.get("runahead", 0) <= r.runahead_triggers + 1
        assert counts.get("llc_miss", 0) > 0

    def test_miss_latency_distribution(self, traced_run):
        tele, _ = traced_run
        lat = tele.registry.get("mem.llc.miss_latency")
        assert lat.count > 0
        assert lat.min > 0  # a DRAM round-trip is never instantaneous


class TestDisabledTelemetryIsInert:
    @pytest.mark.parametrize("validate", [False, True])
    @pytest.mark.parametrize("policy", ["OOO", "FLUSH", "PRE", "RAR"])
    def test_results_identical_with_and_without(self, policy, validate):
        """Attaching telemetry changes nothing, with or without the
        sanitizer, under every mechanism (each fires on mcf here)."""
        plain = simulate("mcf", BASELINE, policy, instructions=600,
                         warmup=300, validate=validate)
        tele = Telemetry(interval=100, trace=True)
        traced = simulate("mcf", BASELINE, policy, instructions=600,
                          warmup=300, telemetry=tele, validate=validate)
        assert plain == traced
        assert (plain.runahead_triggers + plain.flush_triggers > 0) \
            == (policy != "OOO")

    def test_core_without_telemetry_has_registry(self):
        from repro.core.core import OutOfOrderCore
        from repro.workloads.catalog import get_workload
        core = OutOfOrderCore(BASELINE, get_workload("x264").build_trace())
        assert core.telemetry is None
        assert "core.commit.committed" in core.registry


class TestProfiler:
    def test_stage_shares(self):
        tele = Telemetry(profile_stages=True)
        simulate("x264", BASELINE, "OOO", instructions=400, warmup=100,
                 telemetry=tele)
        shares = tele.profiler.stage_shares()
        assert shares
        assert sum(shares.values()) == pytest.approx(1.0)
        assert all(v >= 0 for v in shares.values())

    def test_heartbeat_stream(self):
        import io
        stream = io.StringIO()
        tele = Telemetry(heartbeat_s=1e-9, stream=stream)
        simulate("mcf", BASELINE, "OOO", instructions=2000, warmup=500,
                 telemetry=tele)
        out = stream.getvalue()
        assert "KIPS" in out and "cycle" in out
