"""Stats-report rendering: counters, timelines, manifests, edges."""

from repro.obs.report import _render_timeline, load_stats, render_report


def _timeline(n, interval=100):
    return {"interval": interval,
            "samples": [{"cycle": i * interval, "ipc": 0.5} for i in
                        range(n)]}


class TestTimelineRendering:
    def test_short_timeline_shows_every_sample(self):
        out = _render_timeline(_timeline(5))
        assert "5 samples every 100 cycles" in out
        assert "elided" not in out
        assert out.count("\n") >= 6  # header + table header + 5 rows

    def test_stride_always_includes_last_sample(self):
        # 47 samples, max_rows 20 -> step 2 -> 0,2,...,46: the final
        # sample (cycle 4600) is on-stride here, so use 48: 0,2,...,46
        # misses cycle 4700 unless the tail fix appends it.
        out = _render_timeline(_timeline(48))
        assert "4700" in out  # the last sample's cycle
        assert "showing every 2th + last" in out

    def test_elided_count_is_reported(self):
        # 48 samples, step 2 -> 24 strided + 1 appended tail = 25 shown
        out = _render_timeline(_timeline(48))
        assert "23 rows elided" in out

    def test_on_stride_tail_not_duplicated(self):
        # 41 samples, step 2 -> 0,2,...,40: last sample already shown
        out = _render_timeline(_timeline(41))
        assert out.count("4000") == 1

    def test_empty_timeline(self):
        assert _render_timeline({"samples": []}) == "timeline: no samples"
        assert _render_timeline({}) == "timeline: no samples"


class TestRenderReport:
    def _stats(self):
        return {
            "result": {"workload": "mcf", "machine": "baseline",
                       "policy": "RAR", "instructions": 1000,
                       "cycles": 2000, "ipc": 0.5, "abc_total": 42,
                       "avf": 0.1},
            "stats": {"core": {"commit": {"committed": 1000},
                               "lat": {"kind": "distribution", "count": 3,
                                       "mean": 2.5, "min": 1, "max": 5}}},
            "timeline": _timeline(3),
            "host_profile": {"kips": 8.5, "cycles_per_second": 17000.0,
                             "wall_seconds": 0.118,
                             "stage_shares": {"commit": 0.6,
                                              "fetch": 0.4}},
            "trace_summary": {"emitted": 10, "dropped": 0,
                              "counts": {"runahead_enter": 2}},
            "manifest": {"git_sha": "abcdef0123456789", "git_dirty": True,
                         "repro_version": "1.0.0", "python": "3.11.7",
                         "hostname": "ci", "timestamp": "2026-08-08",
                         "point": {"workload": "mcf", "machine": "baseline",
                                   "policy": "RAR", "instructions": 1000,
                                   "warmup": 500, "params_digest": "d1g3st",
                                   "variant": "sw:OOO"}},
        }

    def test_all_sections_render(self):
        out = render_report(self._stats())
        assert "mcf on baseline under RAR" in out
        assert "core.commit.committed" in out
        assert "distribution" in out and "core.lat" in out
        assert "timeline: 3 samples" in out
        assert "8.5 KIPS" in out
        assert "runahead_enter=2" in out

    def test_manifest_section(self):
        out = render_report(self._stats())
        assert "provenance: git abcdef012345+dirty" in out
        assert "py3.11.7 on ci" in out
        assert "point: mcf/baseline/RAR n=1000 w=500" in out
        assert "params=d1g3st" in out and "variant=sw:OOO" in out

    def test_partial_file_degrades(self):
        out = render_report({"stats": {"core": {"c": 1}}})
        assert "core.c" in out and "timeline" not in out

    def test_empty_file(self):
        assert render_report({}) == "empty stats file"

    def test_load_stats_rejects_non_object(self, tmp_path):
        import json

        import pytest
        path = str(tmp_path / "s.json")
        with open(path, "w") as f:
            json.dump([1, 2], f)
        with pytest.raises(ValueError, match="not a stats object"):
            load_stats(path)

    def test_load_stats_names_a_truncated_file(self, tmp_path):
        import pytest
        path = tmp_path / "s.json"
        path.write_text('{"schema": "repro-stats-v1", "res')
        with pytest.raises(ValueError, match="s.json: not a JSON stats"):
            load_stats(str(path))
