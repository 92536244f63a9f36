"""Differential harness: payload diffing, timeline bisection, verdicts."""

from repro.common.params import BASELINE
from repro.validate import diff as diffmod
from repro.validate.diff import (
    DiffReport,
    Divergence,
    FieldDiff,
    _bisect_timeline,
    _diff_payloads,
    _flatten,
    differential_check,
)


class TestPayloadDiff:
    def test_flatten_nests_dotted(self):
        flat = _flatten({"a": 1, "abc": {"rob": 2, "iq": 3}})
        assert flat == {"a": 1, "abc.rob": 2, "abc.iq": 3}

    def test_identical_payloads_no_diffs(self):
        p = {"ipc": 0.5, "abc": {"rob": 10}}
        assert _diff_payloads(p, dict(p)) == []

    def test_nested_field_difference(self):
        a = {"ipc": 0.5, "abc": {"rob": 10, "iq": 4}}
        b = {"ipc": 0.5, "abc": {"rob": 11, "iq": 4}}
        diffs = _diff_payloads(a, b)
        assert diffs == [FieldDiff(field="abc.rob", ref=10, other=11)]

    def test_missing_key_reported(self):
        diffs = _diff_payloads({"x": 1, "y": 2}, {"x": 1})
        assert diffs == [FieldDiff(field="y", ref=2, other="<missing>")]

    def test_type_drift_reported(self):
        # 1 == 1.0 in Python; a serialisation type change is still a diff.
        diffs = _diff_payloads({"cycles": 1}, {"cycles": 1.0})
        assert len(diffs) == 1 and diffs[0].field == "cycles"

    def test_float_ulp_is_a_divergence(self):
        a, b = 0.1 + 0.2, 0.3  # differ by one ULP
        assert _diff_payloads({"ipc": a}, {"ipc": b})


class TestBisection:
    def test_first_differing_row(self):
        ref = [{"cycle": 500, "ipc": 1.0}, {"cycle": 1000, "ipc": 0.8},
               {"cycle": 1500, "ipc": 0.7}]
        other = [{"cycle": 500, "ipc": 1.0}, {"cycle": 1000, "ipc": 0.9},
                 {"cycle": 1500, "ipc": 0.1}]
        hit = _bisect_timeline(ref, other)
        assert hit == {"cycle": 1000, "fields": {"ipc": [0.8, 0.9]}}

    def test_row_count_mismatch(self):
        ref = [{"cycle": 500, "ipc": 1.0}]
        other = [{"cycle": 500, "ipc": 1.0}, {"cycle": 1000, "ipc": 0.9}]
        hit = _bisect_timeline(ref, other)
        assert hit["fields"] == {"<row-count>": [1, 2]}

    def test_identical_or_absent_timelines(self):
        rows = [{"cycle": 500, "ipc": 1.0}]
        assert _bisect_timeline(rows, list(rows)) is None
        assert _bisect_timeline(None, rows) is None
        assert _bisect_timeline(rows, []) is None


class TestHarness:
    def test_facade_vs_fork_identical(self):
        report = differential_check(
            "libquantum", BASELINE, "PRE", instructions=1200, warmup=400)
        assert report.identical
        assert report.divergences == []
        assert set(report.results) == {"facade", "fork"}
        assert "bit-identical" in report.summary()

    def test_sanitized_diff(self):
        report = differential_check(
            "libquantum", BASELINE, "RAR", instructions=800, warmup=200,
            validate=True)
        assert report.identical

    def test_report_round_trips_to_json(self):
        import json
        report = differential_check(
            "x264", BASELINE, "OOO", instructions=600, warmup=200)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["identical"] is True
        assert payload["paths"] == ["facade", "fork"]

    def test_divergence_detected_and_bisected(self, monkeypatch):
        """A seeded fake divergence must be caught, diffed field-by-field
        and bisected to its first divergent timeline interval."""
        def fake_run_point(path, *args, interval=0):
            ipc = 0.5 if path == "facade" else 0.25
            payload = {"result": {"workload": "mcf", "ipc": ipc,
                                  "abc": {"rob": 10 if path == "facade"
                                          else 12}},
                       "timeline": None}
            if interval:
                payload["timeline"] = [
                    {"cycle": 500, "ipc": 0.5},
                    {"cycle": 1000, "ipc": ipc},
                ]
            return payload

        monkeypatch.setattr(diffmod, "_run_point", fake_run_point)
        report = differential_check(
            "mcf", BASELINE, "RAR", instructions=1000, warmup=0,
            bisect_interval=500)
        assert not report.identical
        (div,) = report.divergences
        assert div.ref_path == "facade" and div.other_path == "fork"
        fields = {f.field: (f.ref, f.other) for f in div.fields}
        assert fields["ipc"] == (0.5, 0.25)
        assert fields["abc.rob"] == (10, 12)
        assert div.first_interval == {"cycle": 1000,
                                      "fields": {"ipc": [0.5, 0.25]}}
        assert "DIVERGED" in report.summary()
        assert "cycle 1000" in report.summary()

    def test_divergence_without_bisection(self, monkeypatch):
        def fake_run_point(path, *args, interval=0):
            return {"result": {"ipc": 0.5 if path == "facade" else 0.6},
                    "timeline": None}

        monkeypatch.setattr(diffmod, "_run_point", fake_run_point)
        report = differential_check(
            "mcf", BASELINE, "RAR",
            bisect_interval=0)
        assert not report.identical
        assert report.divergences[0].first_interval is None


class TestReportTypes:
    def test_divergence_to_dict(self):
        d = Divergence(ref_path="facade", other_path="fork",
                       fields=[FieldDiff("ipc", 1, 2)],
                       first_interval={"cycle": 5, "fields": {}})
        payload = d.to_dict()
        assert payload["fields"] == [{"field": "ipc", "ref": 1, "other": 2}]
        assert payload["first_interval"]["cycle"] == 5

    def test_report_identical_property(self):
        r = DiffReport(workload="w", machine="m", policy="p",
                       instructions=1, warmup=0, seed=None)
        assert r.identical
        r.divergences.append(Divergence("facade", "fork", []))
        assert not r.identical
