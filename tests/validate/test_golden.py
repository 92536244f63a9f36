"""Golden conformance fingerprints: canonical hashing, the grid table,
the frozen file, freeze/check round-trip, drift and malformed-file
detection, the fork leg, and (slow tier) the full frozen grid."""

import json
import os
import shutil

import pytest

from repro import checkpoint
from repro.cli import main
from repro.common.params import BASELINE
from repro.obs.ledger import check_complete, read_ledger
from repro.validate import golden
from repro.validate.golden import (
    GOLDEN_FILE,
    GOLDEN_POLICIES,
    GOLDEN_ROWS,
    GOLDEN_SCHEMA,
    canonical_fingerprint,
    check,
    regen,
)
from tests.validate.fork_fault import leave_predictor_cold

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "golden")

#: The rows that run mcf on each machine; the scenario rows (trace
#: fixtures and phased workloads) are tested in test_golden_scenarios.py.
MACHINE_ROWS = [r for r in GOLDEN_ROWS if GOLDEN_ROWS[r][0] == "mcf"]


def _load(directory):
    with open(os.path.join(directory, GOLDEN_FILE)) as f:
        return json.load(f)


def _dump(directory, payload):
    with open(os.path.join(directory, GOLDEN_FILE), "w") as f:
        json.dump(payload, f)


class TestCanonicalFingerprint:
    def test_key_order_independent(self):
        a = canonical_fingerprint({"x": 1, "y": [1, 2], "z": {"a": 0.5}})
        b = canonical_fingerprint({"z": {"a": 0.5}, "y": [1, 2], "x": 1})
        assert a == b
        assert len(a) == 64

    def test_value_sensitive(self):
        base = {"result": {"ipc": 0.5, "cycles": 100}, "digest": "aa"}
        drifted = {"result": {"ipc": 0.5, "cycles": 101}, "digest": "aa"}
        assert canonical_fingerprint(base) != canonical_fingerprint(drifted)

    def test_list_order_sensitive(self):
        assert (canonical_fingerprint([1, 2])
                != canonical_fingerprint([2, 1]))


class TestFrozenFiles:
    """The checked-in fingerprints are well-formed without re-measuring."""

    def test_all_machines_frozen(self):
        payload = _load(GOLDEN_DIR)
        assert payload["schema"] == GOLDEN_SCHEMA
        assert list(payload["rows"]) == list(GOLDEN_ROWS)

    @pytest.mark.parametrize("row", MACHINE_ROWS)
    def test_file_shape(self, row):
        frozen = _load(GOLDEN_DIR)["rows"][row]
        workload, machine, instructions, warmup = GOLDEN_ROWS[row]
        assert frozen["workload"] == workload
        assert frozen["machine"] == machine.name
        assert (frozen["instructions"], frozen["warmup"]) \
            == (instructions, warmup)
        assert list(frozen["points"]) == list(GOLDEN_POLICIES)
        for entry in frozen["points"].values():
            assert len(entry["fingerprint"]) == 64
            assert len(entry["commit_digest"]) == 64
            assert entry["cycles"] > 0

    def test_point_grid(self):
        assert len(GOLDEN_ROWS) * len(GOLDEN_POLICIES) == 45
        assert MACHINE_ROWS == [
            "baseline", "core-1", "core-2", "core-3", "core-4"]


def _truncate(path):
    with open(path) as f:
        text = f.read()
    with open(path, "w") as f:
        f.write(text[:len(text) // 2])


def _write(text):
    """A tamper step that replaces the whole file with ``text``."""
    def tamper(path):
        with open(path, "w") as f:
            f.write(text)
    return tamper


def _edit(change):
    """A tamper step that changes the parsed frozen file in place."""
    def tamper(path):
        with open(path) as f:
            payload = json.load(f)
        change(payload)
        with open(path, "w") as f:
            json.dump(payload, f)
    return tamper


#: case -> (tamper step, what the problem line must say).
_MALFORMED = {
    "truncated": (_truncate, " column "),
    "not JSON": (_write("not json {"), "Expecting value"),
    "top level a list": (_write("[]"),
                         "the top level is a list, not an object"),
    "row a string": (_edit(lambda p: p["rows"].update(baseline="mcf")),
                     "row 'baseline' is a str, not an object"),
    "point a string": (
        _edit(lambda p: p["rows"]["core-2"]["points"].update(RAR="0" * 64)),
        "point core-2/RAR is a str, not an object"),
    "no fingerprint": (
        _edit(lambda p: p["rows"]["fixture:gem5"]["points"]["OOO"].pop(
            "fingerprint")),
        "point fixture:gem5/OOO has no 'fingerprint'"),
    "no instructions": (
        _edit(lambda p: p["rows"]["core-4"].pop("instructions")),
        "row 'core-4' has no 'instructions'"),
    "no points": (_edit(lambda p: p["rows"]["ph-burst-mpki"].pop("points")),
                  "row 'ph-burst-mpki' has no 'points'"),
    "missing row": (_edit(lambda p: p["rows"].pop("core-1")),
                    "rows missing ['core-1'], rows not in the table []"),
    "extra row": (_edit(lambda p: p["rows"].update(
        extra=p["rows"]["baseline"])),
        "rows missing [], rows not in the table ['extra']"),
}


class TestMalformedFile:
    """A corrupt frozen file is one problem naming it, and
    ``golden --check`` exits 1 — before anything is measured."""

    @pytest.mark.parametrize("case", list(_MALFORMED))
    def test_malformed_file_named(self, case, tmp_path, capsys,
                                  monkeypatch):
        directory = str(tmp_path)
        path = os.path.join(directory, GOLDEN_FILE)
        shutil.copy(os.path.join(GOLDEN_DIR, GOLDEN_FILE), path)
        tamper, says = _MALFORMED[case]
        tamper(path)
        measured = []
        monkeypatch.setattr(golden, "_measure",
                            lambda *a: measured.append(a) or ({}, []))
        (problem,) = check(directory)
        assert problem.startswith(f"{path}: malformed golden file: ")
        assert says in problem
        assert main(["golden", "--check", "--dir", directory]) == 1
        out = capsys.readouterr().out
        assert f"golden check FAILED (1 mismatch(es)):\n  {path}: " in out
        assert not measured


class TestRoundTrip:
    """Freeze → check → tamper → detect, on a reduced grid (one machine
    row, two policies) so the whole cycle stays tier-1 fast."""

    ROWS = {"baseline": ("mcf", BASELINE, 400, 300)}

    @pytest.fixture()
    def small_grid(self, monkeypatch, tmp_path):
        monkeypatch.setattr(golden, "GOLDEN_ROWS", dict(self.ROWS))
        monkeypatch.setattr(golden, "GOLDEN_POLICIES", ("OOO", "RAR"))
        directory = str(tmp_path / "golden")
        regen(directory)
        return directory

    def test_regen_then_check_ok(self, small_grid):
        assert check(small_grid) == []

    def test_check_is_stable_across_runs(self, small_grid):
        assert check(small_grid) == []
        assert check(small_grid) == []  # second run, same verdict

    def test_fingerprint_drift_detected(self, small_grid):
        payload = _load(small_grid)
        payload["rows"]["baseline"]["points"]["RAR"]["fingerprint"] = "0" * 64
        _dump(small_grid, payload)
        problems = check(small_grid)
        assert len(problems) == 1
        assert "baseline/RAR" in problems[0]

    def test_digest_drift_reported(self, small_grid):
        payload = _load(small_grid)
        entry = payload["rows"]["baseline"]["points"]["OOO"]
        entry["fingerprint"] = "0" * 64
        entry["commit_digest"] = "f" * 64
        _dump(small_grid, payload)
        (problem,) = check(small_grid)
        assert "commit digest also drifted" in problem

    def test_missing_file_detected(self, small_grid):
        os.remove(os.path.join(small_grid, GOLDEN_FILE))
        (problem,) = check(small_grid)
        assert "missing golden file" in problem

    def test_stale_schema_detected(self, small_grid):
        payload = _load(small_grid)
        payload["schema"] = GOLDEN_SCHEMA + 1
        _dump(small_grid, payload)
        (problem,) = check(small_grid)
        assert "schema" in problem

    def test_row_frozen_at_other_sizes_named(self, small_grid, monkeypatch):
        """The table is the one source of run sizes: a row frozen at
        others is named, and not measured."""
        monkeypatch.setitem(golden.GOLDEN_ROWS, "baseline",
                            ("mcf", BASELINE, 999, 111))
        measured = []
        monkeypatch.setattr(golden, "_measure",
                            lambda rows, *a: measured.append(list(rows))
                            or ({}, []))
        (problem,) = check(small_grid)
        assert problem.startswith(
            "baseline: frozen as mcf on baseline at 400/300, "
            "the table says mcf on baseline at 999/111")
        assert measured == [[]]

    def test_fork_fault_named_once_per_point(self, small_grid, monkeypatch):
        """A fault only a checkpoint fork sees is caught by the fork leg:
        one line per point, naming it, while the cold leg still matches
        the frozen file."""
        leave_predictor_cold(monkeypatch)
        problems = check(small_grid)
        assert [p.split(": ")[0] for p in problems] == [
            "baseline/OOO", "baseline/RAR"]
        for line in problems:
            assert ": fork diverges from the cold run in " in line
            assert "branch_mispredicts" in line
            assert "commit digest " in line

    def test_regen_writes_nothing_while_forks_diverge(self, monkeypatch,
                                                      tmp_path):
        monkeypatch.setattr(golden, "GOLDEN_ROWS", dict(self.ROWS))
        monkeypatch.setattr(golden, "GOLDEN_POLICIES", ("RAR",))
        leave_predictor_cold(monkeypatch)
        directory = tmp_path / "golden"
        with pytest.raises(RuntimeError, match="baseline/RAR: fork"):
            regen(str(directory))
        assert not directory.exists()

    def test_fork_leg_forks_every_point(self, small_grid, monkeypatch,
                                        tmp_path):
        """The ledger shows one shared warmup per point and no cached
        point: the fork leg really forked, rather than being served the
        cold leg's result."""
        # A fresh process checkpoint cache: the fixture's regen already
        # warmed these checkpoints, and a hit records no warmup.
        monkeypatch.setattr(checkpoint, "_PROCESS_CACHE", None)
        path = str(tmp_path / "g.jsonl")
        assert check(small_grid, ledger=path) == []
        events = read_ledger(path)
        shared = [(e["workload"], e["policy"]) for e in events
                  if e["ev"] == "warmup_shared"]
        assert shared == [("mcf", "OOO"), ("mcf", "RAR")]
        assert not [e for e in events if e["ev"] == "point_cached"]
        assert check_complete(events) == []


@pytest.mark.slow
class TestFullMatrix:
    """The real frozen 45-point grid, serially and on the farm."""

    def test_frozen_matrix_conformant_serial(self):
        assert check(GOLDEN_DIR, jobs=1) == []

    def test_frozen_matrix_conformant_parallel(self):
        assert check(GOLDEN_DIR, jobs=4) == []
