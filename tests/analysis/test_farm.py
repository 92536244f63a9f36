"""Crash semantics of the simulation farm scheduler.

The tier-1 tests here inject real SIGKILLs into real worker processes
(through :mod:`tests.analysis.point_faults`) and assert the scheduler's
contract: every surviving point completes and persists, the ledger
still audits clean, and results are bit-identical to the serial path.
"""

import os

import pytest

from repro.analysis.experiments import ExperimentRunner
from repro.analysis.farm import MAX_RETRIES, FarmScheduler
from repro.common.params import BASELINE
from repro.obs.ledger import check_complete, read_ledger, summarize
from tests.analysis.point_faults import kill_at, kill_once

WLS = ["mcf", "x264"]
POLS = ["OOO", "RAR"]
N, W = 800, 300


def _matrix(tmp_path, *, jobs=2, ledger_name=None, cache=False, **kw):
    runner = ExperimentRunner(
        instructions=N, warmup=W,
        cache_dir=os.path.join(str(tmp_path), "cache") if cache else None)
    ledger = (os.path.join(str(tmp_path), ledger_name)
              if ledger_name else None)
    out = runner.run_matrix(WLS, BASELINE, POLS, jobs=jobs,
                            ledger=ledger, **kw)
    return runner, out, ledger


class TestCrashRequeue:
    def test_sigkilled_worker_work_is_requeued_and_completes(
            self, tmp_path, monkeypatch):
        token = os.path.join(str(tmp_path), "crash.token")
        with open(token, "w"):
            pass
        kill_once(monkeypatch, token)
        _, out, ledger = _matrix(tmp_path, ledger_name="led.jsonl",
                                 cache=True)
        # the injected death cost nothing: every point completed
        assert out.ok
        assert {p: sorted(out[p]) for p in POLS} == {
            p: sorted(WLS) for p in POLS}
        assert not os.path.exists(token)  # the token was consumed
        events = read_ledger(ledger)
        st = summarize(events)
        assert st.worker_deaths >= 1
        assert st.requeued >= 1
        assert check_complete(events) == []  # exactly-one-terminal holds
        # ...and each completed point reached its own cache entry
        entries = os.listdir(os.path.join(str(tmp_path), "cache"))
        assert len([e for e in entries if e.endswith(".json")]) \
            == len(WLS) * len(POLS)

    def test_crashed_points_match_serial_results(self, tmp_path,
                                                 monkeypatch):
        serial = ExperimentRunner(instructions=N, warmup=W)
        a = serial.run_matrix(WLS, BASELINE, POLS)
        token = os.path.join(str(tmp_path), "crash.token")
        with open(token, "w"):
            pass
        kill_once(monkeypatch, token)
        _, b, _ = _matrix(tmp_path)
        for p in POLS:
            for w in WLS:
                assert a[p][w] == b[p][w]


class TestQuarantine:
    def test_poison_point_is_quarantined_not_fatal(self, tmp_path,
                                                   monkeypatch):
        kill_at(monkeypatch, "x264", "RAR")
        _, out, ledger = _matrix(tmp_path, ledger_name="led.jsonl")
        assert len(out.failures) == 1
        f = out.failures[0]
        assert (f["workload"], f["policy"]) == ("x264", "RAR")
        assert f["quarantined"] is True
        assert "quarantined" in f["error"]
        # every sibling of the poison point still completed
        assert sorted(out["RAR"]) == ["mcf"]
        assert sorted(out["OOO"]) == sorted(WLS)
        events = read_ledger(ledger)
        st = summarize(events)
        assert st.quarantined == 1
        # the retry budget was actually spent before giving up
        assert st.worker_deaths == MAX_RETRIES + 1
        assert check_complete(events) == []
        quarantines = [e for e in events
                       if e["ev"] == "point_quarantined"]
        assert len(quarantines) == 1
        assert quarantines[0]["policy"] == "RAR"
        with pytest.raises(RuntimeError, match="x264/RAR"):
            out.raise_if_failed()


class TestFarmEqualsSerial:
    def test_small_grid_bit_identical(self, tmp_path):
        serial = ExperimentRunner(instructions=N, warmup=W)
        a = serial.run_matrix(WLS, BASELINE, POLS)
        _, b, _ = _matrix(tmp_path, jobs=3)
        for p in POLS:
            for w in WLS:
                assert a[p][w] == b[p][w]

    def test_shared_warmup_grid_bit_identical(self, tmp_path):
        serial = ExperimentRunner(instructions=N, warmup=W)
        a = serial.run_matrix(WLS, BASELINE, POLS, share_warmup=True)
        _, b, _ = _matrix(tmp_path, share_warmup=True)
        for p in POLS:
            for w in WLS:
                assert a[p][w] == b[p][w]


class TestTaskGranularity:
    def test_one_workload_fans_out_per_point(self, tmp_path):
        """Without a shared warmup every point is its own farm task, so
        a one-workload sweep still runs on every worker."""
        ledger = str(tmp_path / "led.jsonl")
        out = ExperimentRunner(instructions=N, warmup=W).run_matrix(
            ["mcf"], BASELINE, POLS, jobs=2, ledger=ledger)
        assert out.ok
        done = [e for e in read_ledger(ledger) if e["ev"] == "point_done"]
        assert len(done) == 2
        assert len({e["pid"] for e in done} - {os.getpid()}) == 2

    def test_shared_warmup_is_one_task_per_workload(self, tmp_path):
        from repro.checkpoint import process_checkpoint_cache
        process_checkpoint_cache().clear()  # workers inherit its entries
        ledger = str(tmp_path / "led.jsonl")
        out = ExperimentRunner(instructions=N, warmup=W).run_matrix(
            ["mcf"], BASELINE, POLS, jobs=2, share_warmup=True,
            ledger=ledger)
        assert out.ok
        events = read_ledger(ledger)
        assert len([e for e in events if e["ev"] == "warmup_shared"]) == 1
        assert len({e["pid"] for e in events
                    if e["ev"] == "point_done"}) == 1


class TestCommitDigest:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_digest_equals_fork_digest(self, jobs):
        """The sweep's oracle rides through the warmup, yet its digest
        covers only the measured window: it equals the digest of an
        oracle attached to a warm checkpoint's fork."""
        from repro.checkpoint import warm_checkpoint
        from repro.sim import measure
        pols = ["OOO", "FLUSH", "RAR"]
        out = ExperimentRunner(instructions=N, warmup=W).run_matrix(
            ["mcf"], BASELINE, pols, jobs=jobs, oracle=True)
        assert sorted(out.commit_digests) == [(p, "mcf") for p in sorted(pols)]
        for p in pols:
            core = warm_checkpoint("mcf", BASELINE, p, warmup=W).fork(
                oracle=True)
            assert measure(core, N, "mcf") == out[p]["mcf"]
            assert out.commit_digests[(p, "mcf")] == core.oracle.digest()

    def test_digest_rides_the_point_done_event(self, tmp_path):
        ledger = str(tmp_path / "led.jsonl")
        out = ExperimentRunner(instructions=N, warmup=W).run_matrix(
            ["mcf"], BASELINE, ["RAR"], oracle=True, ledger=ledger)
        (done,) = [e for e in read_ledger(ledger) if e["ev"] == "point_done"]
        assert done["commit_digest"] == out.commit_digests[("RAR", "mcf")]


class TestScheduler:
    def test_run_on_empty_task_list(self):
        delivered = []
        with FarmScheduler(1) as scheduler:
            assert scheduler.run([], on_point=delivered.append) is None
            assert scheduler._workers == []
        assert delivered == []
