"""Run ledger: typed events, summaries, the terminal-event audit."""

import os

import pytest

from repro.obs.ledger import (
    EVENT_TYPES,
    TERMINAL_EVENTS,
    RunLedger,
    check_complete,
    load_status,
    point_label,
    read_ledger,
    summarize,
)


def _mani(**kw):
    base = {"workload": "mcf", "machine": "baseline", "policy": "RAR",
            "instructions": 500, "warmup": 200, "seed": None,
            "variant": "", "params_digest": "deadbeef00",
            "git_sha": "abc", "git_dirty": False}
    base.update(kw)
    return base


def _sample_events(path):
    """A complete 3-point sweep: 2 run, 1 cached, on one worker."""
    led = RunLedger(path)
    led.sweep_start(total_points=3, manifest={"git_sha": "abc",
                                              "git_dirty": False,
                                              "python": "3.11",
                                              "hostname": "h"},
                    machine="baseline", jobs=1)
    led.point_cached(workload="mcf", machine="baseline", policy="OOO",
                     manifest=_mani(policy="OOO"))
    led.worker_heartbeat(workload="mcf", done=0)
    led.warmup_shared(workload="mcf", machine="baseline", policy="OOO",
                      warmup=200, wall_s=0.5)
    for pol, kips in (("RAR", 10.0), ("TR", 20.0)):
        led.point_start(workload="mcf", machine="baseline", policy=pol)
        led.point_done(workload="mcf", machine="baseline", policy=pol,
                       wall_s=2.0, kips=kips, ipc=0.5,
                       manifest=_mani(policy=pol))
    led.sweep_done(elapsed_s=5.0, points_run=2, points_cached=1)
    return read_ledger(path)


class TestRunLedger:
    def test_round_trip_stamps_ts_and_pid(self, tmp_path):
        path = str(tmp_path / "l.jsonl")
        events = _sample_events(path)
        assert [e["ev"] for e in events] == [
            "sweep_start", "point_cached", "worker_heartbeat",
            "warmup_shared", "point_start", "point_done", "point_start",
            "point_done", "sweep_done"]
        for e in events:
            assert e["ev"] in EVENT_TYPES
            assert e["ts"] > 0 and e["pid"] == os.getpid()

    def test_unknown_event_rejected(self, tmp_path):
        led = RunLedger(str(tmp_path / "l.jsonl"))
        with pytest.raises(ValueError, match="unknown ledger event"):
            led.emit("point_exploded")

    def test_creates_parent_directory(self, tmp_path):
        path = str(tmp_path / "deep" / "nest" / "l.jsonl")
        RunLedger(path).sweep_done(elapsed_s=0.0)
        assert read_ledger(path)[0]["ev"] == "sweep_done"

    def test_point_error_carries_traceback(self, tmp_path):
        path = str(tmp_path / "l.jsonl")
        RunLedger(path).point_error(
            workload="mcf", machine="baseline", policy="RAR",
            error="ValueError('boom')", traceback_text="Traceback ...")
        (e,) = read_ledger(path)
        assert e["error"] == "ValueError('boom')"
        assert e["traceback"].startswith("Traceback")

    def test_point_label(self):
        assert point_label({"workload": "mcf", "machine": "core-1",
                            "policy": "RAR"}) == "mcf/core-1/RAR"
        assert point_label({}) == "?/?/?"


class TestSummarize:
    def test_counts_and_rates(self, tmp_path):
        st = summarize(_sample_events(str(tmp_path / "l.jsonl")))
        assert st.total_points == 3
        assert (st.done, st.cached, st.errors) == (2, 1, 0)
        assert st.terminal == 3 and st.remaining == 0
        assert st.complete
        assert st.cache_hit_rate == pytest.approx(1 / 3)
        assert st.mean_kips == pytest.approx(15.0)
        assert st.point_walls == [2.0, 2.0]
        assert st.warmups == 1

    def test_worker_state_tracks_current_point(self, tmp_path):
        path = str(tmp_path / "l.jsonl")
        led = RunLedger(path)
        led.sweep_start(total_points=2, manifest={})
        led.point_start(workload="mcf", machine="baseline", policy="RAR")
        st = load_status(path)
        (w,) = st.workers.values()
        assert w.current == "mcf/baseline/RAR"
        assert not st.complete and st.remaining == 2
        led.point_done(workload="mcf", machine="baseline", policy="RAR",
                       wall_s=1.0, kips=5.0, manifest={})
        (w,) = load_status(path).workers.values()
        assert w.current == "" and w.points_done == 1

    def test_eta_uses_recent_walls_and_workers(self):
        events = [{"ev": "sweep_start", "ts": 0.0, "pid": 1,
                   "total_points": 10, "manifest": {}}]
        for i in range(4):
            events.append({"ev": "point_done", "ts": float(i + 1),
                           "pid": 1 + i % 2, "workload": "mcf",
                           "machine": "baseline", "policy": "RAR",
                           "wall_s": 2.0, "kips": 8.0})
        st = summarize(events)
        # 6 points remain, mean wall 2.0s, 2 active workers -> 6s
        assert st.eta_s() == pytest.approx(6.0)
        events.append({"ev": "sweep_done", "ts": 9.0, "pid": 1,
                       "elapsed_s": 9.0})
        assert summarize(events).eta_s() is None  # complete: no ETA

    def test_errors_collected(self):
        events = [{"ev": "point_error", "ts": 1.0, "pid": 7,
                   "workload": "mcf", "machine": "core-2", "policy": "PRE",
                   "error": "boom", "traceback": "tb"}]
        st = summarize(events)
        assert st.errors == 1
        assert st.error_points == ["mcf/core-2/PRE"]

    def test_total_defaults_to_terminal_without_sweep_start(self):
        events = [{"ev": "point_done", "ts": 1.0, "pid": 1,
                   "workload": "w", "machine": "m", "policy": "p",
                   "wall_s": 1.0}]
        assert summarize(events).total_points == 1


class TestCheckComplete:
    def test_clean_ledger_passes(self, tmp_path):
        assert check_complete(_sample_events(str(tmp_path / "l.jsonl"))) == []

    def test_duplicate_terminal_event_flagged(self, tmp_path):
        events = _sample_events(str(tmp_path / "l.jsonl"))
        events.append(dict(events[5]))  # second point_done for mcf/RAR
        problems = check_complete(events)
        assert any("2 terminal events" in p for p in problems)

    def test_missing_point_flagged(self, tmp_path):
        events = [e for e in _sample_events(str(tmp_path / "l.jsonl"))
                  if not (e["ev"] == "point_done"
                          and e.get("policy") == "TR")]
        problems = check_complete(events)
        assert any("2 distinct points" in p for p in problems)

    def test_unfinished_sweep_flagged(self, tmp_path):
        events = [e for e in _sample_events(str(tmp_path / "l.jsonl"))
                  if e["ev"] != "sweep_done"]
        assert check_complete(events) == ["no sweep_done event (sweep "
                                          "crashed or still running)"]

    def test_two_sweeps_in_one_ledger_audit_clean(self, tmp_path):
        """Sweeps appending to one ledger (``sweep -m A B --ledger``, or a
        re-run that resumes from the cache): their announced points add
        up, and each sweep is audited on its own, so a later sweep may
        measure a point an earlier one already did."""
        from repro.analysis.experiments import ExperimentRunner
        from repro.common.params import BASELINE, CORE1
        path = str(tmp_path / "l.jsonl")
        runner = ExperimentRunner(instructions=300, warmup=150)
        runner.run_matrix(["x264"], BASELINE, ["OOO", "RAR"], ledger=path)
        runner.run_matrix(["x264", "mcf"], CORE1, ["OOO"], ledger=path)
        runner.run_matrix(["x264"], BASELINE, ["OOO", "RAR"], ledger=path)
        events = read_ledger(path)
        assert check_complete(events) == []
        st = summarize(events)
        assert st.total_points == 6 and st.sweeps == 3 and st.complete

    def test_duplicate_within_one_of_several_sweeps_flagged(self, tmp_path):
        path = str(tmp_path / "l.jsonl")
        led = RunLedger(path)
        for extra in (False, True):
            led.sweep_start(total_points=1, manifest={})
            for _ in range(1 + extra):
                led.point_done(workload="mcf", machine="baseline",
                               policy="OOO", wall_s=1.0, kips=5.0,
                               manifest={})
            led.sweep_done(elapsed_s=1.0, points_run=1)
        assert check_complete(read_ledger(path)) == [
            "sweep 2: mcf/baseline/OOO: 2 terminal events (expected 1)"]

    def test_sweep_without_sweep_done_among_several_flagged(self, tmp_path):
        path = str(tmp_path / "l.jsonl")
        led = RunLedger(path)
        for machine, finish in (("baseline", True), ("core-1", False)):
            led.sweep_start(total_points=1, manifest={}, machine=machine)
            led.point_done(workload="mcf", machine=machine, policy="OOO",
                           wall_s=1.0, kips=5.0, manifest={})
            if finish:
                led.sweep_done(elapsed_s=1.0, points_run=1)
        events = read_ledger(path)
        assert not summarize(events).complete
        assert check_complete(events) == [
            "1 of 2 sweeps have no sweep_done event (crashed or still "
            "running)"]

    def test_terminal_event_names(self):
        assert set(TERMINAL_EVENTS) <= set(EVENT_TYPES)


class TestSchedulerEvents:
    """Farm scheduler events: worker_dead / requeue / quarantine
    (docs/farm.md)."""

    def _crash_events(self, path):
        """A 2-point sweep whose worker dies once mid-sweep."""
        led = RunLedger(path)
        led.sweep_start(total_points=2, manifest={})
        led.point_start(workload="mcf", machine="baseline", policy="OOO")
        led.point_done(workload="mcf", machine="baseline", policy="OOO",
                       wall_s=1.0, kips=5.0, manifest={})
        # the worker (pid stamped on the events above: this process) is
        # found dead; its undelivered point goes back on the queue
        led.worker_dead(dead_pid=os.getpid(), workload="mcf")
        led.point_requeued(workload="mcf", machine="baseline",
                           policy="RAR", attempt=1)
        led.point_start(workload="mcf", machine="baseline", policy="RAR")
        led.point_done(workload="mcf", machine="baseline", policy="RAR",
                       wall_s=1.0, kips=5.0, manifest={})
        led.sweep_done(elapsed_s=3.0, points_run=2)
        return read_ledger(path)

    def test_crash_tolerant_sweep_summary(self, tmp_path):
        st = summarize(self._crash_events(str(tmp_path / "l.jsonl")))
        assert st.worker_deaths == 1
        assert st.requeued == 1
        assert st.done == 2 and st.errors == 0 and st.quarantined == 0
        assert st.complete
        (w,) = st.workers.values()
        assert w.dead and w.current == ""

    def test_crash_tolerant_sweep_audits_clean(self, tmp_path):
        """Requeue leaves a dangling point_start behind; the retry's
        single terminal event still satisfies the audit."""
        events = self._crash_events(str(tmp_path / "l.jsonl"))
        # drop the retry's terminal event -> the dangling start shows up
        assert check_complete(events) == []
        broken = events[:-2] + events[-1:]
        assert any("distinct points" in p for p in check_complete(broken))

    def test_quarantine_is_terminal(self, tmp_path):
        path = str(tmp_path / "l.jsonl")
        led = RunLedger(path)
        led.sweep_start(total_points=1, manifest={})
        led.worker_dead(dead_pid=999)
        led.point_quarantined(workload="mcf", machine="baseline",
                              policy="RAR", error="killed 3 workers",
                              attempts=3)
        led.sweep_done(elapsed_s=1.0, points_run=0)
        events = read_ledger(path)
        st = summarize(events)
        assert st.quarantined == 1 and st.terminal == 1
        assert st.error_points == ["mcf/baseline/RAR (quarantined)"]
        assert check_complete(events) == []

    def test_scheduler_pid_never_registers_as_worker(self, tmp_path):
        path = str(tmp_path / "l.jsonl")
        led = RunLedger(path)
        led.sweep_start(total_points=0, manifest={})
        led.worker_dead(dead_pid=424242)
        led.point_requeued(workload="w", machine="m", policy="p", attempt=1)
        st = summarize(read_ledger(path))
        assert st.workers == {}  # these events come from the orchestrator

    def test_unknown_events_still_summarize(self, tmp_path):
        """Ledgers may hold event types this version no longer emits
        (e.g. an older spool service's request envelopes): they are
        skipped, never counted as a worker or a point."""
        from repro.common.io import append_jsonl
        path = str(tmp_path / "l.jsonl")
        led = RunLedger(path)
        led.sweep_start(total_points=1, manifest={})
        append_jsonl(path, {"ev": "request_received", "ts": 1.0,
                            "pid": 7, "request_id": "r1", "points": 1})
        led.point_done(workload="mcf", machine="baseline", policy="OOO",
                       wall_s=1.0, kips=5.0, manifest={})
        append_jsonl(path, {"ev": "request_done", "ts": 2.0, "pid": 7,
                            "request_id": "r1", "status": "ok"})
        led.sweep_done(elapsed_s=2.0, points_run=1)
        events = read_ledger(path)
        st = summarize(events)
        assert st.done == 1 and st.complete
        assert 7 not in st.workers
        assert check_complete(events) == []

    def test_dead_worker_excluded_from_eta(self):
        events = [{"ev": "sweep_start", "ts": 0.0, "pid": 1,
                   "total_points": 10, "manifest": {}}]
        for i in range(4):
            events.append({"ev": "point_done", "ts": float(i + 1),
                           "pid": 1 + i % 2, "workload": "mcf",
                           "machine": "baseline", "policy": "RAR",
                           "wall_s": 2.0, "kips": 8.0})
        alive = summarize(events).eta_s()
        events.append({"ev": "worker_dead", "ts": 5.0, "pid": 99,
                       "dead_pid": 2})
        # one of the two workers died: the same backlog takes twice as long
        assert summarize(events).eta_s() == pytest.approx(alive * 2)
