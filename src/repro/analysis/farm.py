"""The simulation farm: a crash-tolerant scheduler for sweeps.

A sweep must survive its own failures: one failing point must not tear
down the sweep, a SIGKILLed/OOMed worker must not lose completed work,
and every completed point must survive an orchestrator crash.
:class:`FarmScheduler` is that execution layer: a worker pool built on
``multiprocessing.Process`` + duplex pipes instead of ``Pool.map``.
Sweep tasks (one point, or a shared-warmup workload group) are
dispatched to workers which stream results back
**per point** (no barrier at task boundaries — the ``imap_unordered``
streaming shape, plus liveness). Worker death is detected as EOF on the
worker's pipe; the dead worker's *undelivered* points are requeued with
a bounded retry budget, and a point that repeatedly kills its worker is
quarantined (recorded in the run ledger as ``point_quarantined``,
reported as a failure) instead of wedging the sweep. ``run_matrix``
starts one scheduler per sweep and shuts it down before it returns;
workers are forked from the sweep's process, so they start with its
process-local :class:`~repro.checkpoint.CheckpointCache` entries.

Delivery semantics are *at least once*: a worker killed in the instant
between finishing a point and the scheduler draining its pipe re-runs
that point, and the re-delivered point rewrites its own cache entry
with the same result. Results are bit-identical to the serial path —
each point runs the very same
:func:`~repro.analysis.experiments._iter_group_points` code whichever
process executes it, which is what keeps the golden fingerprints
(measured through ``run_matrix``) scheduling-independent.
"""

import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis import experiments as _exp
from repro.analysis.experiments import SweepTask
from repro.obs import log as obs_log

__all__ = [
    "MAX_RETRIES",
    "FarmScheduler",
]

_log = obs_log.get_logger("farm")

#: extra attempts a task gets after its worker died before the first
#: undelivered point is declared poison and quarantined
MAX_RETRIES = 2

#: liveness/result poll period of the scheduler loop, in seconds
POLL_S = 0.05


# --------------------------------------------------------------- worker

def _pool_context():
    """Fork when the platform offers it: workers inherit ``sys.path``
    (pytest injects ``src/`` without setting PYTHONPATH) and the warmed
    import state. Falls back to the platform default elsewhere."""
    import multiprocessing as mp
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return mp.get_context()


@dataclass
class GroupTask:
    """One dispatchable unit: a sweep task (or its requeued residue,
    whose ``policies`` are the points not yet delivered). ``attempts``
    counts worker deaths while this task was in flight — the retry
    budget.
    """

    task_id: int
    sweep: SweepTask
    attempts: int = 0


def _worker_main(conn, log_queue) -> None:
    """Farm worker loop: recv a :class:`GroupTask`, stream outcomes.

    Runs until the ``None`` sentinel (clean shutdown) or EOF (the
    orchestrator vanished). Every message is sent over the duplex pipe
    synchronously — no feeder thread — so anything ``send`` returned
    for is readable by the parent even if this process is SIGKILLed a
    microsecond later.
    """
    if log_queue is not None:
        obs_log.install_worker_handler(log_queue)
    try:
        while True:
            task = conn.recv()
            if task is None:
                break
            try:
                for outcome in _exp._iter_group_points(task.sweep):
                    conn.send(("point", task.task_id, outcome))
                conn.send(("group_done", task.task_id))
            except Exception as e:  # scheduler-level fault, not a point's
                conn.send(("group_error", task.task_id, repr(e),
                           traceback.format_exc()))
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


# ------------------------------------------------------------ scheduler

class _Worker:
    __slots__ = ("proc", "conn", "task")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.task: Optional[GroupTask] = None


class FarmScheduler:
    """Crash-tolerant worker pool for sweep group tasks.

    Use as a context manager (or call :meth:`shutdown` explicitly).
    A task survives :data:`MAX_RETRIES` worker deaths before its first
    undelivered point is quarantined.

    Args:
        jobs: worker process count.
        ledger: :class:`~repro.obs.ledger.RunLedger` (or path) for the
            scheduler's own events (``worker_dead`` /
            ``point_requeued`` / ``point_quarantined``); workers append
            their per-point events through the ledger path embedded in
            each task.
    """

    def __init__(self, jobs: int, ledger: Optional[Any] = None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        if isinstance(ledger, str):
            from repro.obs.ledger import RunLedger
            ledger = RunLedger(ledger)
        self.ledger = ledger
        self._ctx = _pool_context()
        self._workers: List[_Worker] = []
        self._log_queue = None
        self._listener = None
        self._next_task_id = 0
        self._started = False

    # ------------------------------------------------------- lifecycle

    def __enter__(self) -> "FarmScheduler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def start(self) -> None:
        if self._started:
            return
        self._log_queue = obs_log.worker_log_queue(self._ctx)
        self._listener = obs_log.start_listener(self._log_queue)
        self._started = True

    def shutdown(self) -> None:
        for w in self._workers:
            try:
                w.conn.send(None)
            except (OSError, BrokenPipeError, ValueError):
                pass
        for w in self._workers:
            w.proc.join(timeout=2.0)
            if w.proc.is_alive():
                w.proc.terminate()
                w.proc.join(timeout=1.0)
            w.conn.close()
        self._workers.clear()
        if self._listener is not None:
            self._listener.stop()
            self._listener = None
        self._started = False

    def _spawn_worker(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(target=_worker_main,
                                 args=(child_conn, self._log_queue),
                                 daemon=True)
        proc.start()
        # Drop the parent's copy of the child end: EOF on parent_conn
        # then means exactly "the worker process is gone".
        child_conn.close()
        w = _Worker(proc, parent_conn)
        self._workers.append(w)
        return w

    def _cull_idle_dead(self) -> None:
        """Idle workers killed from outside never signal EOF through the
        busy-connection wait set; sweep them here."""
        keep: List[_Worker] = []
        for w in self._workers:
            if w.task is None and not w.proc.is_alive():
                w.proc.join(timeout=0.1)
                w.conn.close()
            else:
                keep.append(w)
        self._workers = keep

    # ------------------------------------------------------------- run

    def run(self, tasks: List[SweepTask],
            on_point: Callable[[Dict[str, Any]], None]) -> None:
        """Execute sweep tasks, streaming outcomes to ``on_point``.

        ``tasks`` are the :class:`~repro.analysis.experiments.SweepTask`
        values ``run_matrix`` builds.
        ``on_point`` receives every outcome dict as it lands — payloads,
        isolated errors, and synthesized quarantine records — in
        completion order.
        """
        self.start()
        pending = deque(self._wrap(t) for t in tasks)
        delivered: Dict[int, set] = {}

        while pending or any(w.task is not None for w in self._workers):
            self._cull_idle_dead()
            needed = min(self.jobs, len(pending) + sum(
                1 for w in self._workers if w.task is not None))
            while len(self._workers) < needed:
                self._spawn_worker()
            for w in list(self._workers):
                if w.task is None and pending:
                    task = pending.popleft()
                    w.task = task
                    delivered.setdefault(task.task_id, set())
                    try:
                        w.conn.send(task)
                    except (OSError, BrokenPipeError, ValueError):
                        self._on_worker_death(w, pending, delivered,
                                              on_point)
            busy = {w.conn: w for w in self._workers
                    if w.task is not None}
            if not busy:
                continue
            for conn in mp_connection.wait(list(busy), timeout=POLL_S):
                w = busy[conn]
                try:
                    while True:
                        self._on_message(w, w.conn.recv(), delivered,
                                         on_point)
                        if w.task is None or not w.conn.poll():
                            break
                except (EOFError, OSError):
                    self._on_worker_death(w, pending, delivered,
                                          on_point)

    def _wrap(self, sweep: SweepTask, attempts: int = 0) -> GroupTask:
        self._next_task_id += 1
        return GroupTask(task_id=self._next_task_id, sweep=sweep,
                         attempts=attempts)

    def _on_message(self, w: _Worker, msg: Tuple, delivered,
                    on_point) -> None:
        kind, task_id = msg[0], msg[1]
        if kind == "point":
            outcome = msg[2]
            delivered.setdefault(task_id, set()).add(outcome["policy"])
            on_point(outcome)
        elif kind == "group_done":
            w.task = None
        elif kind == "group_error":
            # The group runner itself raised (it isolates per-point
            # failures, so this is a scheduler-layer fault). Determinist
            # -ic — fail the undelivered points rather than retry.
            task, error, tb = w.task, msg[2], msg[3]
            w.task = None
            if task is None:
                return
            for policy in task.sweep.policies:
                if policy not in delivered.get(task_id, set()):
                    on_point(_failure_outcome(task.sweep, policy, error, tb))

    def _on_worker_death(self, w: _Worker, pending, delivered,
                         on_point) -> None:
        task = w.task
        w.task = None
        pid = w.proc.pid
        w.proc.join(timeout=0.5)
        w.conn.close()
        self._workers.remove(w)
        sweep = task.sweep if task is not None else None
        label = (f"{sweep.spec.name}/{sweep.machine.name}"
                 if sweep is not None else "idle")
        _log.warning("worker died", extra={"data": {
            "pid": pid, "task": label}})
        if self.ledger is not None:
            self.ledger.worker_dead(
                dead_pid=pid,
                workload=sweep.spec.name if sweep is not None else None,
                attempt=task.attempts if task is not None else None)
        if task is None:
            return
        residual = tuple(p for p in sweep.policies
                         if p not in delivered.get(task.task_id, set()))
        if not residual:
            return  # every point delivered; only the group_done was lost
        attempts = task.attempts + 1
        if attempts > MAX_RETRIES:
            poison, rest = residual[0], residual[1:]
            self._quarantine(sweep, poison, attempts, on_point)
            residual, attempts = rest, 0  # poison removed: fresh budget
        if residual:
            pending.appendleft(self._wrap(sweep._replace(policies=residual),
                                          attempts))
            if self.ledger is not None:
                for policy in residual:
                    self.ledger.point_requeued(
                        workload=sweep.spec.name,
                        machine=sweep.machine.name, policy=policy,
                        attempt=attempts)

    def _quarantine(self, sweep: SweepTask, policy: str, attempts: int,
                    on_point) -> None:
        error = (f"quarantined: point killed its worker "
                 f"{attempts} time(s) (max_retries={MAX_RETRIES})")
        label = f"{sweep.spec.name}/{sweep.machine.name}/{policy}"
        _log.error("point quarantined", extra={"data": {
            "point": label, "attempts": attempts}})
        if self.ledger is not None:
            self.ledger.point_quarantined(
                workload=sweep.spec.name, machine=sweep.machine.name,
                policy=policy, variant=sweep.variant(policy),
                error=error, attempts=attempts)
        outcome = _failure_outcome(sweep, policy, error, "")
        outcome["quarantined"] = True
        on_point(outcome)


def _failure_outcome(sweep: SweepTask, policy: str, error: str,
                     tb: str) -> Dict[str, Any]:
    return {"workload": sweep.spec.name, "machine": sweep.machine.name,
            "policy": policy, "variant": sweep.variant(policy),
            "error": error, "traceback": tb}

