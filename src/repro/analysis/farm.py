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
reported as a failure) instead of wedging the sweep. Workers are
persistent across :meth:`FarmScheduler.run` calls, so each worker's
process-local :class:`~repro.checkpoint.CheckpointCache` shares warm
checkpoints across every run it serves.

Delivery semantics are *at least once*: a worker killed in the instant
between finishing a point and the scheduler draining its pipe re-runs
that point, and the idempotent keyed cache merge absorbs the duplicate.
Results are bit-identical to the serial path — each point runs the very
same :func:`~repro.analysis.experiments._iter_group_points` code
whichever process executes it, which is what keeps the golden
fingerprints (measured through ``run_matrix``) scheduling-independent.

Fault injection for tests and the CI farm-smoke job (all opt-in via
environment variables, inert otherwise):

- ``REPRO_FARM_CRASH_TOKEN=<file>``: the first worker about to run a
  point while ``<file>`` exists unlinks it and SIGKILLs itself — one
  injected crash per token file.
- ``REPRO_FARM_POISON=<workload>:<policy>``: every worker about to run
  that point SIGKILLs itself — a poison point that must end in
  quarantine.
- ``REPRO_FARM_RAISE=<workload>:<policy>`` (honoured inside the group
  runner, so it also works serially): the point raises and is isolated
  as a ``point_error``.
"""

import os
import signal
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis import experiments as _exp
from repro.obs import log as obs_log

__all__ = [
    "CRASH_TOKEN_ENV",
    "POISON_ENV",
    "DEFAULT_MAX_RETRIES",
    "FarmReport",
    "FarmScheduler",
]

_log = obs_log.get_logger("farm")

CRASH_TOKEN_ENV = "REPRO_FARM_CRASH_TOKEN"
POISON_ENV = "REPRO_FARM_POISON"

#: extra attempts a task gets after its worker died before the first
#: undelivered point is declared poison and quarantined
DEFAULT_MAX_RETRIES = 2


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


def _chaos_maybe_kill(workload: str, policy: str) -> None:
    """Opt-in crash injection, checked before each point (see module
    docstring). SIGKILL gives the scheduler a real dead worker — no
    atexit handlers, no cleanup — exactly like the OOM killer would."""
    token = os.environ.get(CRASH_TOKEN_ENV)
    if token:
        try:
            os.unlink(token)
        except OSError:
            pass  # already consumed by a sibling worker
        else:
            os.kill(os.getpid(), signal.SIGKILL)
    if os.environ.get(POISON_ENV) == f"{workload}:{policy}":
        os.kill(os.getpid(), signal.SIGKILL)


@dataclass
class GroupTask:
    """One dispatchable unit: a workload group (or requeued residue).

    ``base`` is the picklable task tuple
    :func:`~repro.analysis.experiments._iter_group_points` consumes;
    ``policies`` is this task's (possibly residual) slice of the
    group's policy list. ``attempts`` counts worker deaths while this
    task was in flight — the retry budget.
    """

    task_id: int
    base: Tuple
    policies: Tuple[str, ...]
    attempts: int = 0

    @property
    def workload(self) -> str:
        return self.base[0].name

    @property
    def machine_name(self) -> str:
        return self.base[1].name

    def group_tuple(self) -> Tuple:
        return self.base[:2] + (self.policies,) + self.base[3:]


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
                points = _exp._iter_group_points(task.group_tuple())
                for policy in task.policies:
                    _chaos_maybe_kill(task.workload, policy)
                    conn.send(("point", task.task_id, next(points)))
                conn.send(("group_done", task.task_id))
            except Exception as e:  # scheduler-level fault, not a point's
                conn.send(("group_error", task.task_id, repr(e),
                           traceback.format_exc()))
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


# ------------------------------------------------------------ scheduler

@dataclass
class FarmReport:
    """What one :meth:`FarmScheduler.run` call did."""

    points: int = 0              # outcomes delivered (incl. errors)
    errors: int = 0              # isolated point_error outcomes
    worker_deaths: int = 0
    requeued: int = 0            # point attempts put back on the queue
    quarantined: List[str] = field(default_factory=list)
    group_errors: int = 0


class _Worker:
    __slots__ = ("proc", "conn", "task")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.task: Optional[GroupTask] = None


class FarmScheduler:
    """Crash-tolerant worker pool for sweep group tasks.

    Use as a context manager (or call :meth:`shutdown` explicitly).
    Workers persist across :meth:`run` calls, so worker-local
    checkpoint caches accumulate across them.

    Args:
        jobs: worker process count.
        ledger: :class:`~repro.obs.ledger.RunLedger` (or path) for the
            scheduler's own events (``worker_dead`` /
            ``point_requeued`` / ``point_quarantined``); workers append
            their per-point events through the ledger path embedded in
            each task.
        max_retries: worker deaths a task survives before its first
            undelivered point is quarantined.
        poll_s: liveness/result poll period.
    """

    def __init__(self, jobs: int, ledger: Optional[Any] = None,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 poll_s: float = 0.05):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.max_retries = max_retries
        self.poll_s = poll_s
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

    def run(self, tasks: List[Tuple],
            on_point: Optional[Callable[[Dict[str, Any]], None]] = None,
            ) -> FarmReport:
        """Execute group-task tuples, streaming outcomes to ``on_point``.

        ``tasks`` are the picklable tuples ``run_matrix`` builds (the
        :func:`~repro.analysis.experiments._iter_group_points` input).
        ``on_point`` receives every outcome dict as it lands — payloads,
        isolated errors, and synthesized quarantine records — in
        completion order.
        """
        self.start()
        report = FarmReport()
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
                                              report, on_point)
            busy = {w.conn: w for w in self._workers
                    if w.task is not None}
            if not busy:
                continue
            for conn in mp_connection.wait(list(busy), timeout=self.poll_s):
                w = busy[conn]
                try:
                    while True:
                        self._on_message(w, w.conn.recv(), delivered,
                                         report, on_point)
                        if w.task is None or not w.conn.poll():
                            break
                except (EOFError, OSError):
                    self._on_worker_death(w, pending, delivered,
                                          report, on_point)
        return report

    def _wrap(self, base: Tuple) -> GroupTask:
        self._next_task_id += 1
        return GroupTask(task_id=self._next_task_id, base=base,
                         policies=tuple(base[2]))

    def _residual_task(self, task: GroupTask, policies: Tuple[str, ...],
                       attempts: int) -> GroupTask:
        self._next_task_id += 1
        return GroupTask(task_id=self._next_task_id, base=task.base,
                         policies=policies, attempts=attempts)

    def _on_message(self, w: _Worker, msg: Tuple, delivered, report,
                    on_point) -> None:
        kind, task_id = msg[0], msg[1]
        if kind == "point":
            outcome = msg[2]
            delivered.setdefault(task_id, set()).add(outcome["policy"])
            report.points += 1
            if "payload" not in outcome:
                report.errors += 1
            if on_point is not None:
                on_point(outcome)
        elif kind == "group_done":
            w.task = None
        elif kind == "group_error":
            # The group runner itself raised (it isolates per-point
            # failures, so this is a scheduler-layer fault). Determinist
            # -ic — fail the undelivered points rather than retry.
            report.group_errors += 1
            task, error, tb = w.task, msg[2], msg[3]
            w.task = None
            if task is None:
                return
            for policy in task.policies:
                if policy in delivered.get(task_id, set()):
                    continue
                report.points += 1
                report.errors += 1
                if on_point is not None:
                    on_point(self._failure_outcome(task, policy, error, tb))

    def _on_worker_death(self, w: _Worker, pending, delivered, report,
                         on_point) -> None:
        task = w.task
        w.task = None
        pid = w.proc.pid
        w.proc.join(timeout=0.5)
        w.conn.close()
        self._workers.remove(w)
        report.worker_deaths += 1
        label = (f"{task.workload}/{task.machine_name}"
                 if task is not None else "idle")
        _log.warning("worker died", extra={"data": {
            "pid": pid, "task": label}})
        if self.ledger is not None:
            self.ledger.worker_dead(
                dead_pid=pid,
                workload=task.workload if task is not None else None,
                attempt=task.attempts if task is not None else None)
        if task is None:
            return
        residual = tuple(p for p in task.policies
                         if p not in delivered.get(task.task_id, set()))
        if not residual:
            return  # every point delivered; only the group_done was lost
        attempts = task.attempts + 1
        if attempts > self.max_retries:
            poison, rest = residual[0], residual[1:]
            self._quarantine(task, poison, attempts, report, on_point)
            residual, attempts = rest, 0  # poison removed: fresh budget
        if residual:
            requeued = self._residual_task(task, residual, attempts)
            pending.appendleft(requeued)
            report.requeued += len(residual)
            if self.ledger is not None:
                for policy in residual:
                    self.ledger.point_requeued(
                        workload=task.workload,
                        machine=task.machine_name, policy=policy,
                        attempt=attempts)

    def _quarantine(self, task: GroupTask, policy: str, attempts: int,
                    report, on_point) -> None:
        error = (f"quarantined: point killed its worker "
                 f"{attempts} time(s) (max_retries={self.max_retries})")
        label = f"{task.workload}/{task.machine_name}/{policy}"
        report.quarantined.append(label)
        _log.error("point quarantined", extra={"data": {
            "point": label, "attempts": attempts}})
        if self.ledger is not None:
            self.ledger.point_quarantined(
                workload=task.workload, machine=task.machine_name,
                policy=policy, variant=self._task_variant(task, policy),
                error=error, attempts=attempts)
        report.points += 1
        report.errors += 1
        if on_point is not None:
            outcome = self._failure_outcome(task, policy, error, "")
            outcome["quarantined"] = True
            on_point(outcome)

    @staticmethod
    def _task_variant(task: GroupTask, policy: str) -> str:
        share_warmup, warmup_policy = task.base[5], task.base[6]
        warmup_mode = task.base[11]
        return _exp._variant(share_warmup, policy, warmup_policy,
                             warmup_mode)

    def _failure_outcome(self, task: GroupTask, policy: str, error: str,
                         tb: str) -> Dict[str, Any]:
        return {"workload": task.workload, "machine": task.machine_name,
                "policy": policy,
                "variant": self._task_variant(task, policy),
                "error": error, "traceback": tb}

