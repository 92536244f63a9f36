"""The run ledger: an append-only JSONL event stream for sweeps.

Every sweep (``ExperimentRunner.run_matrix`` / ``repro sweep
--ledger``) can record its full life cycle as typed events, one JSON
object per line, written via the multi-writer-safe
:func:`repro.common.io.append_jsonl` so the orchestrating process and
every pool worker append to the *same* file without interleaving:

========================  =================================================
event                     emitted when
========================  =================================================
``sweep_start``           the matrix is resolved; carries the point count,
                          sweep parameters and the full host manifest
``point_cached``          a point was satisfied from the result cache
``warmup_shared``         a worker finished the shared warmup checkpoint
                          for one workload group
``point_start``           a worker begins simulating one point
``point_done``            the point finished; wall seconds, KIPS, IPC and
                          the per-point provenance manifest
``point_error``           the point raised; the traceback rides along
``worker_heartbeat``      a worker reports liveness + per-group progress
``worker_dead``           the farm scheduler found a worker process dead
                          (SIGKILL/OOM/segfault); names the dead pid
``point_requeued``        an undelivered point of a dead worker went back
                          on the queue for another attempt
``point_quarantined``     a point exhausted its retry budget killing
                          workers and was quarantined (terminal)
``sweep_done``            the sweep returned; aggregate counts and wall
========================  =================================================

Every event carries ``ts`` (epoch seconds), ``pid`` and the ledger
``ev`` tag. Events are purely observational — simulation results are
bit-identical with the ledger on or off — and the terminal guarantee is
that every point of a completed sweep has exactly one terminal event
(``point_done`` / ``point_cached`` / ``point_error`` /
``point_quarantined``). A worker killed mid-point leaves a dangling
``point_start`` behind; the requeued attempt supplies the single
terminal event, so a crash-tolerant sweep still audits clean. One file
may hold several sweeps (``repro sweep -m A B --ledger``, or sweeps
appended one after another): :func:`check_complete` audits each sweep's
points on their own, and the file is complete once every
``sweep_start`` has its ``sweep_done``.
Events of types this version does not emit (older ledgers) are skipped.

:func:`summarize` folds an event list into a :class:`SweepStatus` used
by ``repro top`` (live) and ``repro report`` (post-mortem).
"""

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.common.io import append_jsonl, read_jsonl

__all__ = [
    "EVENT_TYPES",
    "RunLedger",
    "SweepStatus",
    "WorkerState",
    "point_label",
    "read_ledger",
    "summarize",
]

EVENT_TYPES = (
    "sweep_start",
    "point_start",
    "point_done",
    "point_cached",
    "warmup_shared",
    "worker_heartbeat",
    "worker_dead",
    "point_requeued",
    "point_quarantined",
    "point_error",
    "sweep_done",
)

#: terminal events — a completed sweep has exactly one per point
TERMINAL_EVENTS = ("point_done", "point_cached", "point_error",
                   "point_quarantined")

#: scheduler-side events: emitted by the orchestrating process *about*
#: a worker, so they never mark the emitting pid as a worker
SCHEDULER_EVENTS = ("worker_dead", "point_requeued", "point_quarantined")


def point_label(event: Dict[str, Any]) -> str:
    """``workload/machine/policy`` display key of a point event."""
    return (f"{event.get('workload', '?')}/{event.get('machine', '?')}/"
            f"{event.get('policy', '?')}")


class RunLedger:
    """Appends typed events to a JSONL file (multi-writer safe).

    Constructed from a path; pool workers re-create it from the same
    path (the object itself is trivially picklable state: one string).
    ``emit`` is the single write seam — every event method funnels
    through it, stamping ``ts`` and ``pid``.
    """

    def __init__(self, path: str):
        self.path = os.fspath(path)
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)

    def emit(self, ev: str, **fields: Any) -> None:
        if ev not in EVENT_TYPES:
            raise ValueError(f"unknown ledger event {ev!r}")
        record = {"ev": ev, "ts": round(time.time(), 4),
                  "pid": os.getpid()}
        record.update(fields)
        append_jsonl(self.path, record)

    # ------------------------------------------------------ typed events

    def sweep_start(self, *, total_points: int, manifest: Dict[str, Any],
                    **fields: Any) -> None:
        self.emit("sweep_start", total_points=total_points,
                  manifest=manifest, **fields)

    def point_start(self, **fields: Any) -> None:
        self.emit("point_start", **fields)

    def point_done(self, *, wall_s: float, manifest: Dict[str, Any],
                   **fields: Any) -> None:
        self.emit("point_done", wall_s=round(wall_s, 4),
                  manifest=manifest, **fields)

    def point_cached(self, *, manifest: Dict[str, Any],
                     **fields: Any) -> None:
        self.emit("point_cached", manifest=manifest, **fields)

    def warmup_shared(self, *, wall_s: float, **fields: Any) -> None:
        self.emit("warmup_shared", wall_s=round(wall_s, 4), **fields)

    def worker_heartbeat(self, **fields: Any) -> None:
        self.emit("worker_heartbeat", **fields)

    def worker_dead(self, *, dead_pid: int, **fields: Any) -> None:
        self.emit("worker_dead", dead_pid=dead_pid, **fields)

    def point_requeued(self, *, attempt: int, **fields: Any) -> None:
        self.emit("point_requeued", attempt=attempt, **fields)

    def point_quarantined(self, *, error: str, **fields: Any) -> None:
        self.emit("point_quarantined", error=error, **fields)

    def point_error(self, *, error: str, traceback_text: str,
                    **fields: Any) -> None:
        self.emit("point_error", error=error,
                  traceback=traceback_text, **fields)

    def sweep_done(self, *, elapsed_s: float, **fields: Any) -> None:
        self.emit("sweep_done", elapsed_s=round(elapsed_s, 4), **fields)


def read_ledger(path: str) -> List[Dict[str, Any]]:
    """All events of a ledger file; tolerant of a torn final line."""
    return [e for e in read_jsonl(path) if isinstance(e, dict)]


# ------------------------------------------------------------- summaries

@dataclass
class WorkerState:
    """Last-known activity of one worker pid."""

    pid: int
    last_event: str = ""
    last_ts: float = 0.0
    current: str = ""            # point label while between start/done
    points_done: int = 0
    dead: bool = False           # scheduler recorded a worker_dead for it


@dataclass
class SweepStatus:
    """Aggregated view of a ledger — the model behind ``repro top``."""

    path: str = ""
    started: Optional[float] = None
    finished: Optional[float] = None
    last_ts: float = 0.0
    total_points: int = 0
    sweeps: int = 0              # sweep_start events
    sweeps_done: int = 0         # sweep_done events
    done: int = 0
    cached: int = 0
    errors: int = 0
    quarantined: int = 0
    requeued: int = 0
    worker_deaths: int = 0
    warmups: int = 0
    manifest: Dict[str, Any] = field(default_factory=dict)
    params: Dict[str, Any] = field(default_factory=dict)
    workers: Dict[int, WorkerState] = field(default_factory=dict)
    #: (ts, kips) per point_done, in ledger order — the KIPS trajectory
    kips_trajectory: List[Tuple[float, float]] = field(default_factory=list)
    point_walls: List[float] = field(default_factory=list)
    error_points: List[str] = field(default_factory=list)

    @property
    def terminal(self) -> int:
        """Points with a terminal event so far."""
        return self.done + self.cached + self.errors + self.quarantined

    @property
    def remaining(self) -> int:
        return max(0, self.total_points - self.terminal)

    @property
    def complete(self) -> bool:
        """Every announced sweep has returned."""
        return self.finished is not None and self.sweeps_done >= self.sweeps

    @property
    def cache_hit_rate(self) -> float:
        return self.cached / self.terminal if self.terminal else 0.0

    @property
    def elapsed_s(self) -> float:
        if self.started is None:
            return 0.0
        end = self.finished if self.complete else self.last_ts
        return max(0.0, end - self.started)

    @property
    def mean_kips(self) -> float:
        if not self.kips_trajectory:
            return 0.0
        vals = [k for _, k in self.kips_trajectory]
        return sum(vals) / len(vals)

    def eta_s(self) -> Optional[float]:
        """Remaining wall estimate from the per-point wall trajectory.

        Recent points dominate (simple mean over the last 8) so the
        estimate tracks a drifting KIPS trajectory; divided by the
        number of workers seen simulating, since points land in
        parallel. ``None`` until the first point has finished.
        """
        if self.complete or not self.point_walls or not self.remaining:
            return None
        recent = self.point_walls[-8:]
        per_point = sum(recent) / len(recent)
        active = max(1, len([w for w in self.workers.values()
                             if not w.dead and (w.points_done or w.current)]))
        return per_point * self.remaining / active


def summarize(events: List[Dict[str, Any]],
              path: str = "") -> SweepStatus:
    """Fold ledger events into a :class:`SweepStatus` (pure function)."""
    st = SweepStatus(path=path)
    for e in events:
        ev = e.get("ev")
        ts = float(e.get("ts", 0.0))
        st.last_ts = max(st.last_ts, ts)
        pid = int(e.get("pid", 0))
        if ev == "sweep_start":
            if st.started is None:
                st.started = ts
            st.sweeps += 1
            st.total_points += int(e.get("total_points", 0))
            st.manifest = e.get("manifest") or {}
            st.params = {k: v for k, v in e.items()
                         if k not in ("ev", "ts", "pid", "total_points",
                                      "manifest")}
            continue
        if ev == "sweep_done":
            st.sweeps_done += 1
            st.finished = ts
            continue
        if ev not in EVENT_TYPES or ev is None:
            continue
        if ev in SCHEDULER_EVENTS:
            if ev == "worker_dead":
                st.worker_deaths += 1
                dead = st.workers.get(int(e.get("dead_pid", 0)))
                if dead is not None:
                    dead.dead = True
                    dead.current = ""
            elif ev == "point_requeued":
                st.requeued += 1
            elif ev == "point_quarantined":
                st.quarantined += 1
                st.error_points.append(
                    f"{point_label(e)} (quarantined)")
            continue
        w = st.workers.setdefault(pid, WorkerState(pid=pid))
        w.last_event, w.last_ts = ev, ts
        if ev == "point_start":
            w.current = point_label(e)
        elif ev == "point_done":
            st.done += 1
            w.points_done += 1
            w.current = ""
            if "wall_s" in e:
                st.point_walls.append(float(e["wall_s"]))
            if "kips" in e:
                st.kips_trajectory.append((ts, float(e["kips"])))
        elif ev == "point_cached":
            st.cached += 1
        elif ev == "point_error":
            st.errors += 1
            w.current = ""
            st.error_points.append(point_label(e))
        elif ev == "warmup_shared":
            st.warmups += 1
            mode = e.get("mode", "detailed")
            w.current = (f"warmup {e.get('workload', '?')}"
                         + (f" ({mode})" if mode != "detailed" else ""))
    if st.total_points == 0:
        st.total_points = st.terminal
    return st


def load_status(path: str) -> SweepStatus:
    """Read + summarize in one call (the ``repro top`` refresh path)."""
    return summarize(read_ledger(path), path=path)


def check_complete(events: List[Dict[str, Any]]) -> List[str]:
    """Audit a finished ledger: every point each sweep announced must
    have exactly one terminal event in that sweep, and every sweep must
    have returned. Sweeps in one ledger run one after another, so a
    sweep's events are those from its ``sweep_start`` to the next; a
    re-run sweep may measure a point an earlier sweep already did.
    Returns human-readable problem lines (empty means the terminal
    guarantee held)."""
    problems: List[str] = []
    # (announced points, terminal events per point); [0] holds events
    # logged before any sweep_start
    sweeps: List[Tuple[int, Dict[str, int]]] = [(0, {})]
    for e in events:
        if e.get("ev") == "sweep_start":
            sweeps.append((int(e.get("total_points", 0)), {}))
        elif e.get("ev") in TERMINAL_EVENTS:
            terminal = sweeps[-1][1]
            label = point_label(e)
            terminal[label] = terminal.get(label, 0) + 1
    for i, (announced, terminal) in enumerate(sweeps):
        where = f"sweep {i}: " if len(sweeps) > 2 else ""
        for label, n in sorted(terminal.items()):
            if n != 1:
                problems.append(f"{where}{label}: {n} terminal events "
                                f"(expected 1)")
        if announced and len(terminal) != announced:
            problems.append(f"{where}{len(terminal)} distinct points have "
                            f"terminal events, {announced} announced")
    st = summarize(events)
    if not st.complete and not problems:
        if st.sweeps <= 1:
            problems.append("no sweep_done event (sweep crashed or still "
                            "running)")
        else:
            problems.append(f"{st.sweeps - st.sweeps_done} of {st.sweeps} "
                            f"sweeps have no sweep_done event (crashed or "
                            f"still running)")
    return problems
