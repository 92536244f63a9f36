"""Cycle engine: the clock, the event heap and fast-forwarding.

:class:`SimEngine` owns everything about *time* — the cycle counter, the
completion-event heap and the idle-cycle fast-forward — while the pipeline
itself is decomposed into :class:`Component` instances (front-end,
window/back-end, runahead controller, commit; see
``repro.core.components``) that the engine steps in stage order every
cycle.

The split is what makes warm-state checkpointing possible: every component
declares the mutable state it owns (``state_attrs``) and exposes
``snapshot_state()``/``restore_state()``, so ``repro.checkpoint`` can
capture a consistently deep-copied image of a warmed core and fork many
measurement runs from it (see docs/architecture.md).
"""

import heapq
from typing import Callable, Dict, Iterable, List, Tuple

from repro.common.enums import Mode

#: Event kinds carried on the engine's heap.
EV_WB = 0        # writeback: a dispatched uop's result is ready
EV_RA_ISSUE = 1  # a runahead uop's memory access reaches the hierarchy
EV_RA_DONE = 2   # a runahead-initiated LLC miss completed (MLP counter)


class TraceExhausted(Exception):
    """Internal control-flow signal: a finite trace fully drained.

    Raised by :meth:`SimEngine.fast_forward` when the simulator goes
    idle *because the architectural stream ended* (trace exhausted at
    the fetch cursor, front-end and window empty, no events, NORMAL
    mode) and caught by :meth:`SimEngine.run`, which ends the run
    cleanly with everything committed — a finite trace terminates with
    a clean terminal commit instead of a deadlock error, even when the
    requested instruction budget exceeds the stream's length.
    """


class Component:
    """One pipeline piece stepped by the :class:`SimEngine`.

    Subclasses override what they need:

    - :meth:`step` — simulate the current cycle; return an activity count
      (0 = nothing happened, which lets the engine fast-forward).
    - :meth:`wake_candidates` — future cycles at which this component can
      next make progress (used to bound a fast-forward jump).
    - :meth:`skip` — account a fast-forwarded idle span (e.g. advance the
      ROB head timer by ``span`` cycles at once).
    - :attr:`state_attrs` — names of the mutable attributes this component
      owns; the default :meth:`snapshot_state`/:meth:`restore_state` pair
      round-trips exactly those for checkpointing.
    - :attr:`quiesced` — set (by the component itself, or by whoever owns
      the condition, e.g. the runahead controller on a mode switch) when
      :meth:`step` is guaranteed to do nothing until an external event
      re-arms it; the engine then skips the call entirely. Quiescing is
      per-component, generalizing the all-or-nothing fast-forward: the
      commit unit keeps stepping (head-timer clock) while a gated
      front-end or a drained issue window costs nothing.
    """

    name = "component"
    state_attrs: Tuple[str, ...] = ()
    #: True ⇒ step() would provably make no progress this cycle; must be
    #: cleared by the event that can make the component runnable again.
    quiesced = False

    def bind(self) -> None:
        """Cache cross-component references after all components exist."""

    def step(self, cycle: int) -> int:
        return 0

    def wake_candidates(self, cycle: int) -> Iterable[int]:
        return ()

    def skip(self, span: int) -> None:
        pass

    def snapshot_state(self) -> Dict[str, object]:
        """The component's mutable state, by attribute name (not copied —
        the checkpoint layer deep-copies all components with one shared
        memo so cross-component object identity is preserved)."""
        return {attr: getattr(self, attr) for attr in self.state_attrs}

    def restore_state(self, state: Dict[str, object]) -> None:
        for attr, value in state.items():
            setattr(self, attr, value)


class SimEngine(Component):
    """Owns the cycle loop, the event heap and fast-forward logic.

    A cycle with no activity fast-forwards to the next cycle at which
    anything *can* happen (completion event, front-end arrival, fetch
    gate, head-timer expiry, runahead resume) — this is what makes a
    pure-Python model viable for memory-bound workloads that spend
    hundreds of consecutive cycles draining one miss.
    """

    name = "engine"
    state_attrs = ("cycle", "_events", "_ev_count")

    def __init__(self, core) -> None:
        self.core = core
        self.cycle = 0
        #: True once a finite trace drained and ended a run early; the
        #: oracle's terminal-commit check keys off this. Status, not
        #: architectural state — deliberately outside ``state_attrs``.
        self.exhausted = False
        self._ev_count = 0
        self._events: List[Tuple[int, int, int, object]] = []
        self._handlers: Dict[int, Callable[[object, int], None]] = {}
        self._pipeline: Tuple[Component, ...] = ()

    def wire(self, pipeline: Iterable[Component]) -> None:
        """Fix the stage order and cache hot cross-references."""
        self._pipeline = tuple(pipeline)
        core = self.core
        self._backend = core.backend
        self._ra = core.runahead_ctl
        self._stats = core.stats

    def on_event(self, kind: int,
                 handler: Callable[[object, int], None]) -> None:
        self._handlers[kind] = handler

    # ================================================================ run

    def run(self, max_instructions: int) -> None:
        """Simulate until ``max_instructions`` have committed."""
        core = self.core
        stats = self._stats
        target = stats.committed + max_instructions
        telemetry = core.telemetry
        try:
            while stats.committed < target:
                if self.step():
                    self.cycle += 1
                else:
                    self.fast_forward()
                if telemetry is not None:
                    stats.cycles = self.cycle
                    telemetry.tick(core)
        except TraceExhausted:
            pass  # finite stream drained: end the run cleanly
        finally:
            stats.cycles = self.cycle

    # =============================================================== step

    def step(self) -> int:
        """Simulate the current cycle; returns activity count (0 = idle).

        Does *not* advance :attr:`cycle` — :meth:`run` owns the clock so
        that idle stretches can fast-forward.
        """
        c = self.cycle
        ev = self._events
        progress = self.process_events(c) if ev and ev[0][0] <= c else 0
        for comp in self._pipeline:
            if comp.quiesced:
                continue
            progress += comp.step(c)
        stats = self._stats
        out_misses = self._backend._out_misses
        if out_misses > 0:
            stats.mlp_sum += out_misses
            stats.mlp_cycles += 1
        if self._ra.mode == Mode.FLUSH_STALL:
            stats.flush_stall_cycles += 1
        return progress

    def fast_forward(self) -> None:
        """Jump from an idle cycle to the next cycle anything can happen.

        The current cycle has already been simulated (and accounted) by
        :meth:`step`; candidates are therefore strictly in the future.
        """
        c = self.cycle
        candidates: List[int] = []
        if self._events:
            candidates.append(self._events[0][0])
        for comp in self._pipeline:
            candidates.extend(comp.wake_candidates(c))
        candidates = [x for x in candidates if x > c]
        if not candidates:
            core = self.core
            if self._stream_drained():
                self.exhausted = True
                raise TraceExhausted
            mem = core.mem
            if not mem.mshr_in_use(c):
                raise RuntimeError(
                    f"simulator deadlock at cycle {c} "
                    f"(mode={self._ra.mode.name}, rob={len(core.rob)}, "
                    f"iq={len(core.iq)}, committed={self._stats.committed})"
                )
            # Fills issued by the functional warmup walk hold MSHRs but
            # have no engine event: wake when the first of them frees.
            candidates = [mem._mshr_min]
        target = min(candidates)
        # Cycle c itself was accounted by step(); account the skipped span
        # (c+1 .. target-1) here, then land on `target`.
        span = target - c - 1
        if span > 0:
            for comp in self._pipeline:
                comp.skip(span)
            stats = self._stats
            out_misses = self._backend._out_misses
            if out_misses > 0:
                stats.mlp_sum += out_misses * span
                stats.mlp_cycles += span
            if self._ra.mode == Mode.FLUSH_STALL:
                stats.flush_stall_cycles += span
            stats.fast_forwarded_cycles += span
        self.cycle = target

    def _stream_drained(self) -> bool:
        """True when the idle state is the *end of a finite trace*: the
        fetch cursor is past the stream, nothing is queued, in flight or
        pending, and the machine is back in NORMAL mode — i.e. every
        architectural instruction the trace carries has committed. Any
        other candidate-less idle state is a genuine deadlock."""
        core = self.core
        fe = core.frontend_stage
        return (
            self._ra.mode == Mode.NORMAL
            and not self._events
            and len(core.rob) == 0
            and len(core.frontend) == 0
            and fe.pending_branch is None
            and core.trace.get(fe.fetch_idx) is None
        )

    # ============================================================= events

    def schedule(self, cycle: int, kind: int, payload: object) -> None:
        self._ev_count += 1
        heapq.heappush(self._events, (cycle, self._ev_count, kind, payload))

    def process_events(self, c: int) -> int:
        n = 0
        ev = self._events
        handlers = self._handlers
        while ev and ev[0][0] <= c:
            when, _, kind, payload = heapq.heappop(ev)
            n += 1
            handlers[kind](payload, when)
        return n
