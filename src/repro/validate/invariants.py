"""Per-cycle invariant checker (the simulator sanitizer).

The checker is a :class:`~repro.core.engine.Component` appended to the
engine's pipeline when a core is built with ``validate=True``. It steps
*last* every simulated cycle — after events, commit, the runahead
controller, issue/dispatch and fetch — and cross-checks state that the
simulator tracks redundantly. Every invariant ties a fast counter to the
ground truth it summarises, so silent drift (the failure mode both
simplified-simulator validation papers document) is caught at the first
cycle it becomes observable instead of surfacing as a quietly wrong
figure.

Invariant catalog (see docs/validation.md for the full rationale):

``rob-order``      ROB entries are age-ordered (seq strictly increasing
                   head→tail) and commits leave the ROB in age order.
``rob-capacity``   ROB occupancy never exceeds ``rob_size``.
``lsq-reconcile``  ``LoadStoreQueues.lq_used``/``sq_used`` equal the
                   number of in-flight uops whose ``in_lq``/``in_sq``
                   flags are set, and stay within capacity.
``reg-leak``       free + runahead-borrowed + held-by-in-flight physical
                   registers equals the rename pool size, per class.
``prdq-leak``      every PRDQ entry corresponds to exactly one borrowed
                   register, the queue respects its capacity, and all
                   runahead loans are returned outside runahead mode.
``iq-capacity``    IQ occupancy (incl. runahead-borrowed entries) within
                   capacity; the runahead-borrow counter never negative.
``iq-ready-coherence``  the event-driven ready lists agree with a
                   from-scratch recomputation: every ready uop has zero
                   pending producers, every waiting uop's ``pending``
                   equals the live consumer references held by in-flight
                   producers, per-class FIFOs are age-ordered
                   (``ready_ord`` strictly increasing), and the
                   ``_nready``/``_nonempty`` summaries match the lists
                   (``_nready`` counts the parked loads too).
``mshr-parked``    MSHR-rejected loads the issue queue parked are
                   ordered, unsquashed, and older than the load FIFO's
                   head; ``_mshr_min`` is the earliest in-flight MSHR
                   release; and before ``parked_until`` the MSHRs are
                   still full and no parked load's line is in L1 or
                   has a live fill — so re-probing it would be rejected.
``fu-scoreboard``  the FU pool's O(1) free-slot counters agree with
                   ground truth recovered from the writeback event heap:
                   pipelined per-class slots used this cycle equal the
                   EV_WB events issued this cycle; non-pipelined busy
                   units equal the in-flight EV_WB events of the class.
``quiesce-coherence``  a quiesced component really has nothing to do:
                   the back-end only quiesces outside NORMAL mode with
                   an empty ready set; the front-end only outside NORMAL
                   mode.
``ace-interval``   every recorded ACE interval is well-formed: known
                   structure, ``end > start``, ``start >= 0``,
                   ``bits >= 0``. A sanitized core's accountant records
                   every interval it charges, for this check and the
                   next.
``ace-capacity``   per-structure live ACE bits never exceed the
                   structure's physical capacity at any cycle
                   (whole-run sweep in :meth:`final_check`).
``stats-formula``  registry formulas (``core.ipc``, ``core.mpki``,
                   ``ace.avf``) reconcile against independently
                   recomputed values from the raw counters.

The per-cycle checks are a single O(ROB) sweep; a sanitized run costs
roughly 2-3x host time. A core built without ``validate=True`` never
constructs the checker — the hot path contains no hook, test or branch
for it (the same wiring pattern as the ``obs`` telemetry layer).
"""

import math
from typing import Dict

from repro.common.enums import Mode
from repro.core.engine import EV_WB, Component
from repro.core.issue_queue import LOAD_FU_CLASS, NUM_FU_CLASSES
from repro.memory.hierarchy import LINE_MASK
from repro.reliability.ace import STRUCTURES

__all__ = ["InvariantChecker", "InvariantViolation"]


class InvariantViolation(AssertionError):
    """One breached invariant, pinned to the cycle it was detected.

    Attributes:
        invariant: catalog name (e.g. ``"lsq-reconcile"``).
        cycle: simulated cycle at detection time.
        detail: human-readable description of the inconsistent state.
    """

    def __init__(self, invariant: str, cycle: int, detail: str):
        self.invariant = invariant
        self.cycle = cycle
        self.detail = detail
        super().__init__(f"[{invariant}] at cycle {cycle}: {detail}")


class InvariantChecker(Component):
    """Cross-checks redundant core state once per simulated cycle.

    Purely observational: it never mutates simulator state, so a
    sanitized run is bit-identical to an unsanitized one. The checker is
    deliberately *not* part of ``core.components`` — it carries no
    architectural state and must stay out of the checkpoint blob (a
    checkpoint captured with the sanitizer on forks cleanly into cores
    with it off, and vice versa).
    """

    name = "invariant_checker"
    state_attrs = ()

    def __init__(self, core) -> None:
        self.core = core
        #: cycles swept (not every wall-clock cycle: fast-forwarded idle
        #: spans are checked once at the jump target, which is exact
        #: because pipeline state is constant across the span)
        self.cycles_checked = 0
        self.commits_checked = 0
        self.ace_intervals_checked = 0
        self.ready_uops_checked = 0
        self.fu_events_checked = 0
        self._last_commit_seq = -1
        self._ace_seen = 0
        self._chained_observer = None

    def bind(self) -> None:
        core = self.core
        self.rob = core.rob
        self.iq = core.iq
        self.lsq = core.lsq
        self.regs = core.regs
        self.prdq = core.prdq
        self.ace = core.ace
        self.stats = core.stats
        self.ra = core.runahead_ctl
        self.engine = core.engine
        self.fus = core.fus
        self.mem = core.mem
        self.backend = core.backend
        self.fe_stage = core.frontend_stage
        self._struct_bits = core.machine.core.structure_bits

    def attach_observer(self) -> None:
        """Chain onto the core's observer hook to watch commit order."""
        self._chained_observer = self.core.observer
        self.core.observer = self._on_event

    def _on_event(self, event: str, cycle: int, **data) -> None:
        if event == "commit":
            uop = data["uop"]
            if uop.seq <= self._last_commit_seq:
                raise InvariantViolation(
                    "rob-order", cycle,
                    f"commit out of age order: seq {uop.seq} after "
                    f"{self._last_commit_seq}")
            self._last_commit_seq = uop.seq
            self.commits_checked += 1
        if self._chained_observer is not None:
            self._chained_observer(event, cycle, **data)

    # =============================================================== step

    def step(self, cycle: int) -> int:
        self.check_cycle(cycle)
        return 0  # observational: never counts as pipeline activity

    def check_cycle(self, cycle: int) -> None:
        """Run every per-cycle invariant; raises on the first breach."""
        self.cycles_checked += 1
        rob = self.rob
        if len(rob) > rob.size:
            raise InvariantViolation(
                "rob-capacity", cycle,
                f"occupancy {len(rob)} > size {rob.size}")

        # One sweep of the in-flight window gathers everything the
        # counters summarise, including the ground-truth producer
        # references for the iq-ready-coherence recomputation (an
        # uncompleted producer holds one entry in ``consumers`` per
        # pending reader it will wake at writeback).
        lq_flags = sq_flags = int_held = fp_held = 0
        consumer_refs: Dict[int, int] = {}
        prev_seq = -1
        for u in rob:
            if u.seq <= prev_seq:
                raise InvariantViolation(
                    "rob-order", cycle,
                    f"seq {u.seq} follows {prev_seq} in the ROB")
            prev_seq = u.seq
            if u.in_lq:
                lq_flags += 1
            elif u.in_sq:
                sq_flags += 1
            for consumer in u.consumers:
                key = id(consumer)
                consumer_refs[key] = consumer_refs.get(key, 0) + 1
            st = u.static
            if st.has_dest:
                if st.is_fp:
                    fp_held += 1
                else:
                    int_held += 1

        lsq = self.lsq
        if lsq.lq_used != lq_flags or lsq.sq_used != sq_flags:
            raise InvariantViolation(
                "lsq-reconcile", cycle,
                f"counters (lq={lsq.lq_used}, sq={lsq.sq_used}) != "
                f"in-flight flags (lq={lq_flags}, sq={sq_flags})")
        if not (0 <= lsq.lq_used <= lsq.lq_size
                and 0 <= lsq.sq_used <= lsq.sq_size):
            raise InvariantViolation(
                "lsq-reconcile", cycle,
                f"occupancy out of range: lq={lsq.lq_used}/{lsq.lq_size}, "
                f"sq={lsq.sq_used}/{lsq.sq_size}")

        regs = self.regs
        for klass, free, borrowed, held, pool in (
            ("int", regs.int_free, regs.runahead_int, int_held,
             regs._int_max_free),
            ("fp", regs.fp_free, regs.runahead_fp, fp_held,
             regs._fp_max_free),
        ):
            if free < 0 or borrowed < 0:
                raise InvariantViolation(
                    "reg-leak", cycle,
                    f"{klass} counters negative: free={free}, "
                    f"runahead={borrowed}")
            if free + borrowed + held != pool:
                raise InvariantViolation(
                    "reg-leak", cycle,
                    f"{klass} registers leak: free={free} + "
                    f"runahead={borrowed} + held={held} != pool={pool}")

        prdq = self.prdq
        if len(prdq) > prdq.size:
            raise InvariantViolation(
                "prdq-leak", cycle,
                f"occupancy {len(prdq)} > size {prdq.size}")
        if regs.runahead_int + regs.runahead_fp != len(prdq):
            raise InvariantViolation(
                "prdq-leak", cycle,
                f"borrowed registers ({regs.runahead_int}+"
                f"{regs.runahead_fp}) != PRDQ entries ({len(prdq)})")
        if self.ra.mode != Mode.RUNAHEAD:
            if len(prdq) or regs.runahead_int or regs.runahead_fp \
                    or self.iq.runahead_used:
                raise InvariantViolation(
                    "prdq-leak", cycle,
                    f"runahead loans outlive the interval in mode "
                    f"{self.ra.mode.name}: prdq={len(prdq)}, "
                    f"regs={regs.runahead_int}+{regs.runahead_fp}, "
                    f"iq={self.iq.runahead_used}")

        iq = self.iq
        if iq.runahead_used < 0 or len(iq) > iq.size:
            raise InvariantViolation(
                "iq-capacity", cycle,
                f"occupancy {len(iq)} (runahead {iq.runahead_used}) "
                f"vs size {iq.size}")

        self._check_iq_ready(cycle, consumer_refs)
        self._check_mshr_parked(cycle)
        self._check_fu_scoreboard(cycle)
        self._check_quiescence(cycle)

        if len(self.ace.intervals) > self._ace_seen:
            self._check_new_intervals(cycle)

    def _check_iq_ready(self, cycle: int,
                        consumer_refs: Dict[int, int]) -> None:
        """Incremental ready lists vs a from-scratch recomputation.

        ``consumer_refs`` maps ``id(uop)`` to the number of in-flight,
        uncompleted producers still holding a wakeup reference to it —
        the ground truth that ``DynUop.pending`` summarises.
        """
        iq = self.iq
        nready = 0
        mask = 0
        seen = set()
        queues = list(enumerate(iq._ready))
        queues.append((LOAD_FU_CLASS, iq._parked))
        for fc, dq in queues:
            nready += len(dq)
            if dq and dq is not iq._parked:
                mask |= 1 << fc
            prev_ord = -1
            for u in dq:
                key = id(u)
                if key in seen:
                    raise InvariantViolation(
                        "iq-ready-coherence", cycle,
                        f"{u!r} queued twice in the ready lists")
                seen.add(key)
                if u.pending != 0:
                    raise InvariantViolation(
                        "iq-ready-coherence", cycle,
                        f"ready uop {u!r} has pending={u.pending}")
                if consumer_refs.get(key, 0):
                    raise InvariantViolation(
                        "iq-ready-coherence", cycle,
                        f"ready uop {u!r} still referenced by "
                        f"{consumer_refs[key]} uncompleted producer(s)")
                if u.squashed:
                    raise InvariantViolation(
                        "iq-ready-coherence", cycle,
                        f"squashed uop {u!r} still on a ready list")
                if u.static.fu_cls != fc:
                    raise InvariantViolation(
                        "iq-ready-coherence", cycle,
                        f"{u!r} (fu class {u.static.fu_cls}) queued under "
                        f"class {fc}")
                if not prev_ord < u.ready_ord < iq._next_ord:
                    raise InvariantViolation(
                        "iq-ready-coherence", cycle,
                        f"wakeup stamps out of order in class {fc}: "
                        f"{u.ready_ord} after {prev_ord} "
                        f"(next stamp {iq._next_ord})")
                prev_ord = u.ready_ord
        if nready != iq._nready:
            raise InvariantViolation(
                "iq-ready-coherence", cycle,
                f"_nready={iq._nready} but the class FIFOs and the parked "
                f"list hold {nready}")
        if mask != iq._nonempty:
            raise InvariantViolation(
                "iq-ready-coherence", cycle,
                f"_nonempty={iq._nonempty:#x} but populated classes are "
                f"{mask:#x}")
        for u in iq._waiting:
            if id(u) in seen:
                raise InvariantViolation(
                    "iq-ready-coherence", cycle,
                    f"{u!r} is both waiting and ready")
            if u.squashed:
                raise InvariantViolation(
                    "iq-ready-coherence", cycle,
                    f"squashed uop {u!r} still waiting in the IQ")
            refs = consumer_refs.get(id(u), 0)
            if u.pending != refs or u.pending <= 0:
                raise InvariantViolation(
                    "iq-ready-coherence", cycle,
                    f"waiting uop {u!r} has pending={u.pending} but "
                    f"{refs} uncompleted producer reference(s)")
        self.ready_uops_checked += nready

    def _check_mshr_parked(self, cycle: int) -> None:
        """Parked loads vs the MSHR state that justifies not probing them.

        :meth:`_check_iq_ready` already holds the parked list to the
        ready-FIFO rules (ordered stamps, unsquashed, no pending
        producer); here it must hold loads only, all older than
        everything still in the load FIFO (issue puts them back at its
        front). ``_mshr_done`` is read
        without pruning, so the check cannot disturb the hierarchy.
        """
        mem = self.mem
        done = mem._mshr_done
        want_min = min(done) if done else 1 << 62
        if mem._mshr_min != want_min:
            raise InvariantViolation(
                "mshr-parked", cycle,
                f"_mshr_min={mem._mshr_min} but the earliest in-flight "
                f"MSHR release is {want_min}")
        iq = self.iq
        parked = iq._parked
        if not parked:
            return
        for u in parked:
            if not u.static.is_load:
                raise InvariantViolation(
                    "mshr-parked", cycle, f"parked uop {u!r} is not a load")
        head = iq._ready[LOAD_FU_CLASS]
        if head and head[0].ready_ord <= parked[-1].ready_ord:
            raise InvariantViolation(
                "mshr-parked", cycle,
                f"parked load {parked[-1]!r} is not older than the load "
                f"FIFO head {head[0]!r}")
        if cycle >= iq.parked_until:
            return
        in_flight = sum(1 for d in done if d > cycle)
        if in_flight < mem.mshr_limit:
            raise InvariantViolation(
                "mshr-parked", cycle,
                f"{len(parked)} load(s) parked until {iq.parked_until} "
                f"but only {in_flight}/{mem.mshr_limit} MSHRs are busy")
        outstanding = mem._outstanding
        for u in parked:
            line = u.static.addr & LINE_MASK
            fill = outstanding.get(line)
            if mem.l1d.contains(line) or (fill is not None
                                          and fill[0] > cycle):
                raise InvariantViolation(
                    "mshr-parked", cycle,
                    f"parked load {u!r} would not be rejected: its line "
                    f"{line:#x} is in L1 or has a live fill")

    def _check_fu_scoreboard(self, cycle: int) -> None:
        """O(1) free-slot counters vs the writeback event heap.

        Every issued uop schedules exactly one EV_WB at a strictly future
        cycle, so at the end of a cycle the heap still holds every uop
        issued this cycle — the ground truth for the pipelined per-cycle
        slot counters — and, for the non-pipelined classes, exactly the
        uops whose unit is still reserved (``done > cycle``), squashed or
        not: a reserved divider stays busy even if its uop was squashed.
        Only events due after ``cycle`` count: :meth:`final_check` runs
        at ``core.cycle``, which the engine has not simulated yet, so a
        writeback due exactly then is still in the heap while its unit
        is already free at ``cycle``.
        """
        issued_now = [0] * NUM_FU_CLASSES
        in_flight = [0] * NUM_FU_CLASSES
        for when, _n, kind, payload in self.engine._events:
            if kind != EV_WB or when <= cycle:
                continue
            fc = payload.static.fu_cls
            in_flight[fc] += 1
            if payload.issue_cycle == cycle:
                issued_now[fc] += 1
            self.fu_events_checked += 1
        fus = self.fus
        for fc, params in fus.params.items():
            if fus._pipelined[fc]:
                got = fus.used_this_cycle(fc, cycle)
                if got != issued_now[fc]:
                    raise InvariantViolation(
                        "fu-scoreboard", cycle,
                        f"pipelined class {fc}: scoreboard says {got} "
                        f"slot(s) used, event heap says {issued_now[fc]}")
                if got > params.count:
                    raise InvariantViolation(
                        "fu-scoreboard", cycle,
                        f"pipelined class {fc}: {got} slots used > "
                        f"{params.count} units")
            else:
                got = fus.busy_units(fc, cycle)
                if got != in_flight[fc]:
                    raise InvariantViolation(
                        "fu-scoreboard", cycle,
                        f"non-pipelined class {fc}: {got} reserved "
                        f"unit(s), event heap says {in_flight[fc]}")

    def _check_quiescence(self, cycle: int) -> None:
        """A quiesced component must provably have nothing to do."""
        mode = self.ra.mode
        if self.backend.quiesced and (
                mode == Mode.NORMAL or self.iq._nready != 0):
            raise InvariantViolation(
                "quiesce-coherence", cycle,
                f"back-end quiesced in mode {mode.name} with "
                f"{self.iq._nready} ready uop(s)")
        if self.fe_stage.quiesced and mode == Mode.NORMAL:
            raise InvariantViolation(
                "quiesce-coherence", cycle,
                "front-end quiesced in NORMAL mode")

    def _check_new_intervals(self, cycle: int) -> None:
        intervals = self.ace.intervals
        for structure, start, end, bits in intervals[self._ace_seen:]:
            if structure not in STRUCTURES:
                raise InvariantViolation(
                    "ace-interval", cycle,
                    f"unknown structure {structure!r}")
            if start < 0 or end <= start:
                raise InvariantViolation(
                    "ace-interval", cycle,
                    f"malformed interval [{start}, {end}) on {structure}")
            if bits < 0:
                raise InvariantViolation(
                    "ace-interval", cycle,
                    f"negative bits {bits} on {structure}")
            self.ace_intervals_checked += 1
        self._ace_seen = len(intervals)

    # ======================================================== final check

    def final_check(self) -> None:
        """Whole-run invariants, called once after the run completes."""
        cycle = self.core.cycle
        self.check_cycle(cycle)
        self._check_ace_capacity(cycle)
        self._check_formulas(cycle)

    def _check_ace_capacity(self, cycle: int) -> None:
        """Per-structure live ACE bits never exceed physical capacity.

        Sweeps each structure's recorded intervals as +bits/-bits deltas
        in cycle order; the running sum is the live ACE bit count, which
        can never exceed the structure's total bits. ``fu`` is skipped:
        functional units are charged width x occupancy but are excluded
        from the paper's AVF denominator, so ``structure_bits`` carries
        no capacity for them.
        """
        per_struct: Dict[str, Dict[int, int]] = {}
        for structure, start, end, bits in self.ace.intervals:
            deltas = per_struct.setdefault(structure, {})
            deltas[start] = deltas.get(start, 0) + bits
            deltas[end] = deltas.get(end, 0) - bits
        for structure, deltas in per_struct.items():
            capacity = self._struct_bits.get(structure, 0)
            if capacity <= 0:
                continue  # fu: no capacity in the AVF denominator
            live = 0
            for c in sorted(deltas):
                live += deltas[c]
                if live > capacity:
                    raise InvariantViolation(
                        "ace-capacity", cycle,
                        f"{structure}: {live} live ACE bits at cycle {c} "
                        f"exceed capacity {capacity}")
            if live != 0:
                raise InvariantViolation(
                    "ace-capacity", cycle,
                    f"{structure}: unterminated intervals leave "
                    f"{live} live bits after the final end")

    def _check_formulas(self, cycle: int) -> None:
        """Registry formulas must match independent recomputation."""
        stats = self.stats
        reg = stats.registry
        cycles = stats.cycles
        expected = {
            "core.ipc": stats.committed / cycles if cycles else 0.0,
            "core.mpki": (1000.0 * stats.demand_llc_misses / stats.committed
                          if stats.committed else 0.0),
        }
        total_bits = self.core.machine.core.total_bits
        denom = total_bits * cycles
        expected["ace.avf"] = self.ace.total / denom if denom else 0.0
        for name, want in expected.items():
            got = reg.value(name)
            if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15):
                raise InvariantViolation(
                    "stats-formula", cycle,
                    f"{name} formula yields {got!r}, independent "
                    f"recomputation yields {want!r}")

    def summary(self) -> Dict[str, int]:
        """Checker effort counters (for reports and tests)."""
        return {
            "cycles_checked": self.cycles_checked,
            "commits_checked": self.commits_checked,
            "ace_intervals_checked": self.ace_intervals_checked,
            "ready_uops_checked": self.ready_uops_checked,
            "fu_events_checked": self.fu_events_checked,
        }
