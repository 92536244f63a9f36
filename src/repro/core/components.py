"""Pipeline components stepped by the :class:`~repro.core.engine.SimEngine`.

The monolithic core is decomposed into four stages behind the
:class:`~repro.core.engine.Component` protocol, stepped in program-order
retirement-first sequence each cycle::

    process completion events → CommitUnit → RunaheadController →
    WindowBackEnd (issue, dispatch) → FrontEndStage (fetch)

Each component *owns* a disjoint slice of the mutable architectural state
(declared in ``state_attrs``) and caches direct references to the shared
hardware structures (ROB, IQ, LSQ, register files, caches, …) in
:meth:`bind` for hot-path speed. The structures themselves are owned by
the :class:`~repro.core.core.OutOfOrderCore` facade; components never
replace a structure object, only mutate it — which is what lets the
checkpoint layer restore state in place without invalidating these
cached references.

Mechanism summary (see DESIGN.md §4 for the full matrix):

- **FLUSH** (Weaver et al.): when a long-latency load blocks the ROB head,
  squash everything younger and idle; refetch when the data returns.
- **Runahead** (TR/PRE/RAR families): freeze the ROB, let a speculative
  cursor run ahead of the blocked window, execute (all | slice-only) future
  uops with spare resources, prefetching their misses. On the blocking
  load's return either keep the frozen window (PRE) or flush the whole
  back-end and refetch from the blocking load (TR/RAR) — flushed residency
  is un-ACE, which is RAR's reliability win.
"""

import heapq
from typing import Dict, List, Optional, Set

from repro.common.enums import Mode, SquashCause, UopClass
from repro.core.engine import EV_RA_DONE, EV_RA_ISSUE, EV_WB, Component
from repro.core.issue_queue import LOAD_FU_CLASS
from repro.isa.uop import DynUop

_LOAD = int(UopClass.LOAD)
_STORE = int(UopClass.STORE)
_BRANCH = int(UopClass.BRANCH)
_NOP = int(UopClass.NOP)


class FrontEndStage(Component):
    """Fetch: correct-path trace cursor + wrong-path synthesis.

    Owns the fetch cursor, the oldest unresolved mispredicted branch
    (``pending_branch``) and the dynamic-uop sequence counter.
    """

    name = "frontend_stage"
    state_attrs = ("fetch_idx", "pending_branch", "_seq", "quiesced")
    # Fetch is gated whenever the core leaves NORMAL mode; the runahead
    # controller flips `quiesced` in RunaheadController.set_mode so the
    # engine skips this stage entirely during runahead/flush intervals.

    def __init__(self, core) -> None:
        self.core = core
        self.fetch_idx = 0          # next correct-path static uop to fetch
        self.pending_branch: Optional[DynUop] = None
        self._seq = 0

    def bind(self) -> None:
        core = self.core
        self.trace = core.trace
        self.frontend = core.frontend
        self.predictor = core.predictor
        self.btb = core.btb
        self.wrong_path_src = core.wrong_path_src
        self.width = core.width
        self.ra = core.runahead_ctl

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def train_branch(self, st) -> bool:
        """Train the predictor and the BTB on correct-path branch ``st``
        and return the direction fetch follows.

        Fetch and the functional warmup walk (``repro.core.fastfwd``)
        both train through here, so they apply the same sequence.
        """
        predicted = self.predictor.observe(st.pc, st.taken)
        target = self.btb.lookup(st.pc)
        self.btb.update(st.pc, st.target)
        if st.taken and target < 0:
            # BTB miss on a taken branch: fetch cannot follow.
            return False
        return predicted

    def step(self, c: int) -> int:
        if self.ra.mode != Mode.NORMAL:
            return 0
        frontend = self.frontend
        if c < frontend.resume_cycle:
            return 0
        # Neither the fetch gate nor the pipe capacity can change while
        # fetching: the gate is checked once, the capacity read once.
        pipe = frontend._pipe
        cap = frontend.capacity
        arrival = c + frontend.depth
        width = self.width
        trace = self.trace
        seq = self._seq
        n = 0
        while n < width and len(pipe) < cap:
            if self.pending_branch is not None:
                st = self.wrong_path_src.next_uop(self.fetch_idx)
                seq += 1
                u = DynUop(st, seq, True)
            else:
                st = trace.get(self.fetch_idx)
                if st is None:
                    break
                seq += 1
                u = DynUop(st, seq)
                if st.cls == _BRANCH:
                    u.predicted_taken = predicted = self.train_branch(st)
                    if predicted != st.taken:
                        self.pending_branch = u
                self.fetch_idx += 1
            pipe.append((u, arrival))
            n += 1
        self._seq = seq
        return n

    def wake_candidates(self, cycle: int):
        if self.ra.mode != Mode.NORMAL:
            return ()
        out = []
        arrival = self.frontend.next_arrival()
        if arrival is not None:
            out.append(arrival)
        if len(self.frontend) == 0 and self.frontend.resume_cycle > cycle:
            out.append(self.frontend.resume_cycle)
        return out


class CommitUnit(Component):
    """In-order retirement from the ROB head (plus the head timer clock).

    Stateless beyond the structures it drives: retirement releases LSQ /
    register resources, charges ACE residency, performs store writes and
    counts MPKI-qualifying LLC-missing loads.
    """

    name = "commit"

    def __init__(self, core) -> None:
        self.core = core
        #: called as ``commit_hook(uop, cycle)`` for every retiring uop,
        #: *before* the commit releases LSQ/register resources — so a
        #: lockstep checker (the commit-stream oracle) can reconcile the
        #: entry this commit is about to free. Wiring, not architectural
        #: state: never captured by checkpoints.
        self.commit_hook = None

    def bind(self) -> None:
        core = self.core
        self.rob = core.rob
        self.lsq = core.lsq
        self.regs = core.regs
        self.ace = core.ace
        self.mem = core.mem
        self.stats = core.stats
        self.width = core.width
        self.ra = core.runahead_ctl
        self.backend = core.backend

    def step(self, c: int) -> int:
        n = 0
        rob = self.rob
        q = rob._q
        if self.ra.mode == Mode.NORMAL and q:
            stats = self.stats
            inflight = self.backend.inflight
            observer = self.core.observer
            hook = self.commit_hook
            while n < self.width:
                head = q[0] if q else None
                if head is None or not head.completed:
                    break
                q.popleft()
                if head.wrong_path:
                    raise RuntimeError("wrong-path uop reached commit")
                head.commit_cycle = c
                if hook is not None:
                    hook(head, c)
                st = head.static
                if st.is_mem:
                    self.lsq.release(head)
                if st.has_dest:
                    self.regs.release(head)
                self.ace.charge_commit(head)
                if head.llc_miss and st.cls == _LOAD:
                    # MPKI counts committed loads whose instance missed
                    # the LLC.
                    stats.demand_llc_misses += 1
                if st.cls == _STORE:
                    # Write-allocate at retirement; never blocks commit.
                    self.mem.access(st.addr, c, is_write=True, pc=st.pc)
                if inflight.get(st.idx) is head:
                    del inflight[st.idx]
                if observer:
                    observer("commit", c, uop=head)
                stats.committed += 1
                n += 1
        # Inlined rob.advance_timer(1): one call per simulated cycle.
        if not q:
            rob._head_seq = -1
            rob._timer = rob.timer_init
        else:
            head = q[0]
            if head.seq != rob._head_seq:
                rob._head_seq = head.seq
                rob._timer = rob.timer_init
            elif rob._timer > 0:
                rob._timer -= 1
        return n

    def wake_candidates(self, cycle: int):
        if self.ra.mode == Mode.NORMAL and self.rob.head is not None \
                and not self.rob.head_timer_expired:
            return (cycle + max(1, self.rob.timer_remaining),)
        return ()

    def skip(self, span: int) -> None:
        self.rob.advance_timer(span)


class WindowBackEnd(Component):
    """Issue + dispatch, writeback, and recovery (squash) paths.

    Owns the dispatch cursor, the in-flight producer map (idx → newest
    correct-path instance), the outstanding-LLC-miss counter feeding MLP,
    and the rename-stall recency used by the late runahead trigger.
    """

    name = "backend"
    state_attrs = ("next_dispatch_idx", "inflight", "_out_misses",
                   "_regstall_cycle", "quiesced")

    def __init__(self, core) -> None:
        self.core = core
        self.next_dispatch_idx = 0  # next correct-path static uop to dispatch
        self.inflight: Dict[int, DynUop] = {}
        self._out_misses = 0
        #: last cycle dispatch was blocked by a rename-register shortage —
        #: treated as a full-window stall for the late runahead trigger
        #: (the window cannot extend further, exactly like a full ROB)
        self._regstall_cycle = -2

    def bind(self) -> None:
        core = self.core
        self.engine = core.engine
        self.frontend = core.frontend
        self.rob = core.rob
        self.iq = core.iq
        self.lsq = core.lsq
        self.regs = core.regs
        self.fus = core.fus
        self.mem = core.mem
        self.stats = core.stats
        self.width = core.width
        self.machine = core.machine
        self.fe = core.frontend_stage
        self.ra = core.runahead_ctl
        self._throttled = core.policy.kind == "throttle"

    def step(self, c: int) -> int:
        n = self._do_issue(c) + self._do_dispatch(c)
        # Outside NORMAL mode the back-end can only issue already-ready
        # frozen-window uops; once the ready lists drain there is nothing
        # to do until a writeback wakes a consumer (which re-arms us) or
        # the mode flips back (set_mode re-arms us).
        if self.iq._nready == 0 and self.ra.mode != Mode.NORMAL:
            self.quiesced = True
        return n

    # ========================================================== writeback

    def writeback(self, uop: DynUop, when: int) -> None:
        if uop.counted_miss:
            self._out_misses -= 1
        if uop.squashed:
            return
        uop.completed = True
        uop.done_cycle = when
        if uop.consumers:
            iq = self.iq
            for consumer in uop.consumers:
                consumer.pending -= 1
                iq.wakeup(consumer)
            uop.consumers = []
            self.quiesced = False
        st = uop.static
        if st.cls == _LOAD and uop.mem_level == "dram" and not uop.wrong_path:
            self.ra.train_sst(st.idx, st.pc)
        if st.cls == _BRANCH and not uop.wrong_path:
            self.stats.branch_resolved += 1
            if uop.mispredicted:
                self.resolve_mispredict(uop, when)

    def ra_miss_done(self, payload, when: int) -> None:
        self._out_misses -= 1

    # ======================================================== mispredicts

    def resolve_mispredict(self, branch: DynUop, when: int) -> None:
        """A correct-path mispredicted branch resolved: recover."""
        self.stats.branch_mispredicted += 1
        observer = self.core.observer
        if observer:
            observer("mispredict", when, branch=branch)
        squashed = self.rob.squash_younger(branch.seq)
        self.release_squashed(squashed, SquashCause.BRANCH_MISPREDICT)
        self.stats.squashed_mispredict += len(squashed)
        # Undispatched queued uops are all younger: drop them.
        self.frontend.redirect(when)
        fe = self.fe
        fe.fetch_idx = branch.static.idx + 1
        self.next_dispatch_idx = branch.static.idx + 1
        if fe.pending_branch is branch or (
                fe.pending_branch is not None and fe.pending_branch.squashed):
            fe.pending_branch = None
        ra = self.ra
        if ra.mode == Mode.RUNAHEAD:
            # Runahead was chasing the wrong path; re-steer the cursor.
            ra._ra_diverged = False
            ra._ra_fetch_idx = branch.static.idx + 1
            ra._ra_resume = max(ra._ra_resume,
                                when + self.machine.core.frontend_depth)

    def release_squashed(self, uops: List[DynUop],
                         cause: SquashCause) -> None:
        observer = self.core.observer
        if observer and uops:
            observer("squash", self.engine.cycle, uops=uops, cause=cause)
        # Only the releases a uop needs: LSQ entries for memory uops,
        # registers for uops with a destination, and the producer map
        # only ever holds correct-path instances.
        inflight = self.inflight
        lsq = self.lsq
        regs = self.regs
        cause = int(cause)
        for u in uops:
            u.squashed = True
            u.squash_cause = cause
            st = u.static
            if st.is_mem:
                lsq.release(u)
            if st.has_dest:
                regs.release(u)
            if not u.wrong_path and inflight.get(st.idx) is u:
                del inflight[st.idx]
        self.iq.squash()

    # ============================================================== issue

    def _do_issue(self, c: int) -> int:
        # Select directly over the IQ's per-class ready FIFOs: repeatedly
        # take the globally oldest head (smallest ready_ord), skipping any
        # FU class already found full this cycle (`blocked_fu` bitmask —
        # sound because within one cycle FU slots only fill, never free).
        #
        # A load the hierarchy rejects (all L1 MSHRs busy) is parked until
        # the earliest MSHR release: before it nothing can enter L1 or the
        # in-flight fill table (a demand miss needs an MSHR; prefetches
        # only follow a successful miss; the in-flight count cannot drop),
        # so every re-probe would be rejected again, with no effect beyond
        # the three per-probe counters. Those are charged in bulk for the
        # probes the retry-every-cycle loop would have made: parked loads
        # are the oldest of the load FIFO and never take an FU slot, so it
        # reached each one unless the load FU was busy from the start or
        # the width ran out at an older uop. Pick order, FU use and the
        # mem.access sequence are unchanged ⇒ bit-identical results.
        iq = self.iq
        if iq._nready == 0:
            return 0
        ready = iq._ready
        fus = self.fus
        mem = self.mem
        parked = iq._parked
        nparked = 0
        if parked:
            if c >= iq.parked_until:
                ready[LOAD_FU_CLASS].extendleft(reversed(parked))
                iq._nonempty |= 1 << LOAD_FU_CLASS
                parked.clear()
            elif fus.can_issue(_LOAD, c):
                nparked = len(parked)
        issued = 0
        width = self.width
        schedule = self.engine.schedule
        blocked_fu = 0
        while issued < width:
            m = iq._nonempty & ~blocked_fu
            u = None
            u_cls = -1
            while m:
                low = m & -m
                m ^= low
                fc = low.bit_length() - 1
                head = ready[fc][0]
                if u is None or head.ready_ord < u.ready_ord:
                    u = head
                    u_cls = fc
            if u is None:
                break
            st = u.static
            cls = st.cls
            if not fus.can_issue(cls, c):
                blocked_fu |= 1 << u_cls
                continue
            dq = ready[u_cls]
            dq.popleft()
            if not dq:
                iq._nonempty &= ~(1 << u_cls)
            if cls == _LOAD:
                result = mem.access(st.addr, c, pc=st.pc)
                if result is None:  # MSHRs full: park until one frees
                    parked.append(u)
                    iq.parked_until = mem._mshr_min
                    continue
                fus.issue(cls, c)  # AGU slot
                done = result.done_cycle
                u.mem_level = result.level
                u.mem_issue_cycle = c
                if result.level == "dram":
                    u.llc_miss = True
                    # MLP counts useful (correct-path) outstanding misses;
                    # wrong-path misses still consume MSHRs and bandwidth.
                    if not result.merged and not u.wrong_path:
                        u.counted_miss = True
                        self._out_misses += 1
            elif cls == _STORE:
                fus.issue(cls, c)
                u.mem_issue_cycle = c
                done = c + 1  # address/data capture; write happens at commit
            else:
                done = fus.issue(cls, c)
            iq._nready -= 1
            u.issue_cycle = c
            schedule(done, EV_WB, u)
            issued += 1
        if nparked:
            if u is not None:
                # Width ran out at `u`: only older parked loads were probed.
                last = u.ready_ord
                n = 0
                while n < nparked and parked[n].ready_ord < last:
                    n += 1
                nparked = n
            mem.demand_accesses += nparked
            mem.l1d.misses += nparked
            mem.rejected_mshr_full += nparked
        return issued

    # =========================================================== dispatch

    def _dispatch_budget(self, c: int) -> int:
        """Per-cycle dispatch width; the THROTTLE policy rate-limits it to
        one uop every 4 cycles while an LLC miss blocks the head."""
        if self._throttled and self.ra.head_blocked_by_miss() is not None:
            return 1 if (c & 3) == 0 else 0
        return self.width

    def _do_dispatch(self, c: int) -> int:
        if self.ra.mode != Mode.NORMAL:
            return 0
        # The budget is loop-invariant (the ROB head only changes at
        # commit/squash, never mid-dispatch), so evaluate it once.
        budget = self._dispatch_budget(c) if self._throttled else self.width
        n = 0
        pipe = self.frontend._pipe
        inflight = self.inflight
        rob = self.rob
        robq = rob._q
        lsq = self.lsq
        regs = self.regs
        iq = self.iq
        while n < budget:
            # The oldest fetched uop dispatches once it has traversed the
            # front-end pipe and the register file, ROB, LQ/SQ and IQ each
            # have room, checked in that order; only a register shortage
            # marks a rename stall for the late runahead trigger.
            if not pipe:
                break
            u, ready_at = pipe[0]
            if ready_at > c:
                break
            st = u.static
            if st.has_dest and (regs.fp_free if st.is_fp
                                else regs.int_free) <= 0:
                self._regstall_cycle = c
                break
            if len(robq) >= rob.size:
                break
            if st.is_load:
                if lsq.lq_used >= lsq.lq_size:
                    break
            elif st.is_store:
                if lsq.sq_used >= lsq.sq_size:
                    break
            cls = st.cls
            if cls != _NOP and len(iq._waiting) + iq._nready \
                    + iq.runahead_used >= iq.size:
                break
            pipe.popleft()
            u.dispatch_cycle = c
            robq.append(u)
            if st.is_load:
                lsq.lq_used += 1
                u.in_lq = True
            elif st.is_store:
                lsq.sq_used += 1
                u.in_sq = True
            if st.has_dest:
                if st.is_fp:
                    regs.fp_free -= 1
                else:
                    regs.int_free -= 1
            if cls == _NOP:
                u.completed = True
                u.done_cycle = c
            else:
                pending = 0
                for src in st.srcs:
                    producer = inflight.get(src)
                    if producer is not None and not producer.completed \
                            and not producer.squashed:
                        pending += 1
                        producer.consumers.append(u)
                if pending:
                    u.pending = pending
                    iq._waiting.add(u)
                else:
                    u.ready_ord = iq._next_ord
                    iq._next_ord += 1
                    fc = st.fu_cls
                    iq._ready[fc].append(u)
                    iq._nonempty |= 1 << fc
                    iq._nready += 1
            if not u.wrong_path:
                inflight[st.idx] = u
                self.next_dispatch_idx = st.idx + 1
            n += 1
        return n


class RunaheadController(Component):
    """Mode transitions and the runahead interval state machine.

    Owns the core's :class:`~repro.common.enums.Mode`, the blocking load,
    every ``_ra_*`` interval register, and the Figure 5 attribution-window
    bookkeeping.
    """

    name = "runahead_ctl"
    state_attrs = ("mode", "blocking", "_ra_interval", "_ra_fetch_idx",
                   "_ra_resume", "_ra_entry_cycle", "_ra_diverged",
                   "_ra_hist_ckpt", "_ra_inv", "_ra_ready",
                   "_ra_iq_releases", "_ra_vec_fill", "_hb_seq", "_fs_seq")

    def __init__(self, core) -> None:
        self.core = core
        self.mode = Mode.NORMAL
        self.blocking: Optional[DynUop] = None
        self._ra_interval = 0
        self._ra_fetch_idx = 0
        self._ra_resume = 0
        self._ra_entry_cycle = 0
        self._ra_diverged = False
        self._ra_hist_ckpt = 0
        self._ra_inv: Set[int] = set()
        self._ra_ready: Dict[int, int] = {}
        self._ra_iq_releases: List[int] = []  # min-heap of release cycles
        self._ra_vec_fill = 0  # vector-runahead group fill counter
        # Attribution window bookkeeping (Figure 5)
        self._hb_seq = -1
        self._fs_seq = -1

    def bind(self) -> None:
        core = self.core
        self.engine = core.engine
        self.trace = core.trace
        self.rob = core.rob
        self.iq = core.iq
        self.prdq = core.prdq
        self.fus = core.fus
        self.sst = core.sst
        self.predictor = core.predictor
        self.frontend = core.frontend
        self.mem = core.mem
        self.ace = core.ace
        self.stats = core.stats
        self.width = core.width
        self.machine = core.machine
        self.fe = core.frontend_stage
        self.backend = core.backend
        self._est_latency = core._est_latency

    def set_mode(self, mode: Mode) -> None:
        """Central mode switch: keeps the quiescence flags of the gated
        components in sync with the mode (the front-end is fully idle
        outside NORMAL; the back-end is idle once its ready lists drain —
        see :class:`WindowBackEnd.step`)."""
        self.mode = mode
        normal = mode == Mode.NORMAL
        self.fe.quiesced = not normal
        if normal:
            self.backend.quiesced = False
        elif self.iq._nready == 0:
            self.backend.quiesced = True

    def step(self, c: int) -> int:
        self.update_windows(c)
        mode = self.mode
        if mode == Mode.NORMAL:
            return self.check_triggers(c)
        if mode == Mode.FLUSH_STALL:
            blocking = self.blocking
            if blocking is not None and blocking.completed:
                # Data returned: head will commit; refetch the rest.
                self.set_mode(Mode.NORMAL)
                self.blocking = None
                self.fe.fetch_idx = self.backend.next_dispatch_idx
                self.frontend.resume_cycle = \
                    c + self.machine.core.frontend_depth
                observer = self.core.observer
                if observer:
                    observer("flush_exit", c)
                return 1
            return 0
        # Mode.RUNAHEAD
        blocking = self.blocking
        if blocking is not None and blocking.completed:
            self.exit_runahead(c)
            return 1
        return self.runahead_advance(c)

    def wake_candidates(self, cycle: int):
        if self.mode != Mode.RUNAHEAD:
            return ()
        out = []
        if self._ra_resume > cycle:
            out.append(self._ra_resume)
        if self._ra_iq_releases and self._ra_iq_releases[0] > cycle:
            out.append(self._ra_iq_releases[0])
        nxt = self.prdq.next_release()
        if nxt is not None and nxt > cycle:
            out.append(nxt)
        return out

    # ============================================== attribution windows

    def update_windows(self, c: int) -> None:
        """Maintain the Figure 5 attribution windows."""
        q = self.rob._q
        head = q[0] if q else None
        ace = self.ace
        blocked = (
            head is not None
            and head.llc_miss
            and not head.completed
            and head.static.cls == _LOAD
            and not head.wrong_path
        )
        if not blocked:
            # Common case first: nothing blocked, close any open windows.
            if ace.head_blocked._open_start >= 0:
                ace.head_blocked.close(c)
            if ace.full_stall._open_start >= 0:
                ace.full_stall.close(c)
            return
        if ace.head_blocked.is_open and self._hb_seq != head.seq:
            ace.head_blocked.close(c)
        if not ace.head_blocked.is_open:
            ace.head_blocked.open(c)
            self._hb_seq = head.seq
        if ace.full_stall.is_open and self._fs_seq != head.seq:
            ace.full_stall.close(c)
        # "Full-window stall": the window cannot grow — ROB full or
        # renaming out of registers (same condition as the late
        # runahead trigger).
        window_stalled = self.rob.full \
            or self.backend._regstall_cycle >= c - 1
        if not ace.full_stall.is_open and window_stalled:
            ace.full_stall.open(c)
            self._fs_seq = head.seq

    def head_blocked_by_miss(self) -> Optional[DynUop]:
        head = self.rob.head
        if (
            head is not None
            and head.static.cls == _LOAD
            and not head.completed
            and not head.wrong_path
            and head.mem_issue_cycle >= 0
            and head.llc_miss
        ):
            return head
        return None

    # =========================================================== triggers

    def check_triggers(self, c: int) -> int:
        policy = self.core.policy
        if policy.kind in ("ooo", "throttle"):
            return 0  # throttling acts in dispatch, not via mode changes
        head = self.head_blocked_by_miss()
        if head is None:
            return 0
        if policy.kind == "flush":
            if not self.rob.head_timer_expired:
                return 0
            self.enter_flush_stall(head, c)
            return 1
        # Runahead variants
        if policy.early:
            if not self.rob.head_timer_expired:
                return 0
        else:
            # Full-window stall: the ROB is full, or renaming ran out of
            # physical registers (the window cannot grow either way). An
            # IQ-full stall does NOT count — that is precisely the case
            # the late-triggering variants miss (Section II-C).
            if not (self.rob.full or self.backend._regstall_cycle >= c - 1):
                return 0
            if (policy.name == "TR"
                    and c - head.mem_issue_cycle
                    >= self.machine.core.tr_recency_cycles):
                return 0
        self.enter_runahead(head, c)
        return 1

    def enter_flush_stall(self, head: DynUop, c: int) -> None:
        backend = self.backend
        fe = self.fe
        squashed = self.rob.squash_younger(head.seq)
        backend.release_squashed(squashed, SquashCause.FLUSH_MECHANISM)
        self.stats.squashed_flush_mechanism += len(squashed)
        self.stats.flush_triggers += 1
        self.frontend.redirect(c, penalty=1 << 60)  # gated until data returns
        if fe.pending_branch is not None and (
                fe.pending_branch.squashed
                or fe.pending_branch.dispatch_cycle < 0):
            fe.pending_branch = None
        backend.next_dispatch_idx = head.static.idx + 1
        self.blocking = head
        self.set_mode(Mode.FLUSH_STALL)
        observer = self.core.observer
        if observer:
            observer("flush_enter", c, blocking=head)

    # =========================================================== runahead

    def enter_runahead(self, head: DynUop, c: int) -> None:
        fe = self.fe
        self.stats.runahead_triggers += 1
        self.stats.ra_trigger_rob_sum += len(self.rob)
        self.blocking = head
        self.set_mode(Mode.RUNAHEAD)
        self._ra_interval += 1
        self._ra_entry_cycle = c
        self._ra_resume = c + 1  # checkpoint RAT, redirect front-end
        # Seed the INV set with everything whose value cannot materialise
        # during the interval: the blocking load itself plus every
        # in-flight, incomplete instruction (transitively) dependent on it.
        # Without this, a trace-driven simulator would leak statically
        # known addresses of data-dependent loads to the prefetcher —
        # letting runahead "prefetch" pointer chains no real runahead can.
        blocked = {head.static.idx}
        for u in self.rob:
            if u is head or u.wrong_path or u.completed:
                continue
            for src in u.static.srcs:
                if src in blocked:
                    blocked.add(u.static.idx)
                    break
        self._ra_inv = blocked
        self._ra_ready = {}
        self._ra_vec_fill = 0
        self._ra_diverged = fe.pending_branch is not None
        self._ra_fetch_idx = self.backend.next_dispatch_idx
        #: branch history is checkpointed with the RAT and restored at exit
        self._ra_hist_ckpt = self.predictor.hist
        observer = self.core.observer
        if observer:
            observer("runahead_enter", c, blocking=head)
        # The front-end is reused by runahead: queued uops are dropped and
        # will be refetched after exit.
        if fe.pending_branch is not None and \
                fe.pending_branch.dispatch_cycle < 0:
            fe.pending_branch = None
            self._ra_diverged = False
        self.frontend.redirect(c, penalty=1 << 60)  # normal fetch off

    def runahead_advance(self, c: int) -> int:
        if c < self._ra_resume:
            self.stats.ra_stall_resume += 1
            return 0
        if self._ra_diverged:
            self.stats.ra_stall_diverged += 1
            return 0
        self.drain_ra_iq(c)
        self.prdq.drain(c)
        policy = self.core.policy
        trace = self.trace
        inflight = self.backend.inflight
        stats = self.stats
        ra_inv = self._ra_inv
        ra_ready = self._ra_ready
        iq = self.iq
        uop_lat = self.fus._uop_latency
        budget = self.width
        progress = 0
        #: runahead-buffer replay skips non-chain uops for free, but the
        #: scan per cycle is still bounded (buffer index hardware).
        free_skips = 16 * self.width if policy.buffer else 0
        while budget > 0:
            st = trace.get(self._ra_fetch_idx)
            if st is None:
                break
            stats.runahead_uops_examined += 1
            idx = st.idx
            inv = False
            for src in st.srcs:
                if src in ra_inv:
                    inv = True
                    break
            if inv:
                ra_inv.add(idx)
            cls = st.cls
            if cls == _BRANCH and policy.buffer:
                # The runahead buffer replays a straight chain: it cannot
                # re-steer. Correctly-predicted branches are invisible to
                # it; a mispredicted one ends the replay.
                predicted = self.predictor.predict(st.pc)
                self.predictor.shift_history(predicted)
                if predicted != st.taken:
                    self._ra_diverged = True
                    self._ra_fetch_idx += 1
                    return progress + 1
                self._ra_fetch_idx += 1
                progress += 1
                if free_skips > 0:
                    free_skips -= 1
                else:
                    budget -= 1
                continue
            if cls == _BRANCH:
                if inv:
                    # Miss-dependent branch: cannot execute, follow the
                    # prediction (speculative history shift, no training).
                    predicted = self.predictor.predict(st.pc)
                    self.predictor.shift_history(predicted)
                    if predicted != st.taken:
                        # Went the wrong way and cannot be repaired: the
                        # rest of the interval is diverged.
                        self._ra_diverged = True
                        self._ra_fetch_idx += 1
                        return progress + 1
                else:
                    # Runahead executes valid branches: predictor trains
                    # and history advances, exactly like normal fetch (a
                    # known side benefit of runahead execution).
                    predicted = self.predictor.observe(st.pc, st.taken)
                    if predicted != st.taken:
                        # Resolve and re-steer the cursor.
                        self._ra_resume = c + self.machine.core.frontend_depth
                        self._ra_fetch_idx += 1
                        return progress + 1
                self._ra_fetch_idx += 1
                budget -= 1
                progress += 1
                continue
            execute = not inv and (not policy.lean or self.sst_hit(st))
            if not execute:
                self._ra_fetch_idx += 1
                progress += 1
                if free_skips > 0:
                    # Buffer replay: non-chain uops never enter the engine.
                    free_skips -= 1
                else:
                    budget -= 1
                continue
            # Vector runahead: consecutive slice instances share one
            # issue/IQ slot per `vector`-wide group.
            vector_free = False
            if policy.vector:
                vector_free = (self._ra_vec_fill % policy.vector) != 0
                self._ra_vec_fill += 1
            # Acquire runahead resources: a free IQ entry, and a register
            # via the PRDQ when the uop writes a destination.
            if not vector_free and (
                    len(iq._waiting) + iq._nready + iq.runahead_used
                    >= iq.size):
                stats.ra_stall_iq += 1
                break
            ready = c
            for src in st.srcs:
                t = ra_ready.get(src)
                if t is None:
                    producer = inflight.get(src)
                    if producer is not None and producer.completed:
                        t = producer.done_cycle
                    else:
                        t = c
                if t > ready:
                    ready = t
            ready += uop_lat[cls]
            if st.has_dest and not vector_free:
                if not self.prdq.can_allocate(st.is_fp):
                    stats.ra_stall_prdq += 1
                    break
                self.prdq.allocate(st.is_fp, ready)
            if not vector_free:
                iq.runahead_used += 1
                heapq.heappush(self._ra_iq_releases, ready)
            stats.runahead_uops_executed += 1
            if cls == _LOAD or cls == _STORE:
                self.engine.schedule(max(ready, c + 1), EV_RA_ISSUE,
                                     (self._ra_interval, st, 0, 0))
                est = self._est_latency[self.mem.probe_level(st.addr)]
                ra_ready[idx] = ready + est
            else:
                ra_ready[idx] = ready
            self._ra_fetch_idx += 1
            if vector_free:
                pass  # batched into the group leader's slot
            elif free_skips > 0 and not execute:
                free_skips -= 1
            else:
                budget -= 1
            progress += 1
        return progress

    def sst_hit(self, st) -> bool:
        hit = self.sst.lookup(st.pc)
        if hit:
            observer = self.core.observer
            if observer:
                observer("sst_hit", self.engine.cycle, pc=st.pc)
        return hit

    def train_sst(self, idx: int, pc: int) -> None:
        """Insert the LLC-missing load's backward slice into the SST."""
        if self.sst.lookup(pc):
            return
        trace = self.trace
        pcs = []
        for i in trace.slice_producers(idx):
            producer = trace.get(i)
            if producer is not None:
                pcs.append(producer.pc)
        pcs.append(pc)
        self.sst.train_slice(pcs)
        observer = self.core.observer
        if observer:
            observer("sst_train", self.engine.cycle, pc=pc,
                     slice_len=len(pcs))

    def drain_ra_iq(self, c: int) -> None:
        rel = self._ra_iq_releases
        while rel and rel[0] <= c:
            heapq.heappop(rel)
            if self.iq.runahead_used > 0:
                self.iq.runahead_used -= 1

    def ra_memory_issue(self, payload, when: int) -> None:
        # ``until``: the earliest MSHR release seen by the last rejected
        # attempt. Before it the attempt is rejected again (see
        # WindowBackEnd._do_issue), so only its counters are charged.
        interval, st, retry, until = payload
        if interval != self._ra_interval or self.mode != Mode.RUNAHEAD:
            return
        mem = self.mem
        if when < until:
            result = None
            mem.demand_accesses += 1
            mem.l1d.misses += 1
            mem.rejected_mshr_full += 1
        else:
            result = mem.access(st.addr, when, is_write=(st.cls == _STORE),
                                pc=st.pc)
            until = mem._mshr_min
        if result is None:
            # MSHRs full: retry with backoff — runahead keeps the MSHRs
            # saturated by design, so an eager retry loop would spin.
            # The chain keeps its backoff steps rather than jumping to
            # ``until``: a later-scheduled event that lands on the same
            # cycle must keep its place behind same-cycle MSHR grabs.
            backoff = min(32, 4 << min(retry, 3))
            self.engine.schedule(when + backoff, EV_RA_ISSUE,
                                 (interval, st, retry + 1, until))
            return
        self.stats.runahead_prefetches += 1
        self._ra_ready[st.idx] = result.done_cycle
        observer = self.core.observer
        if observer:
            observer("runahead_prefetch", when, pc=st.pc,
                     level=result.level)
        if result.level == "dram":
            if st.cls == _LOAD and not self.sst.lookup(st.pc):
                self.train_sst(st.idx, st.pc)
            if not result.merged:
                self.backend._out_misses += 1
                self.engine.schedule(result.done_cycle, EV_RA_DONE, None)

    def exit_runahead(self, c: int) -> None:
        backend = self.backend
        fe = self.fe
        self.stats.runahead_cycles += c - self._ra_entry_cycle
        depth = self.machine.core.frontend_depth
        if self.core.policy.flush_at_exit:
            squashed = self.rob.squash_all()
            backend.release_squashed(squashed,
                                     SquashCause.RUNAHEAD_EXIT_FLUSH)
            self.stats.squashed_runahead_flush += len(squashed)
            blocking_idx = self.blocking.static.idx
            fe.fetch_idx = blocking_idx
            backend.next_dispatch_idx = blocking_idx
            fe.pending_branch = None
            # RAT restore + full refetch from the blocking load.
            self.frontend.redirect(c, penalty=depth)
        else:
            # PRE: the frozen window is kept; refetch only beyond it.
            fe.fetch_idx = backend.next_dispatch_idx
            self.frontend.redirect(c, penalty=depth)
            if fe.pending_branch is not None and \
                    fe.pending_branch.dispatch_cycle < 0:
                fe.pending_branch = None
        self.iq.runahead_used = 0
        self._ra_iq_releases = []
        self.prdq.flush()
        self.predictor.hist = self._ra_hist_ckpt
        self._ra_ready = {}
        self._ra_inv = set()
        self._ra_diverged = False
        observer = self.core.observer
        if observer:
            observer("runahead_exit", c, blocking=self.blocking)
        self.blocking = None
        self.set_mode(Mode.NORMAL)
