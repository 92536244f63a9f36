"""Issue queue with event-driven ready-list wakeup/select.

Dispatch inserts uops with a pending-producer count; completion events
decrement it (wakeup) and move zero-pending uops onto the ready lists,
from which select pulls oldest-first each cycle. Occupancy counts both
waiting and ready-but-unissued uops — an IQ entry is released at *issue*,
which is also the end of its ACE-vulnerable interval.

The ready set is kept as one FIFO deque *per FU class*, with a global
monotonically increasing wakeup stamp (``DynUop.ready_ord``) assigned as
each uop becomes ready. Selection takes the smallest stamp among the
class heads, which reproduces exactly the single-FIFO age order the
scan-based queue used — but lets the select loop skip a whole class in
O(1) once its functional units are exhausted for the cycle, instead of
popping and requeueing every ready uop of that class. The
``iq-ready-coherence`` invariant (``repro.validate``) recomputes
readiness from scratch under ``--validate`` to keep the incremental
lists honest.

Loads the memory hierarchy rejected because every L1 MSHR was busy are
*parked* (``_parked``, oldest first) until ``parked_until`` — the
hierarchy's earliest MSHR release, before which no probe of theirs can
succeed (see ``WindowBackEnd._do_issue``). Parked loads stay counted in
``_nready``: they still hold their IQ entries and are still ready.
"""

from collections import deque
from typing import Deque, List

from repro.common.enums import FU_CLASS, UopClass
from repro.isa.uop import DynUop

#: FU classes are a dense prefix of UopClass (INT_ADD..FP_DIV).
NUM_FU_CLASSES = max(FU_CLASS) + 1
#: the ready FIFO every load waits in (loads share the AGU class)
LOAD_FU_CLASS = FU_CLASS[UopClass.LOAD]


class IssueQueue:
    def __init__(self, size: int):
        self.size = size
        self._waiting: set = set()
        #: per-FU-class FIFO of ready uops, each stamped with ``ready_ord``
        self._ready: List[Deque[DynUop]] = [deque()
                                            for _ in range(NUM_FU_CLASSES)]
        self._nready = 0
        #: bitmask of FU classes whose ready FIFO is non-empty — lets
        #: select iterate only the populated classes
        self._nonempty = 0
        #: next global wakeup-order stamp
        self._next_ord = 0
        #: MSHR-rejected loads taken out of the load FIFO, oldest first;
        #: counted in ``_nready``
        self._parked: List[DynUop] = []
        #: first cycle at which a parked load can be accepted again
        self.parked_until = 0
        #: extra entries claimed by runahead slice uops (lean runahead uses
        #: the *free* IQ entries, per PRE)
        self.runahead_used = 0

    def __len__(self) -> int:
        return len(self._waiting) + self._nready + self.runahead_used

    def _push_ready(self, uop: DynUop) -> None:
        uop.ready_ord = self._next_ord
        self._next_ord += 1
        fc = uop.static.fu_cls
        self._ready[fc].append(uop)
        self._nonempty |= 1 << fc
        self._nready += 1

    def insert(self, uop: DynUop) -> None:
        if len(self._waiting) + self._nready + self.runahead_used \
                >= self.size:
            raise OverflowError("IQ full")
        if uop.pending == 0:
            self._push_ready(uop)
        else:
            self._waiting.add(uop)

    def wakeup(self, uop: DynUop) -> None:
        """Producer completed: move a waiting uop with no more pending
        producers onto its class's ready list."""
        if uop.pending == 0 and uop in self._waiting:
            self._waiting.discard(uop)
            self._push_ready(uop)

    def squash(self) -> int:
        """Drop every queued uop flagged ``squashed``; returns the count."""
        waiting = self._waiting
        dropped = [u for u in waiting if u.squashed]
        for u in dropped:
            waiting.discard(u)
        n = len(dropped)
        removed = 0
        ready = self._ready
        m = self._nonempty
        while m:
            low = m & -m
            m ^= low
            cls = low.bit_length() - 1
            dq = ready[cls]
            kept = [u for u in dq if not u.squashed]
            if len(kept) != len(dq):
                removed += len(dq) - len(kept)
                ready[cls] = deque(kept)
                if not kept:
                    self._nonempty &= ~low
        parked = self._parked
        if parked:
            kept = [u for u in parked if not u.squashed]
            removed += len(parked) - len(kept)
            parked[:] = kept
        self._nready -= removed
        return n + removed

    def clear(self) -> None:
        self._waiting.clear()
        for dq in self._ready:
            dq.clear()
        self._parked.clear()
        self._nready = 0
        self._nonempty = 0
        self.runahead_used = 0
