"""Reorder buffer with the RAR head countdown timer.

The ROB is a bounded FIFO of in-flight :class:`DynUop`. The 4-bit countdown
timer of Section III-D lives here: it is reset to ``timer_init`` whenever a
new uop becomes the oldest, decremented once per cycle the same uop stays
at the head, and reports expiry — the early-start trigger uses
``head_timer_expired`` together with "head is an outstanding LLC-missing
load" to initiate runahead.
"""

from collections import deque
from typing import Deque, Iterator, List, Optional

from repro.isa.uop import DynUop


class ReorderBuffer:
    def __init__(self, size: int, timer_init: int = 15):
        self.size = size
        self.timer_init = timer_init
        self._q: Deque[DynUop] = deque()
        self._head_seq = -1
        self._timer = timer_init

    def __len__(self) -> int:
        return len(self._q)

    def __iter__(self) -> Iterator[DynUop]:
        return iter(self._q)

    @property
    def full(self) -> bool:
        return len(self._q) >= self.size

    @property
    def head(self) -> Optional[DynUop]:
        return self._q[0] if self._q else None

    def advance_timer(self, cycles: int) -> None:
        q = self._q
        head = q[0] if q else None
        if head is None:
            self._head_seq = -1
            self._timer = self.timer_init
            return
        if head.seq != self._head_seq:
            self._head_seq = head.seq
            self._timer = self.timer_init
            cycles -= 1  # the reset cycle itself counts as residency
        if cycles > 0:
            self._timer = max(0, self._timer - cycles)

    @property
    def timer_remaining(self) -> int:
        return self._timer

    @property
    def head_timer_expired(self) -> bool:
        head = self.head
        return head is not None and head.seq == self._head_seq and self._timer == 0

    def squash_younger(self, seq: int) -> List[DynUop]:
        """Remove and return every uop younger than ``seq`` (exclusive)."""
        out: List[DynUop] = []
        q = self._q
        while q and q[-1].seq > seq:
            out.append(q.pop())
        out.reverse()
        return out

    def squash_all(self) -> List[DynUop]:
        out = list(self._q)
        self._q.clear()
        self._head_seq = -1
        self._timer = self.timer_init
        return out
