"""Precise Register Deallocation Queue (PRE, Naithani et al. HPCA 2020).

During runahead, slice uops borrow *free* physical registers; the PRDQ
tracks those speculative allocations in order and releases a register as
soon as its value is dead (here: when the borrowing uop's execution
completes — slices are short, so consumers have captured the value by
then). The queue bounds how many runahead allocations can be outstanding;
when full, runahead dispatch stalls until an entry retires.
"""

import heapq
from typing import List, Tuple

from repro.core.regfile import RegisterFiles


class Prdq:
    def __init__(self, size: int, regs: RegisterFiles):
        self.size = size
        self._regs = regs
        #: (release_cycle, is_fp) min-heap — releases are NOT monotonic in
        #: allocation order (a slice op waiting on an in-flight miss holds
        #: its register for the full miss latency), so a FIFO would suffer
        #: head-of-line blocking and starve the pool.
        self._q: List[Tuple[int, bool]] = []
        self.allocations = 0
        self.releases = 0

    def __len__(self) -> int:
        return len(self._q)

    def try_allocate(self, fp: bool, release_cycle: int) -> bool:
        """Lend a free register until ``release_cycle``.

        False, with nothing changed, when the queue is full or the
        register class has no free register.
        """
        if len(self._q) >= self.size or not self._regs.runahead_borrow(fp):
            return False
        heapq.heappush(self._q, (release_cycle, fp))
        self.allocations += 1
        return True

    def drain(self, cycle: int) -> int:
        """Release every allocation whose value is dead by ``cycle``."""
        released = 0
        q = self._q
        while q and q[0][0] <= cycle:
            _, fp = heapq.heappop(q)
            self._regs.runahead_return(fp)
            released += 1
        self.releases += released
        return released

    def next_release(self):
        """Cycle of the next pending release, or None when empty."""
        return self._q[0][0] if self._q else None

    def flush(self) -> None:
        """Runahead over: return everything still borrowed."""
        self._q.clear()
        self._regs.runahead_return_all()
