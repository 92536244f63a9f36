"""Front-end pipe model.

The front-end is modelled as a latency/bandwidth stage: up to ``width``
uops are fetched per cycle and become dispatchable ``depth`` cycles later
(the 8-stage front-end of Table II). A redirect — branch mispredict
recovery, FLUSH refetch, runahead-exit flush — clears the pipe and gates
fetch until ``resume_cycle``.

Wrong-path fetch: while an unresolved mispredicted branch is in flight the
front-end synthesises wrong-path uops (see :class:`WrongPathSource`); these
allocate back-end resources and may access memory, but are squashed at
branch resolution and are un-ACE.
"""

import random
from collections import deque
from typing import Deque, Optional, Tuple

from repro.common.enums import UopClass
from repro.isa.uop import StaticUop

#: Base PC of the synthesised wrong-path code region.
_WRONG_PATH_PC = 0x100000


class WrongPathSource:
    """Synthesises plausible wrong-path instruction streams.

    Real wrong paths re-execute nearby code with garbage operands; the
    source mimics that with the workload's rough instruction mix, loads to
    arbitrary lines in a large region (cache pollution, MSHR pressure), and
    short dependence chains.
    """

    _MIX = (
        UopClass.INT_ADD, UopClass.INT_ADD, UopClass.LOAD, UopClass.INT_ADD,
        UopClass.BRANCH, UopClass.INT_ADD, UopClass.LOAD, UopClass.STORE,
    )

    #: Wrong paths re-execute nearby code on garbage operands, so most of
    #: their accesses land in data the program already touched (cached);
    #: only a minority reach cold memory.
    COLD_FRACTION = 0.15

    def __init__(self, seed: int, warm_base: int = 0x0800_0000,
                 warm_size: int = 448 * 1024,
                 cold_base: int = 0x7800_0000,
                 cold_size: int = 8 * 1024 * 1024):
        self._rng = random.Random(seed ^ 0xBAD_BAD)
        self._warm_base = warm_base
        self._warm_lines = warm_size // 64
        self._cold_base = cold_base
        self._cold_lines = cold_size // 64
        self._count = 0

    _MIX_INT = tuple(int(c) for c in _MIX)
    #: One shared instance per non-memory slot. A wrong-path uop is always
    #: squashed, and nothing reads a non-memory one beyond its class
    #: traits (it has no sources and never trains the predictor), so it
    #: needs no per-uop identity; ``None`` marks the memory slots, whose
    #: uops carry their own PC and address.
    _SHARED = tuple(
        None if c in (UopClass.LOAD, UopClass.STORE)
        else StaticUop(-1, _WRONG_PATH_PC, int(c))
        for c in _MIX)

    def next_uop(self) -> StaticUop:
        """A wrong-path uop; ``idx`` is negative so it never aliases the trace."""
        self._count += 1
        count = self._count
        slot = count & 7  # len(_MIX) == 8
        shared = self._SHARED[slot]
        if shared is not None:
            return shared
        rng = self._rng
        if rng.random() < self.COLD_FRACTION:
            addr = self._cold_base + rng.randrange(self._cold_lines) * 64
        else:
            addr = self._warm_base + rng.randrange(self._warm_lines) * 64
        return StaticUop(-count, _WRONG_PATH_PC + (count % 251) * 4,
                         self._MIX_INT[slot], (), addr, False)


class FrontEnd:
    """Fetch buffer between the fetch unit and dispatch.

    Payloads are :class:`~repro.isa.uop.DynUop` instances created at fetch
    time (branch prediction happens at fetch, so the dynamic instance and
    its predicted direction already exist when it enters the pipe).
    """

    def __init__(self, width: int, depth: int, capacity: Optional[int] = None):
        self.width = width
        self.depth = depth
        self.capacity = capacity if capacity is not None else width * depth
        #: (dyn_uop, dispatchable_cycle)
        self._pipe: Deque[Tuple[object, int]] = deque()
        self.resume_cycle = 0

    def __len__(self) -> int:
        return len(self._pipe)

    def __iter__(self):
        return (uop for uop, _ in self._pipe)

    @property
    def full(self) -> bool:
        return len(self._pipe) >= self.capacity

    def next_arrival(self) -> Optional[int]:
        """Cycle at which the oldest queued uop becomes dispatchable."""
        if not self._pipe:
            return None
        return self._pipe[0][1]

    def redirect(self, cycle: int, penalty: Optional[int] = None) -> None:
        """Clear the pipe and gate fetch (mispredict/flush recovery).

        Overwrites any previous gate: a redirect always re-steers fetch,
        including reopening a fetch unit that a mechanism had parked.
        """
        self._pipe.clear()
        self.resume_cycle = cycle + (self.depth if penalty is None else penalty)
