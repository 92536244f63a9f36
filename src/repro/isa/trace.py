"""Rewindable, lazily-materialised instruction trace.

The core fetches by index so that squash recovery (branch mispredict,
FLUSH refetch, runahead-exit flush) can simply rewind the fetch cursor:
the trace deterministically replays the same static uops.

Traces are produced by workload generators (``repro.workloads``) as plain
Python generators of :class:`StaticUop`; the trace buffers what has been
generated so far and extends on demand.
"""

from bisect import bisect_right
from typing import Callable, Iterator, List, Optional, Tuple

from repro.isa.uop import StaticUop


class Trace:
    """Buffered view over a generator of :class:`StaticUop`.

    Args:
        source: iterator yielding StaticUops in program order. The uops'
            ``idx`` fields must equal their position in the stream.
        name: human-readable workload name (propagated into results).
    """

    def __init__(self, source: Iterator[StaticUop], name: str = "trace"):
        self._source = source
        self._buf: List[StaticUop] = []
        self._exhausted = False
        self.name = name
        # Phase annotation: either a closure (generated phased workloads)
        # or a sorted (start_idx, phase_id) table (loaded v2 traces). A
        # "live" table may still be growing while the source streams.
        self._phase_fn: Optional[Callable[[int], int]] = None
        self._phase_table: Optional[List[Tuple[int, int]]] = None

    def __len__(self) -> int:
        """Number of uops materialised so far (grows on demand)."""
        return len(self._buf)

    @property
    def exhausted(self) -> bool:
        """True once the source generator has ended: :meth:`get` past
        ``len(self)`` returns None and the stream can no longer grow."""
        return self._exhausted

    def get(self, idx: int) -> Optional[StaticUop]:
        """Return the uop at ``idx``, or None past the end of the stream.

        ``idx`` must be non-negative: a negative cursor (a squash rewind
        gone wrong) would silently wrap around to the *tail* of the
        materialised buffer via Python list indexing and replay the
        wrong instructions, so it raises instead.
        """
        if idx < 0:
            raise IndexError(f"trace index must be non-negative, got {idx}")
        buf = self._buf
        n = len(buf)
        if idx < n:  # fast path: already materialised
            return buf[idx]
        if self._exhausted:
            return None
        source = self._source
        try:
            while n <= idx:
                uop = next(source)
                if uop.idx != n:
                    raise ValueError(
                        f"trace uop idx {uop.idx} out of order (expected {n})"
                    )
                buf.append(uop)
                n += 1
        except StopIteration:
            self._exhausted = True
            return None
        return buf[idx]

    # -------------------------------------------------------- phases

    def set_phase_fn(self, fn: Callable[[int], int]) -> None:
        """Install an analytic phase map (used by phased generators)."""
        self._phase_fn = fn
        self._phase_table = None

    def set_phase_table(self, rows: List[Tuple[int, int]],
                        live: bool = False) -> None:
        """Install a ``(start_idx, phase_id)`` table (used by loaded
        traces). With ``live=True`` the list may still be appended to by
        the streaming source as records materialise."""
        if not live and not rows:
            return
        self._phase_fn = None
        self._phase_table = rows

    def has_phases(self) -> bool:
        return self._phase_fn is not None or bool(self._phase_table)

    def phase_of(self, idx: int) -> int:
        """Phase id of the uop at ``idx`` (0 for unphased traces)."""
        if self._phase_fn is not None:
            return self._phase_fn(idx)
        table = self._phase_table
        if not table:
            return 0
        pos = bisect_right(table, (idx, float("inf")))
        if pos == 0:
            return 0
        return table[pos - 1][1]

    def slice_producers(self, idx: int, max_depth: int = 64) -> List[int]:
        """Backward address-slice of the uop at ``idx``.

        Walks the ``srcs`` chains transitively (bounded by ``max_depth``
        uops) and returns producer trace indices, oldest first.  This is
        the ground-truth slice the Stalling Slice Table learns from.
        """
        uop = self.get(idx)
        if uop is None:
            return []
        seen = set()
        stack = list(uop.srcs)
        while stack and len(seen) < max_depth:
            i = stack.pop()
            if i in seen or i < 0:
                continue
            seen.add(i)
            producer = self.get(i)
            if producer is not None:
                stack.extend(producer.srcs)
        return sorted(seen)

    @classmethod
    def from_list(cls, uops: List[StaticUop], name: str = "trace") -> "Trace":
        trace = cls(iter(()), name=name)
        trace._buf = list(uops)
        trace._exhausted = True
        for pos, uop in enumerate(trace._buf):
            if uop.idx != pos:
                raise ValueError(f"uop idx {uop.idx} != position {pos}")
        return trace

    @classmethod
    def from_factory(
        cls, factory: Callable[[], Iterator[StaticUop]], name: str = "trace"
    ) -> "Trace":
        return cls(factory(), name=name)
