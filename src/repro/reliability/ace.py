"""ACE bit accounting (Mukherjee et al., as configured in Section IV).

An *ACE bit-cycle* is one bit of microarchitectural state that must be
correct, held for one cycle. Charging happens at commit time, per
structure, over the intervals of Figure 2:

- ROB entry: dispatch → commit (120 bits)
- IQ entry: dispatch → issue (80 bits)
- LQ entry: execute → commit (120 bits); SQ entry: 184 bits
- physical register: writeback → commit (64/128 bits)
- functional unit: width × execution cycles

Only instances that architecturally commit are charged. NOPs, wrong-path
uops, runahead-speculative uops and every squashed instance (mispredict
recovery, FLUSH, runahead-exit flush) are un-ACE — this single rule is what
makes flushing-at-exit a reliability optimisation.

:class:`BlockedWindows` implements the Figure 5 attribution experiments:
the total ACE charge that falls inside "ROB head blocked by an LLC miss"
windows and inside "full-ROB stall" windows.
"""

from bisect import bisect_right
from typing import Dict, List

from repro.common.enums import UopClass
from repro.common.params import BIT_BUDGET
from repro.isa.uop import DynUop

STRUCTURES = ("rob", "iq", "lq", "sq", "rf", "fu")


class BlockedWindows:
    """Disjoint, append-only set of [start, end) cycle windows.

    Every query reduces to one primitive, :meth:`cum` — the window time
    in ``[0, x)`` — so the time inside ``[a, b)`` is ``cum(b) - cum(a)``,
    exact integer arithmetic because recorded windows never overlap.
    A query at or past the last recorded end costs O(1); an earlier one
    bisects the end list. Used to attribute ACE charge to the
    miss-shadow windows of Figure 5.
    """

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._prefix: List[int] = [0]  # cumulative window length
        self._open_start = -1
        #: end of the last recorded window (0 before the first one)
        self.last_end = 0

    def open(self, cycle: int) -> None:
        if self._open_start < 0:
            self._open_start = cycle

    @property
    def is_open(self) -> bool:
        return self._open_start >= 0

    def close(self, cycle: int) -> None:
        if self._open_start < 0:
            return
        start = self._open_start
        self._open_start = -1
        if cycle <= start:
            return
        if start < self.last_end:
            # Merge with the previous window if they touch/overlap.
            start = self.last_end
            if cycle <= start:
                return
        self._starts.append(start)
        self._ends.append(cycle)
        self._prefix.append(self._prefix[-1] + (cycle - start))
        self.last_end = cycle

    def cum(self, x: int) -> int:
        """Window time in ``[0, x)``; an open window counts up to ``x``."""
        if x < self.last_end and self._ends:
            j = bisect_right(self._ends, x)  # windows ended by x
            total = self._prefix[j]
            start = self._starts[j]  # the one window that may straddle x
            if start < x:
                total += x - start
        else:
            total = self._prefix[-1]
        if 0 <= self._open_start < x:
            total += x - self._open_start
        return total

    def overlap(self, a: int, b: int) -> int:
        """Total window time intersecting [a, b); includes an open window."""
        if b <= a:
            return 0
        return self.cum(b) - self.cum(a)

    @property
    def total_time(self) -> int:
        return self._prefix[-1]

    @property
    def count(self) -> int:
        return len(self._starts)


class AceAccountant:
    """Accumulates ACE bit-cycles per structure as uops commit.

    With ``record_intervals=True`` every charged (structure, start, end,
    bits) interval is also retained, for the invariant sanitizer's
    ``ace-interval`` and ``ace-capacity`` checks: a core records exactly
    when it is built with ``validate=True``.
    """

    def __init__(self, fu_exec_cycles, record_intervals: bool = False) -> None:
        """``fu_exec_cycles(cls) -> int`` maps uop class to FU occupancy;
        it is tabulated once here, per uop class."""
        self.bits: Dict[str, int] = {s: 0 for s in STRUCTURES}
        self._fu_cycles = tuple(fu_exec_cycles(c)
                                for c in range(len(UopClass)))
        # Per-structure bit widths, hoisted out of the commit hot path.
        self._b_rob = BIT_BUDGET["rob"]
        self._b_iq = BIT_BUDGET["iq"]
        self._b_lq = BIT_BUDGET["lq"]
        self._b_sq = BIT_BUDGET["sq"]
        self._b_int_reg = BIT_BUDGET["int_reg"]
        self._b_fp_reg = BIT_BUDGET["fp_reg"]
        self._b_int_fu = BIT_BUDGET["int_fu"]
        self._b_fp_fu = BIT_BUDGET["fp_fu"]
        #: Figure 5 attribution targets
        self.head_blocked = BlockedWindows()
        self.full_stall = BlockedWindows()
        self.bits_in_head_blocked = 0
        self.bits_in_full_stall = 0
        self.committed_charged = 0
        self.record_intervals = record_intervals
        #: (structure, start_cycle, end_cycle, bits) when recording
        self.intervals: List[tuple] = []

    def charge_commit(self, uop: DynUop) -> None:
        """Charge a committing, correct-path uop (the only ACE case).

        Each structure holds the uop over one interval ``[start, end)``
        and is charged ``bits × (end - start)``; empty intervals charge
        nothing. The share inside a Figure 5 window set is
        ``bits × (cum(end) - cum(start))``. That is linear in ``cum``, so
        the intervals fold into one weight per timestamp (dispatch, issue,
        writeback, commit, FU end) and a live set's ``cum`` is read once
        per timestamp; a set holding no time at or after the uop's
        earliest timestamp is skipped outright.
        """
        st = uop.static
        cls = st.cls
        if cls == 0:  # NOP: architecturally dead, un-ACE by definition
            return
        d, i, w, c = (uop.dispatch_cycle, uop.issue_cycle, uop.done_cycle,
                      uop.commit_cycle)
        fp = st.is_fp
        rf = st.has_dest and w >= 0
        fu = self._fu_cycles[cls]
        bits = self.bits
        lo = d  # earliest interval start
        if c > d:
            bits["rob"] += self._b_rob * (c - d)
        if i >= 0:
            if i > d:
                bits["iq"] += self._b_iq * (i - d)
            if c > i:
                if st.is_load:
                    bits["lq"] += self._b_lq * (c - i)
                elif st.is_store:
                    bits["sq"] += self._b_sq * (c - i)
            if i < lo:
                lo = i
        if rf:
            if c > w:
                bits["rf"] += (self._b_fp_reg if fp
                               else self._b_int_reg) * (c - w)
            if w < lo:
                lo = w
        if fu > 0:
            # Functional units: width × execution cycles, anchored at issue.
            bits["fu"] += (self._b_fp_fu if fp else self._b_int_fu) * fu
        self.committed_charged += 1

        if self.record_intervals:
            self._record(st, d, i, w, c, fu)
        hb = self.head_blocked
        fs = self.full_stall
        hb_live = hb._open_start >= 0 or hb.last_end > lo
        fs_live = fs._open_start >= 0 or fs.last_end > lo
        if not (hb_live or fs_live):
            return  # quiet: no window time at or after ``lo``
        # The same non-empty intervals as above, as weights of cum(d),
        # cum(i), cum(w), cum(c) and cum(e), e the FU end.
        kd = ki = kw = kc = ke = 0
        if c > d:
            kc = self._b_rob
            kd = -kc
        if i >= 0:
            if i > d:
                ki = self._b_iq
                kd -= ki
            if c > i and st.is_mem:
                n = self._b_lq if st.is_load else self._b_sq
                kc += n
                ki -= n
        if rf and c > w:
            kw = -(self._b_fp_reg if fp else self._b_int_reg)
            kc -= kw
        e = 0
        if fu > 0:
            ke = self._b_fp_fu if fp else self._b_int_fu
            if i >= 0:
                e = i + fu
                ki -= ke
            else:
                e = d + fu
                kd -= ke
        weights = ((d, kd), (i, ki), (w, kw), (c, kc), (e, ke))
        if hb_live:
            self.bits_in_head_blocked += _window_bits(hb, weights)
        if fs_live:
            self.bits_in_full_stall += _window_bits(fs, weights)

    def _record(self, st, d: int, i: int, w: int, c: int, fu: int) -> None:
        """Append the non-empty (structure, start, end, bits) intervals
        :meth:`charge_commit` charged, in charge order."""
        fp = st.is_fp
        spans = [("rob", d, c, self._b_rob)]
        if i >= 0:
            spans.append(("iq", d, i, self._b_iq))
            if st.is_load:
                spans.append(("lq", i, c, self._b_lq))
            elif st.is_store:
                spans.append(("sq", i, c, self._b_sq))
        if st.has_dest and w >= 0:
            spans.append(("rf", w, c,
                          self._b_fp_reg if fp else self._b_int_reg))
        fu_start = i if i >= 0 else d
        spans.append(("fu", fu_start, fu_start + fu,
                      self._b_fp_fu if fp else self._b_int_fu))
        self.intervals.extend(s for s in spans if s[2] > s[1])

    @property
    def total(self) -> int:
        return sum(self.bits.values())

    def avf(self, total_bits: int, cycles: int) -> float:
        """AVF = ABC / (N × T), 0.0 when the exposure volume is empty."""
        denom = total_bits * cycles
        return self.total / denom if denom else 0.0

    def snapshot(self) -> Dict[str, int]:
        return dict(self.bits)


def _window_bits(windows: BlockedWindows, weights) -> int:
    """``Σ k × windows.cum(t)`` over the ``(t, k)`` pairs with ``k != 0``."""
    cum = windows.cum
    total = 0
    for t, k in weights:
        if k:
            total += k * cum(t)
    return total
