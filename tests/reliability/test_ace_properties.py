"""Property tests for ACE attribution.

``BlockedWindows`` answers every query as ``cum(b) - cum(a)``, and
``AceAccountant.charge_commit`` skips attribution when no window time
lies at or after a uop's earliest timestamp. Both are checked here
against slower references: a per-cycle count of the covered cycles, and
the per-structure ``_charge`` + prefix-sum/bisect algorithm that
``charge_commit`` replaced, kept below as the reference oracle.
``charge_commit`` folds a uop's intervals into one weight per timestamp;
the last class checks that on intervals spanning many windows.
"""

from bisect import bisect_left, bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.enums import UopClass
from repro.common.params import BIT_BUDGET
from repro.isa.uop import DynUop, StaticUop
from repro.reliability.ace import AceAccountant, BlockedWindows

# ------------------------------------------------------ reference oracle


class RefWindows:
    """The prefix-sum/bisect window set ``BlockedWindows`` replaced."""

    def __init__(self):
        self._starts, self._ends, self._prefix = [], [], [0]
        self._open_start = -1

    def open(self, cycle):
        if self._open_start < 0:
            self._open_start = cycle

    def close(self, cycle):
        if self._open_start < 0:
            return
        start = self._open_start
        self._open_start = -1
        if cycle <= start:
            return
        if self._starts and start < self._ends[-1]:
            start = max(start, self._ends[-1])
            if cycle <= start:
                return
        self._starts.append(start)
        self._ends.append(cycle)
        self._prefix.append(self._prefix[-1] + (cycle - start))

    def overlap(self, a, b):
        if b <= a:
            return 0
        total = 0
        starts, ends, prefix = self._starts, self._ends, self._prefix
        if starts:
            lo = bisect_right(ends, a)
            hi = bisect_left(starts, b)
            if hi > lo:
                total += prefix[hi] - prefix[lo]
                if starts[lo] < a:
                    total -= a - starts[lo]
                if ends[hi - 1] > b:
                    total -= ends[hi - 1] - b
        if self._open_start >= 0 and b > self._open_start:
            total += b - max(a, self._open_start)
        return total


class RefAccountant:
    """The per-structure ``_charge`` accountant ``charge_commit`` replaced."""

    def __init__(self, fu_exec_cycles):
        self.bits = {s: 0 for s in ("rob", "iq", "lq", "sq", "rf", "fu")}
        self.fu_exec_cycles = fu_exec_cycles
        self.head_blocked = RefWindows()
        self.full_stall = RefWindows()
        self.bits_in_head_blocked = 0
        self.bits_in_full_stall = 0
        self.committed_charged = 0
        self.intervals = []

    def _charge(self, structure, start, end, n):
        if end <= start:
            return
        self.bits[structure] += n * (end - start)
        self.bits_in_head_blocked += n * self.head_blocked.overlap(start, end)
        self.bits_in_full_stall += n * self.full_stall.overlap(start, end)
        self.intervals.append((structure, start, end, n))

    def charge_commit(self, uop):
        s = uop.static
        if s.cls == 0:
            return
        d, i, w, c = (uop.dispatch_cycle, uop.issue_cycle, uop.done_cycle,
                      uop.commit_cycle)
        self._charge("rob", d, c, BIT_BUDGET["rob"])
        if i >= 0:
            self._charge("iq", d, i, BIT_BUDGET["iq"])
            if s.is_load:
                self._charge("lq", i, c, BIT_BUDGET["lq"])
            elif s.is_store:
                self._charge("sq", i, c, BIT_BUDGET["sq"])
        if s.has_dest and w >= 0:
            self._charge("rf", w, c, BIT_BUDGET["fp_reg" if s.is_fp
                                                else "int_reg"])
        fu_start = i if i >= 0 else d
        self._charge("fu", fu_start, fu_start + self.fu_exec_cycles(s.cls),
                     BIT_BUDGET["fp_fu" if s.is_fp else "int_fu"])
        self.committed_charged += 1


# ------------------------------------------------------- window scripts


@st.composite
def monotone_windows(draw, min_windows=0, open_window=None):
    """Windows opened and closed in cycle order, as the commit unit does:
    gaps of 0 make touching windows, lengths of 0 make empty ones, and
    the last window may stay open (always with ``open_window=True``).
    Returns the window list, the open start (or None) and the horizon
    past the last event."""
    t = 0
    windows = []
    for _ in range(draw(st.integers(min_windows, 10))):
        t += draw(st.integers(0, 15))
        length = draw(st.integers(0, 15))
        windows.append((t, t + length))
        t += length
    open_start = None
    if open_window or (open_window is None and draw(st.booleans())):
        open_start = t + draw(st.integers(0, 15))
        t = open_start
    return windows, open_start, t + 20


def replay(w, windows, open_start):
    """Open and close ``w`` (a window set) along the script; returns the
    covered cycles of the recorded windows."""
    covered = set()
    for s, e in windows:
        w.open(s)
        w.open(s + 1)  # a second open while open is ignored
        w.close(e)
        w.close(e + 1)  # a close while closed is ignored
        covered.update(range(s, e))
    if open_start is not None:
        w.open(open_start)
    return covered


def build(windows, open_start):
    w = BlockedWindows()
    return w, replay(w, windows, open_start)


def brute(covered, open_start, a, b):
    """Covered cycles in [a, b); an open window covers up to b."""
    n = sum(1 for x in range(a, b) if x in covered)
    if open_start is not None:
        n += sum(1 for x in range(a, b) if x >= open_start)
    return n


class TestCumMatchesPerCycleCount:
    @given(monotone_windows(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_cum_and_overlap(self, script, data):
        windows, open_start, horizon = script
        w, covered = build(windows, open_start)
        x = data.draw(st.integers(0, horizon))
        assert w.cum(x) == brute(covered, open_start, 0, x)
        a = data.draw(st.integers(0, horizon))
        b = data.draw(st.integers(0, horizon))
        expected = brute(covered, open_start, a, b) if a < b else 0
        assert w.overlap(a, b) == expected
        if a <= b:
            assert w.overlap(a, b) == w.cum(b) - w.cum(a)

    @given(monotone_windows())
    @settings(max_examples=100, deadline=None)
    def test_queries_past_the_last_close(self, script):
        windows, open_start, horizon = script
        w, covered = build(windows, open_start)
        assert w.total_time == len(covered)
        for x in (horizon, horizon + 7):
            extra = x - open_start if open_start is not None else 0
            assert w.cum(x) == len(covered) + extra

    @given(monotone_windows())
    @settings(max_examples=100, deadline=None)
    def test_last_end_tracks_recorded_windows(self, script):
        windows, open_start, _ = script
        w, _ = build(windows, open_start)
        recorded = [e for s, e in windows if e > s]
        assert w.last_end == (recorded[-1] if recorded else 0)
        assert w.is_open == (open_start is not None)


# ------------------------------------------------ charge_commit oracle

CLASSES = [int(c) for c in UopClass]


def fu_cycles(cls):
    return (cls * 7) % 5  # 0 for some classes: an empty FU interval


@st.composite
def commit_script(draw):
    """Window events on both sets interleaved with commits of uops whose
    timestamps are drawn freely (issue/done may be missing or out of
    order), so the quiet fast path meets every ordering."""
    ops = []
    stamp = st.integers(0, 120)
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["open", "close", "commit", "commit"]))
        if kind == "commit":
            ops.append(("commit", draw(st.sampled_from(CLASSES)), draw(stamp),
                        draw(st.one_of(st.just(-1), stamp)),
                        draw(st.one_of(st.just(-1), stamp)), draw(stamp)))
        else:
            ops.append((kind, draw(st.sampled_from(["head_blocked",
                                                    "full_stall"])),
                        draw(stamp)))
    return ops


def dyn(seq, cls, d, i, w, c):
    u = DynUop(StaticUop(idx=seq, pc=4 * seq, cls=cls, addr=0x40), seq=seq)
    u.dispatch_cycle, u.issue_cycle, u.done_cycle, u.commit_cycle = d, i, w, c
    u.completed = True
    return u


class TestChargeCommitMatchesReference:
    @given(commit_script(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_against_per_structure_charge(self, ops, record):
        new = AceAccountant(fu_cycles, record_intervals=record)
        ref = RefAccountant(fu_cycles)
        for seq, op in enumerate(ops):
            if op[0] == "commit":
                new.charge_commit(dyn(seq, *op[1:]))
                ref.charge_commit(dyn(seq, *op[1:]))
            else:
                kind, which, cycle = op
                getattr(getattr(new, which), kind)(cycle)
                getattr(getattr(ref, which), kind)(cycle)
            assert new.bits == ref.bits
            assert new.bits_in_head_blocked == ref.bits_in_head_blocked
            assert new.bits_in_full_stall == ref.bits_in_full_stall
        assert new.committed_charged == ref.committed_charged
        assert new.intervals == (ref.intervals if record else [])


class TestChargeCommitAcrossWindows:
    """Uops whose intervals cross several recorded windows of both sets
    and reach into an open one, with timestamps in pipeline order (issue
    and writeback may be missing): every ``cum`` query of the folded
    weights meets a bisect, a straddled window or the open window."""

    @given(monotone_windows(min_windows=2, open_window=True),
           monotone_windows(min_windows=2), st.data(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_against_per_structure_charge(self, hb_script, fs_script, data,
                                          record):
        new = AceAccountant(fu_cycles, record_intervals=record)
        ref = RefAccountant(fu_cycles)
        for acct in (new, ref):
            replay(acct.head_blocked, *hb_script[:2])
            replay(acct.full_stall, *fs_script[:2])
        horizon = max(hb_script[2], fs_script[2])
        missing = st.just(-1)
        for seq in range(data.draw(st.integers(1, 12))):
            d = data.draw(st.integers(0, horizon))
            i = data.draw(st.one_of(missing, st.integers(d, horizon)))
            w = data.draw(st.one_of(missing, st.integers(max(d, i), horizon)))
            c = data.draw(st.integers(max(d, i, w), horizon + 10))
            cls = data.draw(st.sampled_from(CLASSES))
            new.charge_commit(dyn(seq, cls, d, i, w, c))
            ref.charge_commit(dyn(seq, cls, d, i, w, c))
            assert new.bits == ref.bits
            assert new.bits_in_head_blocked == ref.bits_in_head_blocked
            assert new.bits_in_full_stall == ref.bits_in_full_stall
        assert new.committed_charged == ref.committed_charged
        assert new.intervals == (ref.intervals if record else [])
