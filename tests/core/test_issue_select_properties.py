"""Select with parked MSHR-rejected loads vs the retry-every-cycle loop.

``reference_issue`` is the select loop as it stood before rejected loads
were parked: every cycle it re-probes the hierarchy for each rejected
load it reaches, sets the rejects aside and puts them back at the front
of their FIFO afterwards. Hypothesis drives both over the same random
ready lists, widths, FU tables (including a non-pipelined integer unit,
which the loads' address generation shares) and MSHR states, and the
two must agree on everything observable: issue order, writeback events,
the FU scoreboard, the MLP counter and the three per-probe counters.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.enums import UopClass
from repro.common.params import FuParams
from repro.core.engine import EV_WB

from tests.core.issue_harness import dyn, fill_mshrs, make_backend

_LOAD = int(UopClass.LOAD)
_STORE = int(UopClass.STORE)


def reference_issue(be, c):
    """The stash-and-retry select loop, kept as the oracle."""
    iq = be.iq
    if iq._nready == 0:
        return 0
    ready = iq._ready
    issued = 0
    width = be.width
    fus = be.fus
    schedule = be.engine.schedule
    blocked_fu = 0
    stashed = {}
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
        st_ = u.static
        cls = st_.cls
        if not fus.can_issue(cls, c):
            blocked_fu |= 1 << u_cls
            continue
        dq = ready[u_cls]
        dq.popleft()
        if not dq:
            iq._nonempty &= ~(1 << u_cls)
        iq._nready -= 1
        if cls == _LOAD:
            result = be.mem.access(st_.addr, c, pc=st_.pc)
            if result is None:  # MSHRs full: retry next cycle
                stashed.setdefault(u_cls, []).append(u)
                continue
            fus.issue(cls, c)
            done, level, merged = result
            u.mem_level = level
            if level == "dram":
                u.llc_miss = True
                if not merged and not u.wrong_path:
                    u.counted_miss = True
                    be._out_misses += 1
        elif cls == _STORE:
            fus.issue(cls, c)
            done = c + 1
        else:
            done = fus.issue(cls, c)
        u.issue_cycle = c
        schedule(done, EV_WB, u)
        issued += 1
    for fc, uops in stashed.items():
        dq = ready[fc]
        for u in reversed(uops):
            dq.appendleft(u)
        iq._nonempty |= 1 << fc
        iq._nready += len(uops)
    return issued


def reference_squash(iq):
    """Squash as the predicate-based pass did (no parked list)."""
    iq._waiting = {u for u in iq._waiting if not u.squashed}
    for fc, dq in enumerate(iq._ready):
        kept = [u for u in dq if not u.squashed]
        iq._nready -= len(dq) - len(kept)
        dq.clear()
        dq.extend(kept)
        if not kept:
            iq._nonempty &= ~(1 << fc)


_CLASSES = [UopClass.LOAD] * 4 + [
    UopClass.STORE, UopClass.INT_ADD, UopClass.BRANCH, UopClass.INT_MUL,
    UopClass.INT_DIV, UopClass.FP_ADD, UopClass.FP_DIV]


@st.composite
def fu_tables(draw):
    def unit(cls, lat_max, pipelined=None):
        if pipelined is None:
            pipelined = draw(st.booleans())
        return (int(cls), FuParams(count=draw(st.integers(1, 3)),
                                   latency=draw(st.integers(1, lat_max)),
                                   pipelined=pipelined))
    return (unit(UopClass.INT_ADD, 3), unit(UopClass.INT_MUL, 4, True),
            unit(UopClass.INT_DIV, 20, False), unit(UopClass.FP_ADD, 4),
            unit(UopClass.FP_MUL, 5, True), unit(UopClass.FP_DIV, 8, False))


@st.composite
def scenarios(draw):
    lines = [0x10000 + 64 * i for i in range(6)]
    n = draw(st.integers(1, 30))
    uops = [(draw(st.sampled_from(_CLASSES)),
             draw(st.sampled_from(lines)),
             draw(st.integers(0, 24))) for _ in range(n)]
    limit = draw(st.integers(1, 4))
    busy = draw(st.lists(st.integers(1, 40), max_size=limit + 1))
    return dict(
        width=draw(st.integers(1, 8)),
        fus=draw(fu_tables()),
        limit=limit,
        busy=busy,
        resident=draw(st.lists(st.sampled_from(lines), max_size=3)),
        uops=uops,
        visited=draw(st.lists(st.booleans(), min_size=60, max_size=60)),
        squash_at=draw(st.integers(0, 60)),
        squash=draw(st.lists(st.integers(0, n - 1), max_size=4)),
    )


def _observe(be, uops):
    mem, fus = be.mem, be.fus
    return (
        list(be.engine.events),
        [(u.issue_cycle, u.mem_level, u.llc_miss, u.counted_miss)
         for u in uops],
        (list(fus._stamp), list(fus._used),
         {k: list(v) for k, v in fus._unit_free.items()}),
        be._out_misses, be.iq._nready,
        (mem.demand_accesses, mem.l1d.hits, mem.l1d.misses,
         mem.rejected_mshr_full),
    )


class TestParkedSelectMatchesReference:
    @given(scenarios())
    @settings(max_examples=300, deadline=None)
    def test_identical_to_retry_every_cycle(self, sc):
        sides = []
        for _ in range(2):
            be = make_backend(width=sc["width"], fus=sc["fus"],
                              mshrs=sc["limit"])
            for line in sc["resident"]:
                be.mem.l1d.insert(line)
            fill_mshrs(be.mem, sc["busy"])
            uops = [dyn(i + 1, cls, addr=line + 8)
                    for i, (cls, line, _) in enumerate(sc["uops"])]
            sides.append((be, uops))
        (new, new_uops), (ref, ref_uops) = sides
        for c, visit in enumerate(sc["visited"]):
            if not visit:
                continue  # fast-forwarded: neither side steps
            for (be, uops) in sides:
                for u, (_, _, wake) in zip(uops, sc["uops"]):
                    if wake <= c and u.ready_ord < 0 and not u.squashed:
                        be.iq.insert(u)
            if c == sc["squash_at"]:
                for i in sc["squash"]:
                    if new_uops[i].issue_cycle < 0:
                        new_uops[i].squashed = ref_uops[i].squashed = True
                new.iq.squash()
                reference_squash(ref.iq)
            got = new._do_issue(c)
            want = reference_issue(ref, c)
            assert got == want, f"cycle {c}"
            assert _observe(new, new_uops) == _observe(ref, ref_uops), \
                f"cycle {c}"


class TestParkingRule:
    def test_rejected_load_parks_until_first_release(self):
        be = make_backend(width=2, mshrs=1)
        fill_mshrs(be.mem, [30])
        load = dyn(1, UopClass.LOAD, addr=0x20000)
        be.iq.insert(load)
        assert be._do_issue(5) == 0
        assert be.iq._parked == [load] and be.iq.parked_until == 30
        assert be.iq._nready == 1 and be.iq._nonempty == 0
        calls = []
        access = be.mem.access
        be.mem.access = lambda *a, **k: calls.append(a) or access(*a, **k)
        for c in range(6, 30):
            assert be._do_issue(c) == 0
        assert calls == []  # no probe while the MSHR cannot free
        assert be.mem.rejected_mshr_full == 25  # one per visited cycle
        assert be._do_issue(30) == 1
        assert len(calls) == 1 and load.issue_cycle == 30
        assert be.iq._parked == [] and be.iq._nready == 0
