"""Reorder buffer and the RAR head countdown timer."""

from repro.common.enums import UopClass
from repro.core.rob import ReorderBuffer
from repro.isa.uop import DynUop, StaticUop

from tests.core.window_harness import arrival, dispatch, make_core


def dyn(seq, idx=None):
    return DynUop(
        StaticUop(idx=idx if idx is not None else seq, pc=0x400000,
                  cls=int(UopClass.INT_ADD)), seq=seq)


def fill(rob, uops):
    """Append ``uops`` at the tail, as dispatch does."""
    rob._q.extend(uops)


class TestFifo:
    """Dispatch appends in program order; commit retires the head."""

    def test_push_pop_order(self):
        core = make_core([UopClass.INT_ADD] * 3)
        dispatch(core)
        rob = core.rob
        uops = list(rob)
        assert rob.head is uops[0]
        c = arrival(core) + 1
        uops[0].completed = True
        uops[0].done_cycle = c
        assert core.commit_unit.step(c) == 1
        assert rob.head is uops[1]

    def test_full(self):
        core = make_core([UopClass.INT_ADD] * 3, rob_size=2)
        assert dispatch(core) == 2
        assert core.rob.full
        assert len(core.frontend) == 1  # the third uop waits

    def test_len_and_iter(self):
        core = make_core([UopClass.INT_ADD] * 4)
        dispatch(core)
        assert len(core.rob) == 4
        assert [u.static.idx for u in core.rob] == [0, 1, 2, 3]


class TestSquash:
    def test_squash_younger(self):
        rob = ReorderBuffer(size=8)
        uops = [dyn(i) for i in range(6)]
        fill(rob, uops)
        squashed = rob.squash_younger(2)
        assert [u.seq for u in squashed] == [3, 4, 5]
        assert len(rob) == 3
        assert rob.head is uops[0]

    def test_squash_younger_none_match(self):
        rob = ReorderBuffer(size=8)
        fill(rob, [dyn(1)])
        assert rob.squash_younger(5) == []

    def test_squash_all(self):
        rob = ReorderBuffer(size=8)
        fill(rob, [dyn(i) for i in range(4)])
        squashed = rob.squash_all()
        assert len(squashed) == 4
        assert len(rob) == 0
        assert rob.head is None


class TestHeadTimer:
    def test_counts_down_while_same_head(self):
        rob = ReorderBuffer(size=8, timer_init=15)
        fill(rob, [dyn(1)])
        rob.advance_timer(1)  # reset cycle for the new head
        assert not rob.head_timer_expired
        for _ in range(14):
            rob.advance_timer(1)
        assert not rob.head_timer_expired
        rob.advance_timer(1)
        assert rob.head_timer_expired

    def test_resets_on_new_head(self):
        rob = ReorderBuffer(size=8, timer_init=15)
        a, b = dyn(1), dyn(2)
        fill(rob, [a, b])
        for _ in range(20):
            rob.advance_timer(1)
        assert rob.head_timer_expired
        rob._q.popleft()  # commit retires the head
        rob.advance_timer(1)
        assert not rob.head_timer_expired
        assert rob.timer_remaining == 15

    def test_bulk_advance_equivalent_to_steps(self):
        a = ReorderBuffer(size=8, timer_init=15)
        b = ReorderBuffer(size=8, timer_init=15)
        fill(a, [dyn(1)])
        fill(b, [dyn(1, idx=1)])
        for _ in range(9):
            a.advance_timer(1)
        b.advance_timer(9)
        assert a.timer_remaining == b.timer_remaining

    def test_empty_rob_no_expiry(self):
        rob = ReorderBuffer(size=8)
        rob.advance_timer(100)
        assert not rob.head_timer_expired

    def test_four_bit_semantics(self):
        """The paper's counter is 4 bits: init value must fit."""
        rob = ReorderBuffer(size=8, timer_init=15)
        assert rob.timer_init <= 0b1111
