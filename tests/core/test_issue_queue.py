"""Issue queue wakeup through ``WindowBackEnd.writeback``, and select
through ``WindowBackEnd._do_issue``."""

import pytest

from repro.common.enums import UopClass
from repro.core.issue_queue import IssueQueue
from repro.isa.uop import DynUop, StaticUop

from tests.core.issue_harness import fill_mshrs, make_backend
from tests.core.issue_harness import dyn as dyn_cls
from tests.core.window_harness import arrival, dispatch, make_core


def dyn(seq, pending=0):
    u = DynUop(StaticUop(idx=seq, pc=0, cls=int(UopClass.INT_ADD)), seq=seq)
    u.pending = pending
    return u


def issued_seqs(be):
    return [seq for _cycle, _kind, seq in be.engine.events]


class TestInsertSelect:
    def test_ready_at_insert(self):
        be = make_backend(width=1)
        u = dyn(1)
        be.iq.insert(u)
        assert be.iq._nready == 1
        assert be._do_issue(0) == 1
        assert issued_seqs(be) == [1] and u.issue_cycle == 0
        assert be.iq._nready == 0

    def test_waiting_until_wakeup(self):
        """Writeback wakes a waiting consumer onto the ready list only
        once its last producer completes."""
        core = make_core([UopClass.INT_ADD] * 3, deps={2: (0, 1)})
        assert dispatch(core) == 3
        p0, p1, consumer = core.rob
        iq = core.iq
        assert consumer.pending == 2 and consumer in iq._waiting
        c = arrival(core)
        assert core.backend._do_issue(c) == 2
        assert iq._nready == 0
        core.backend.writeback(p0, c + 1)
        assert consumer.pending == 1
        assert iq._nready == 0  # still one producer outstanding
        core.backend.writeback(p1, c + 1)
        assert consumer.pending == 0 and consumer not in iq._waiting
        assert iq._nready == 1
        assert list(iq._ready[consumer.static.fu_cls]) == [consumer]
        assert p0.consumers == () and p1.consumers == ()

    def test_wakeup_of_unknown_uop_is_noop(self):
        """A consumer no longer in the waiting set (squashed out of the
        IQ) is not put on a ready list by its producer's writeback."""
        core = make_core([UopClass.INT_ADD] * 2, deps={1: (0,)})
        assert dispatch(core) == 2
        producer, consumer = core.rob
        iq = core.iq
        c = arrival(core)
        assert core.backend._do_issue(c) == 1
        consumer.squashed = True
        iq.squash()
        core.backend.writeback(producer, c + 1)
        assert iq._nready == 0
        assert not any(iq._ready)

    def test_requeue_preserves_front(self):
        """A load the MSHRs turned away goes back to the front of the
        load FIFO, ahead of loads woken after it."""
        be = make_backend(width=1, mshrs=1)
        fill_mshrs(be.mem, [5])
        a = dyn_cls(1, UopClass.LOAD, addr=0x20000)
        b = dyn_cls(2, UopClass.LOAD, addr=0x30000)
        be.iq.insert(a)
        assert be._do_issue(0) == 0
        be.iq.insert(b)
        assert be._do_issue(5) == 1
        assert issued_seqs(be) == [1]
        assert be.iq._nready == 1

    def test_oldest_ready_issues_first_across_classes(self):
        be = make_backend(width=2)
        mul = dyn_cls(1, UopClass.INT_MUL)
        add = dyn_cls(2, UopClass.INT_ADD)
        div = dyn_cls(3, UopClass.INT_DIV)
        for u in (mul, add, div):
            be.iq.insert(u)
        assert be._do_issue(0) == 2
        assert issued_seqs(be) == [1, 2]

    def test_busy_fu_class_is_skipped(self):
        be = make_backend(width=4)
        divs = [dyn_cls(i, UopClass.INT_DIV) for i in (1, 2)]
        add = dyn_cls(3, UopClass.INT_ADD)
        for u in (*divs, add):
            be.iq.insert(u)
        assert be._do_issue(0) == 2  # one divider: the second div waits
        assert issued_seqs(be) == [1, 3]
        assert be.iq._nready == 1


class TestOccupancy:
    """Dispatch admits a uop only while the IQ has a free entry."""

    def test_full_counts_waiting_ready_and_runahead(self):
        core = make_core([UopClass.INT_ADD] * 3, deps={1: (0,)}, iq_size=3)
        iq = core.iq
        iq.runahead_used = 1
        assert dispatch(core) == 2  # one ready, one waiting: full
        assert iq._nready == 1 and len(iq._waiting) == 1
        assert len(iq) == iq.size
        assert len(core.frontend) == 1
        with pytest.raises(OverflowError):
            iq.insert(dyn(9))

    def test_free(self):
        """A NOP takes no IQ entry, so it passes a full IQ."""
        core = make_core([UopClass.INT_ADD, UopClass.NOP, UopClass.INT_ADD],
                         iq_size=1)
        assert dispatch(core) == 2
        assert len(core.iq) == 1
        assert [u.static.idx for u in core.rob] == [0, 1]


class TestSquash:
    def test_squash_predicate(self):
        """``squash`` drops exactly the uops flagged ``squashed``: waiting,
        ready and parked alike."""
        be = make_backend(width=4, mshrs=1)
        fill_mshrs(be.mem, [50])
        iq = be.iq
        keep, drop = dyn(1), dyn(2)
        drop.squashed = True
        wait_drop = dyn(3, pending=1)
        wait_drop.squashed = True
        parked = dyn_cls(4, UopClass.LOAD, addr=0x20000)
        iq.insert(parked)
        be._do_issue(0)
        assert iq._parked == [parked]
        parked.squashed = True
        iq.insert(keep)
        iq.insert(drop)
        iq.insert(wait_drop)
        n = iq.squash()
        assert n == 3
        assert len(iq) == 1 and iq._parked == []
        assert be._do_issue(1) == 1
        assert issued_seqs(be) == [1]

    def test_clear(self):
        iq = IssueQueue(size=8)
        iq.insert(dyn(1))
        iq.runahead_used = 3
        iq.clear()
        assert len(iq) == 0
        assert iq.runahead_used == 0
