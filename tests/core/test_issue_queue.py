"""Issue queue wakeup, and select through ``WindowBackEnd._do_issue``."""

import pytest

from repro.common.enums import UopClass
from repro.core.issue_queue import IssueQueue
from repro.isa.uop import DynUop, StaticUop

from tests.core.issue_harness import fill_mshrs, make_backend
from tests.core.issue_harness import dyn as dyn_cls


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
        assert be.iq.ready_count == 1
        assert be._do_issue(0) == 1
        assert issued_seqs(be) == [1] and u.issue_cycle == 0
        assert be.iq.ready_count == 0

    def test_waiting_until_wakeup(self):
        iq = IssueQueue(size=4)
        u = dyn(1, pending=2)
        iq.insert(u)
        assert iq.ready_count == 0
        u.pending -= 1
        iq.wakeup(u)
        assert iq.ready_count == 0  # still one producer outstanding
        u.pending -= 1
        iq.wakeup(u)
        assert iq.ready_count == 1

    def test_wakeup_of_unknown_uop_is_noop(self):
        iq = IssueQueue(size=4)
        iq.wakeup(dyn(9))
        assert iq.ready_count == 0

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
        assert be.iq.ready_count == 1

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
        assert be.iq.ready_count == 1


class TestOccupancy:
    def test_full_counts_waiting_ready_and_runahead(self):
        iq = IssueQueue(size=3)
        iq.insert(dyn(1))
        iq.insert(dyn(2, pending=1))
        iq.runahead_used = 1
        assert iq.full
        assert iq.free == 0
        with pytest.raises(OverflowError):
            iq.insert(dyn(3))

    def test_free(self):
        iq = IssueQueue(size=5)
        iq.insert(dyn(1))
        assert iq.free == 4


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
