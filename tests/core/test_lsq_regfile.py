"""Load/store queues and physical register file accounting."""

import pytest

from repro.common.enums import UopClass
from repro.core.regfile import RegisterFiles
from repro.isa.uop import DynUop, StaticUop

from tests.core.window_harness import arrival, dispatch, make_core


def dyn(cls, seq=1):
    return DynUop(StaticUop(idx=seq, pc=0, cls=int(cls), addr=0x100), seq=seq)


class TestLsq:
    """Dispatch claims LQ/SQ entries; commit and squash release them."""

    def test_load_allocation(self):
        core = make_core([UopClass.LOAD])
        assert dispatch(core) == 1
        u = core.rob.head
        assert core.lsq.lq_used == 1 and u.in_lq
        core.lsq.release(u)
        assert core.lsq.lq_used == 0 and not u.in_lq

    def test_store_allocation(self):
        """A full SQ stalls the next store but not the load ahead of it."""
        core = make_core([UopClass.STORE, UopClass.LOAD, UopClass.STORE],
                         sq_size=1)
        assert dispatch(core) == 2
        store, load = core.rob
        assert store.in_sq and load.in_lq
        assert (core.lsq.sq_used, core.lsq.lq_used) == (1, 1)
        assert len(core.frontend) == 1  # the second store waits

    def test_non_mem_always_allocatable(self):
        core = make_core([UopClass.INT_ADD, UopClass.INT_MUL])
        lsq = core.lsq
        lsq.lq_used, lsq.sq_used = lsq.lq_size, lsq.sq_size
        assert dispatch(core) == 2
        u = core.rob.head
        assert not (u.in_lq or u.in_sq)
        lsq.release(u)  # no-op
        assert (lsq.lq_used, lsq.sq_used) == (lsq.lq_size, lsq.sq_size)

    def test_overflow(self):
        """A full LQ stalls dispatch, which is not a rename stall."""
        core = make_core([UopClass.LOAD, UopClass.LOAD], lq_size=1)
        assert dispatch(core) == 1
        assert core.lsq.lq_used == 1
        assert len(core.frontend) == 1
        assert core.backend._regstall_cycle < 0

    def test_double_release_detected(self):
        core = make_core([UopClass.LOAD])
        dispatch(core)
        lsq, u = core.lsq, core.rob.head
        lsq.release(u)
        u.in_lq = True  # corrupt deliberately
        with pytest.raises(RuntimeError):
            lsq.release(u)

    def test_double_release_with_cleared_flags_raises(self):
        """A second release used to silently no-op (flags already
        cleared), masking commit+squash double-accounting."""
        core = make_core([UopClass.LOAD, UopClass.STORE])
        dispatch(core)
        lsq = core.lsq
        for u in list(core.rob):
            lsq.release(u)
            with pytest.raises(RuntimeError, match="double release"):
                lsq.release(u)
        assert lsq.lq_used == 0 and lsq.sq_used == 0


class TestRegFiles:
    def test_initial_free_excludes_architectural(self):
        r = RegisterFiles(168, 168, arch_regs=32)
        assert r.int_free == 136
        assert r.fp_free == 136

    def test_int_alloc_release(self):
        core = make_core([UopClass.LOAD], int_regs=40, fp_regs=40)
        r = core.regs
        dispatch(core)
        assert r.int_free == 7
        r.release(core.rob.head)
        assert r.int_free == 8

    def test_fp_alloc(self):
        core = make_core([UopClass.FP_MUL], int_regs=40, fp_regs=40)
        dispatch(core)
        assert core.regs.fp_free == 7
        assert core.regs.int_free == 8

    def test_no_dest_no_alloc(self):
        core = make_core([UopClass.STORE, UopClass.NOP, UopClass.INT_CMP,
                          UopClass.BRANCH], int_regs=40, fp_regs=40)
        assert dispatch(core) == 4
        assert core.regs.int_free == 8 and core.regs.fp_free == 8

    def test_exhaustion(self):
        """An empty free pool stalls dispatch and marks a rename stall."""
        core = make_core([UopClass.INT_ADD] * 3, int_regs=34, fp_regs=34)
        assert dispatch(core) == 2
        assert core.regs.int_free == 0
        assert len(core.frontend) == 1
        assert core.backend._regstall_cycle == arrival(core)

    def test_overfree_detected(self):
        r = RegisterFiles(40, 40, arch_regs=32)
        with pytest.raises(RuntimeError):
            r.release(dyn(UopClass.INT_ADD))

    def test_validation(self):
        with pytest.raises(ValueError):
            RegisterFiles(32, 168, arch_regs=32)


class TestRunaheadLending:
    def test_borrow_and_return(self):
        r = RegisterFiles(40, 40, arch_regs=32)
        r.runahead_borrow(fp=False)
        assert r.int_free == 7 and r.runahead_int == 1
        r.runahead_return(fp=False)
        assert r.int_free == 8 and r.runahead_int == 0

    def test_return_all(self):
        r = RegisterFiles(40, 40, arch_regs=32)
        for _ in range(3):
            r.runahead_borrow(fp=False)
        r.runahead_borrow(fp=True)
        r.runahead_return_all()
        assert r.int_free == 8 and r.fp_free == 8
        assert r.runahead_int == 0 and r.runahead_fp == 0

    def test_borrow_exhaustion(self):
        r = RegisterFiles(33, 40, arch_regs=32)
        r.runahead_borrow(fp=False)
        assert not r.runahead_available(fp=False)
        with pytest.raises(OverflowError):
            r.runahead_borrow(fp=False)

    def test_unbalanced_return_detected(self):
        r = RegisterFiles(40, 40, arch_regs=32)
        with pytest.raises(RuntimeError):
            r.runahead_return(fp=False)
