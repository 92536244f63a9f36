"""Front-end pipe timing and wrong-path synthesis."""

import pytest

from repro.common.enums import UopClass
from repro.frontend.fetch import WrongPathSource

from tests.core.window_harness import dispatch, make_core


def fetched_core(n=1):
    """A core over ``n`` ALU uops (front-end depth 8, width 4)."""
    return make_core([UopClass.INT_ADD] * n)


class TestFrontEnd:
    """Fetch fills the pipe; a uop leaves it for dispatch ``depth``
    cycles after it was fetched."""

    def test_depth_latency(self):
        core = fetched_core()
        assert core.frontend_stage.step(10) == 1
        assert core.backend._do_dispatch(17) == 0
        assert core.backend._do_dispatch(18) == 1
        assert core.rob.head.dispatch_cycle == 18

    def test_capacity(self):
        core = fetched_core(8)
        fe = core.frontend
        fe.capacity = 3
        assert core.frontend_stage.step(0) == 3
        assert fe.full
        assert core.frontend_stage.step(1) == 0

    def test_fifo_order(self):
        core = fetched_core(2)
        dispatch(core)
        a, b = core.rob
        assert (a.static.idx, b.static.idx) == (0, 1)
        assert a.seq < b.seq

    def test_redirect_clears_and_gates(self):
        core = fetched_core(8)
        fe = core.frontend
        core.frontend_stage.step(0)
        fe.redirect(100)
        assert len(fe) == 0
        assert core.frontend_stage.step(107) == 0
        assert core.frontend_stage.step(108) > 0

    def test_redirect_overrides_previous_gate(self):
        core = fetched_core()
        fe = core.frontend
        fe.redirect(0, penalty=1 << 60)  # parked
        fe.redirect(50)  # re-steer must reopen
        assert core.frontend_stage.step(58) == 1

    def test_next_arrival(self):
        core = fetched_core()
        fe = core.frontend
        assert fe.next_arrival() is None
        core.frontend_stage.step(5)
        assert fe.next_arrival() == 13

    def test_iteration(self):
        core = fetched_core(3)
        core.frontend_stage.step(0)
        assert [u.static.idx for u in core.frontend] == [0, 1, 2]


class TestWrongPathSource:
    def test_negative_indices(self):
        src = WrongPathSource(seed=1)
        for _ in range(10):
            assert src.next_uop().idx < 0

    def test_deterministic(self):
        a = WrongPathSource(seed=5)
        b = WrongPathSource(seed=5)
        for _ in range(20):
            ua, ub = a.next_uop(), b.next_uop()
            assert (ua.cls, ua.addr) == (ub.cls, ub.addr)

    def test_contains_memory_ops(self):
        src = WrongPathSource(seed=2)
        classes = {src.next_uop().cls for _ in range(32)}
        assert int(UopClass.LOAD) in classes
        assert int(UopClass.STORE) in classes

    @pytest.mark.parametrize("sizes", [dict(warm_size=63),
                                       dict(cold_size=0)])
    def test_region_without_a_line_rejected(self, sizes):
        # A line is drawn below the region's line count; with none the
        # draw could never end.
        with pytest.raises(ValueError, match="at least one"):
            WrongPathSource(seed=1, **sizes)

    def test_loads_have_addresses(self):
        src = WrongPathSource(seed=3)
        for _ in range(32):
            u = src.next_uop()
            if u.is_mem:
                assert u.addr >= 0
