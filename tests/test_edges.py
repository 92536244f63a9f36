"""Mop-up edge coverage across modules."""

import pytest

from repro.common.enums import UopClass
from repro.common.params import BASELINE
from repro.isa.trace import Trace
from repro.isa.uop import StaticUop


class TestTraceFactory:
    def test_from_factory(self):
        def gen():
            for i in range(5):
                yield StaticUop(idx=i, pc=4 * i, cls=int(UopClass.INT_ADD))
        t = Trace.from_factory(gen, name="gen")
        assert t.name == "gen"
        assert t.get(4).idx == 4
        assert t.get(5) is None


class TestWorkloadGeneratorEdges:
    def test_unknown_branch_kind_raises(self):
        from repro.workloads.base import BranchSpec, SlotSpec, WorkloadSpec
        spec = WorkloadSpec(
            name="bad", memory_intensive=False,
            body=(SlotSpec(cls=int(UopClass.BRANCH),
                           branch=BranchSpec(kind="psychic")),),
            patterns={},
        )
        with pytest.raises(ValueError, match="unknown branch kind"):
            spec.build_trace().get(0)

    def test_first_iteration_drops_cross_iteration_deps(self):
        from repro.workloads.base import SlotSpec, WorkloadSpec
        spec = WorkloadSpec(
            name="x", memory_intensive=False,
            body=(
                SlotSpec(cls=int(UopClass.INT_ADD)),
                SlotSpec(cls=int(UopClass.INT_ADD), srcs=((1, 0),)),
            ),
            patterns={},
        )
        t = spec.build_trace()
        assert t.get(1).srcs == ()       # iteration 0: no previous iter
        assert t.get(3).srcs == (0,)     # iteration 1: reads iter-0 slot 0


class TestHierarchyEdges:
    def test_probe_reports_outstanding_line(self):
        from repro.memory.hierarchy import MemoryHierarchy
        m = MemoryHierarchy(BASELINE)
        m.access(0x5000_0000, 0)
        assert m.probe_level(0x5000_0000) == "dram"  # still in flight

    def test_unlimited_mshrs_when_zero(self):
        from dataclasses import replace
        from repro.memory.hierarchy import MemoryHierarchy
        machine = replace(BASELINE, l1d=replace(BASELINE.l1d, mshrs=0),
                          name="nolimit")
        m = MemoryHierarchy(machine)
        for i in range(64):
            assert m.access(0x5000_0000 + 64 * i, 0) is not None


class TestRobTick:
    def test_tick_timer_is_single_cycle_advance(self):
        """Each commit step ticks the head timer by one cycle."""
        from tests.core.window_harness import arrival, dispatch, make_core
        core = make_core([UopClass.INT_ADD], head_timer_init=3)
        dispatch(core)
        c = arrival(core)
        for c in range(c, c + 3):
            core.commit_unit.step(c)
        assert not core.rob.head_timer_expired
        core.commit_unit.step(c + 1)
        assert core.rob.head_timer_expired


class TestSimResultEdges:
    def test_mpki_and_relatives(self):
        from repro.sim import SimResult
        r = SimResult(workload="w", machine="m", policy="p",
                      instructions=1000, cycles=2000, ipc=0.5, mlp=1.0,
                      mpki=10.0, abc={"rob": 100}, abc_total=100,
                      total_bits=1000)
        assert r.avf == 100 / (1000 * 2000)
        base = SimResult(workload="w", machine="m", policy="OOO",
                         instructions=1000, cycles=1000, ipc=1.0, mlp=1.0,
                         mpki=10.0, abc={"rob": 400}, abc_total=400,
                         total_bits=1000)
        assert r.abc_rel(base) == 0.25
        assert r.ipc_rel(base) == 0.5
        # slower run + lower ABC: MTTF improves by 4x (ABC) x2 (time) = 8x
        assert r.mttf_rel(base) == pytest.approx(8.0)


class TestGoldenDeterminism:
    def test_golden_run_stays_stable(self):
        """Golden regression anchor: a fixed tiny run's aggregate results
        should only change when simulator behaviour genuinely changes.
        (Loose bounds: catch gross regressions, tolerate refactors.)"""
        from repro import OOO, simulate
        r = simulate("x264", BASELINE, OOO, instructions=1000, warmup=500)
        assert 0.5 < r.ipc < 3.5
        assert 0 <= r.mpki < 8
        assert r.abc_total > 0
        assert 0.0 < r.avf < 0.8
