"""White-box unit tests of OutOfOrderCore internals."""

import itertools

from repro.common.enums import Mode, UopClass
from repro.common.params import BASELINE
from repro.core.core import OutOfOrderCore, SimStats
from repro.core.runahead import OOO, RAR
from repro.isa.trace import Trace
from repro.isa.uop import StaticUop
from repro.sim import build_core
from repro.workloads.catalog import get_workload

from tests.core.probe import run_until


def linear_trace(n=2000, cls=UopClass.INT_ADD):
    uops = [StaticUop(idx=i, pc=0x1000 + (i % 64) * 4, cls=int(cls),
                      srcs=(i - 1,) if i % 7 == 1 and i else ())
            for i in range(n)]
    return Trace.from_list(uops, name="linear")


class TestSyntheticTraces:
    def test_pure_alu_trace_runs(self):
        core = OutOfOrderCore(BASELINE, linear_trace(), OOO)
        core.run(1000)
        assert core.stats.committed >= 1000
        assert core.ipc > 1.0  # ALU-only code is wide and fast

    def test_nop_trace_commits_but_unace(self):
        core = OutOfOrderCore(BASELINE, linear_trace(cls=UopClass.NOP), OOO)
        core.run(500)
        assert core.stats.committed >= 500
        assert core.ace.total == 0  # NOPs are un-ACE by definition

    def test_trace_exhaustion_terminates_cleanly(self):
        """Finite trace + larger budget -> clean terminal commit, no hang
        (deep regression coverage in tests/validate/test_oracle.py)."""
        core = OutOfOrderCore(BASELINE, linear_trace(100), OOO)
        core.run(200)
        assert core.stats.committed == 100
        assert core.engine.exhausted

    def test_dependent_chain_serialises(self):
        chain = [StaticUop(idx=i, pc=0x1000, cls=int(UopClass.INT_MUL),
                           srcs=(i - 1,) if i else ())
                 for i in range(600)]
        core = OutOfOrderCore(BASELINE, Trace.from_list(chain), OOO)
        core.run(500)
        # 3-cycle multiplies in a serial chain: IPC must be ~1/3.
        assert core.ipc < 0.5


class TestEventStaleness:
    def test_squashed_uop_writeback_ignored(self):
        core = OutOfOrderCore(BASELINE, linear_trace(), OOO)
        core.run(200)
        # Forge a squashed uop with a pending completion event.
        from repro.isa.uop import DynUop
        victim = DynUop(StaticUop(idx=10 ** 6, pc=0, cls=1), seq=10 ** 9)
        victim.squashed = True
        consumer = DynUop(StaticUop(idx=10 ** 6 + 1, pc=0, cls=1),
                          seq=10 ** 9 + 1)
        consumer.pending = 1
        victim.consumers = [consumer]
        core.backend.writeback(victim, core.cycle)
        assert not victim.completed
        assert consumer.pending == 1  # no wakeup from squashed producers


class TestWrongPath:
    def test_wrong_path_uops_enter_backend(self):
        core = OutOfOrderCore(BASELINE,
                              get_workload("mcf").build_trace(), OOO)
        core.run(2500)
        assert core.stats.squashed_mispredict > 0

    def test_pending_branch_cleared_after_resolution(self):
        core = OutOfOrderCore(BASELINE,
                              get_workload("mcf").build_trace(), OOO)
        core.run(2500)
        # Whatever the instantaneous state, a pending branch must be a
        # live, dispatched, unresolved instance.
        pb = core.frontend_stage.pending_branch
        if pb is not None:
            assert not pb.squashed
            assert not pb.completed


class TestStats:
    def test_snapshot_is_flat_dict(self):
        s = SimStats()
        snap = s.snapshot()
        assert snap["committed"] == 0
        snap["committed"] = 99
        assert s.committed == 0  # copy, not a view

    def test_derived_properties_safe_on_fresh_core(self):
        core = OutOfOrderCore(BASELINE, linear_trace(), OOO)
        assert core.ipc == 0.0
        assert core.mlp == 0.0
        assert core.mpki == 0.0


class TestRunaheadDoesNotLeakIntoAce:
    def test_speculative_instances_never_charged(self):
        """ACE charges come only from commits: the charged count must
        equal committed non-NOP instructions."""
        spec = get_workload("libquantum")
        core = OutOfOrderCore(BASELINE, spec.build_trace(), RAR)
        for level, base, size in spec.resident_regions():
            core.mem.preload(base, size, level)
        core.run(3000)
        nops = 0
        for i in range(0, len(spec.body)):
            if spec.body[i].cls == int(UopClass.NOP):
                nops += 1
        assert core.ace.committed_charged <= core.stats.committed
        # At least the non-NOP share of commits must be charged.
        nop_frac = nops / len(spec.body)
        assert core.ace.committed_charged >= \
            core.stats.committed * (1 - nop_frac) * 0.95

    def test_mode_is_consistent_with_blocking(self):
        core, _ = build_core("libquantum", BASELINE, RAR)
        ra = core.runahead_ctl
        visited = itertools.count(1)

        def check(c):
            if c.mode == Mode.RUNAHEAD:
                assert ra.blocking is not None
            else:
                assert ra.blocking is None or c.mode == Mode.FLUSH_STALL
            return next(visited) >= 3000

        assert run_until(core, check, 10 ** 6)
