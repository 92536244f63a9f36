"""End-to-end core simulation: mechanism semantics and invariants.

These tests run short simulations on catalog workloads and assert the
*mechanisms* behave as specified: triggers fire under the right conditions,
squashed state is un-ACE, modes transition correctly, and bookkeeping
(registers, LSQ, IQ) balances out.
"""

import pytest

from repro.common.enums import Mode
from repro.common.params import BASELINE
from repro.core.core import OutOfOrderCore
from repro.core.runahead import (
    FLUSH, OOO, PRE, PRE_EARLY, RAR, RAR_LATE, TR, TR_EARLY,
)
from repro.sim import build_core
from repro.workloads.catalog import get_workload

from tests.core.probe import run_until


def run_core(workload="libquantum", policy=OOO, instructions=4000,
             machine=BASELINE, preload=True):
    spec = get_workload(workload)
    core = OutOfOrderCore(machine, spec.build_trace(), policy)
    if preload:
        for level, base, size in spec.resident_regions():
            core.mem.preload(base, size, level)
    core.run(instructions)
    return core


class TestBaselineInvariants:
    def test_commits_requested_instructions(self):
        core = run_core(instructions=2000)
        assert core.stats.committed >= 2000

    def test_resources_balance_at_quiesce(self):
        core = run_core(instructions=3000)
        # In-flight occupancy is bounded by structure sizes at all times;
        # at this instant the accounting must be internally consistent.
        assert 0 <= core.lsq.lq_used <= core.lsq.lq_size
        assert 0 <= core.lsq.sq_used <= core.lsq.sq_size
        assert 0 <= core.regs.int_free <= core.regs.int_total
        assert 0 <= core.regs.fp_free <= core.regs.fp_total
        assert len(core.iq) <= core.iq.size
        assert len(core.rob) <= core.rob.size

    def test_ooo_never_triggers_mechanisms(self):
        core = run_core(policy=OOO)
        assert core.stats.runahead_triggers == 0
        assert core.stats.flush_triggers == 0
        assert core.mode == Mode.NORMAL or core.mode == Mode.NORMAL

    def test_memory_workload_exposes_blocked_windows(self):
        core = run_core(policy=OOO)
        assert core.ace.head_blocked.total_time > 0
        assert core.ace.bits_in_head_blocked > 0

    def test_compute_workload_rarely_blocked(self):
        mem = run_core("libquantum", OOO, 2500)
        cmp_ = run_core("exchange2", OOO, 2500)
        mem_share = mem.ace.bits_in_head_blocked / mem.ace.total
        cmp_share = cmp_.ace.bits_in_head_blocked / max(1, cmp_.ace.total)
        assert mem_share > cmp_share

    def test_branches_resolve(self):
        core = run_core("mcf", OOO, 3000)
        assert core.stats.branch_resolved > 0
        assert core.stats.branch_mispredicted > 0
        assert core.stats.squashed_mispredict > 0

    def test_ace_monotone_nonnegative(self):
        core = run_core(instructions=2000)
        assert all(v >= 0 for v in core.ace.bits.values())
        assert core.ace.total > 0


class TestFlushMechanism:
    def test_triggers_on_memory_workload(self):
        core = run_core("libquantum", FLUSH)
        assert core.stats.flush_triggers > 0
        assert core.stats.squashed_flush_mechanism > 0
        assert core.stats.flush_stall_cycles > 0

    def test_reduces_abc_but_costs_ipc(self):
        base = run_core("libquantum", OOO)
        fl = run_core("libquantum", FLUSH)
        base_abc = base.ace.total / base.stats.committed
        fl_abc = fl.ace.total / fl.stats.committed
        assert fl_abc < base_abc * 0.5
        assert fl.ipc < base.ipc

    def test_no_triggers_without_misses(self):
        core = run_core("exchange2", FLUSH, 2500)
        assert core.stats.flush_triggers <= 2


class TestRunaheadTriggers:
    def test_pre_triggers_on_full_window(self):
        core = run_core("libquantum", PRE)
        assert core.stats.runahead_triggers > 0
        assert core.stats.runahead_uops_executed > 0
        assert core.stats.runahead_prefetches > 0

    def test_early_start_enters_with_emptier_window(self):
        """The early-start condition initiates runahead as soon as the
        head blocks — before the window fills — so mean ROB occupancy at
        entry must be lower than for the late (full-window) trigger."""
        late = run_core("mcf", RAR_LATE, 3000)
        early = run_core("mcf", RAR, 3000)
        assert late.stats.runahead_triggers > 0
        assert early.stats.runahead_triggers > 0
        occ_late = late.stats.ra_trigger_rob_sum / late.stats.runahead_triggers
        occ_early = early.stats.ra_trigger_rob_sum / early.stats.runahead_triggers
        assert occ_early < occ_late

    def test_flush_at_exit_squashes(self):
        core = run_core("libquantum", RAR)
        assert core.stats.squashed_runahead_flush > 0

    def test_pre_exit_keeps_window(self):
        core = run_core("libquantum", PRE)
        assert core.stats.squashed_runahead_flush == 0

    def test_lean_executes_fewer_uops_than_tr(self):
        tr = run_core("libquantum", TR)
        rar_late = run_core("libquantum", RAR_LATE)
        if (tr.stats.runahead_uops_examined and
                rar_late.stats.runahead_uops_examined):
            tr_frac = (tr.stats.runahead_uops_executed
                       / tr.stats.runahead_uops_examined)
            lean_frac = (rar_late.stats.runahead_uops_executed
                         / rar_late.stats.runahead_uops_examined)
            assert lean_frac <= tr_frac

    def test_runahead_improves_reliability_when_flushing(self):
        base = run_core("libquantum", OOO)
        rar = run_core("libquantum", RAR)
        abc_base = base.ace.total / base.stats.committed
        abc_rar = rar.ace.total / rar.stats.committed
        assert abc_rar < abc_base * 0.5

    def test_pre_performance_at_least_baseline(self):
        base = run_core("lbm", OOO)
        pre = run_core("lbm", PRE)
        assert pre.ipc > base.ipc * 0.95


class TestModeTransitions:
    def test_runahead_mode_entered_and_left(self):
        core, _ = build_core("libquantum", BASELINE, RAR)
        seen_modes = set()

        def watch(c):
            seen_modes.add(c.mode)
            return False

        run_until(core, watch, 4000)
        assert Mode.RUNAHEAD in seen_modes
        assert Mode.NORMAL in seen_modes

    def test_blocking_load_cleared_after_exit(self):
        core = run_core("libquantum", RAR)
        if core.mode == Mode.NORMAL:
            assert core.runahead_ctl.blocking is None

    def test_runahead_state_reset_between_intervals(self):
        core = run_core("libquantum", RAR)
        if core.mode == Mode.NORMAL:
            assert core.iq.runahead_used == 0
            assert len(core.prdq) == 0
            assert core.regs.runahead_int == 0
            assert core.regs.runahead_fp == 0


class TestDeterminism:
    @pytest.mark.parametrize("policy", [OOO, FLUSH, PRE, RAR, TR_EARLY,
                                        PRE_EARLY])
    def test_repeatable(self, policy):
        a = run_core("soplex", policy, 1500)
        b = run_core("soplex", policy, 1500)
        assert a.cycle == b.cycle
        assert a.stats.committed == b.stats.committed
        assert a.ace.total == b.ace.total


class TestScaledMachines:
    def test_bigger_core_exposes_more_state(self):
        """Figure 4: ABC grows with back-end structure size."""
        from repro.common.params import CORE1, CORE4
        small = run_core("libquantum", OOO, 2500, machine=CORE1)
        big = run_core("libquantum", OOO, 2500, machine=CORE4)
        abc_small = small.ace.total / small.stats.committed
        abc_big = big.ace.total / big.stats.committed
        assert abc_big > abc_small * 1.2

    def test_rar_closes_scaling_gap(self):
        """Figure 10: RAR's ABC stays nearly flat across core sizes."""
        from repro.common.params import CORE1, CORE4
        small = run_core("libquantum", RAR, 2500, machine=CORE1)
        big = run_core("libquantum", RAR, 2500, machine=CORE4)
        ooo_small = run_core("libquantum", OOO, 2500, machine=CORE1)
        ooo_big = run_core("libquantum", OOO, 2500, machine=CORE4)
        ooo_growth = (ooo_big.ace.total / ooo_big.stats.committed) / \
                     (ooo_small.ace.total / ooo_small.stats.committed)
        rar_growth = (big.ace.total / big.stats.committed) / \
                     (small.ace.total / small.stats.committed)
        assert rar_growth < ooo_growth
