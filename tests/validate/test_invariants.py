"""The per-cycle invariant sanitizer: clean runs pass, corruption raises."""

import pytest

from repro.checkpoint import warm_checkpoint
from repro.common.params import BASELINE
from repro.core.core import OutOfOrderCore
from repro.sim import measure, simulate
from repro.validate import InvariantChecker, InvariantViolation
from repro.workloads.catalog import get_workload


def sanitized_core(workload="mcf", policy="RAR", instructions=1500,
                   record_ace_intervals=False):
    """A core run under the sanitizer, returned live for corruption."""
    from repro.core.runahead import get_policy
    spec = get_workload(workload)
    core = OutOfOrderCore(BASELINE, spec.build_trace(), get_policy(policy),
                          record_ace_intervals=record_ace_intervals,
                          validate=True)
    for level, base, size in spec.resident_regions():
        core.mem.preload(base, size, level)
    core.run(instructions)
    return core


class TestCleanRuns:
    def test_disabled_by_default(self):
        spec = get_workload("x264")
        core = OutOfOrderCore(BASELINE, spec.build_trace())
        assert core.checker is None
        # No extra pipeline stage when the sanitizer is off.
        assert all(c.name != "invariant_checker"
                   for c in core.engine._pipeline)

    def test_checker_outside_components(self):
        """The checker must stay out of the checkpoint blob."""
        core = sanitized_core(instructions=200)
        assert core.checker is not None
        assert core.checker not in core.components
        assert core.engine._pipeline[-1] is core.checker

    @pytest.mark.parametrize("policy", ["OOO", "FLUSH", "TR", "PRE", "RAR"])
    def test_all_mechanisms_pass(self, policy):
        core = sanitized_core(policy=policy)
        core.checker.final_check()
        s = core.checker.summary()
        assert s["cycles_checked"] > 0
        assert s["commits_checked"] >= 1500

    def test_bit_identical_with_and_without(self):
        kw = dict(instructions=1500, warmup=500)
        a = simulate("mcf", BASELINE, "RAR", **kw)
        b = simulate("mcf", BASELINE, "RAR", validate=True, **kw)
        assert a.to_dict() == b.to_dict()

    def test_ace_intervals_checked(self):
        core = sanitized_core(record_ace_intervals=True)
        core.checker.final_check()
        assert core.checker.summary()["ace_intervals_checked"] > 0

    def test_checkpoint_forks_orthogonal_to_sanitizer(self):
        """Sanitized and unsanitized cores exchange checkpoints freely."""
        ck = warm_checkpoint("mcf", BASELINE, "PRE", warmup=500,
                             validate=True)
        plain = measure(ck.fork("PRE"), 1000, "mcf")
        checked = measure(ck.fork("PRE", validate=True), 1000, "mcf")
        assert plain.to_dict() == checked.to_dict()


class TestDetection:
    def test_lsq_double_release_detected(self):
        """The historical bug: a load's flag cleared without the counter
        moving (silent double release). The reconciliation sweep must
        catch it on the very next cycle."""
        core = sanitized_core(policy="OOO", instructions=300)
        while not any(u.in_lq for u in core.rob):
            core.engine.step()
            core.engine.cycle += 1
        victim = next(u for u in core.rob if u.in_lq)
        victim.in_lq = False  # counter now over-reports by one
        with pytest.raises(InvariantViolation, match="lsq-reconcile"):
            core.checker.check_cycle(core.cycle)

    def test_rob_age_order_violation(self):
        core = sanitized_core(instructions=300)
        while len(core.rob) < 2:
            core.engine.step()
            core.engine.cycle += 1
        core.rob._q.append(core.rob.head)  # duplicate oldest at the tail
        with pytest.raises(InvariantViolation, match="rob-order"):
            core.checker.check_cycle(core.cycle)

    def test_rob_capacity_violation(self):
        core = sanitized_core(instructions=300)
        while len(core.rob) < 2:
            core.engine.step()
            core.engine.cycle += 1
        core.rob.size = len(core.rob) - 1
        with pytest.raises(InvariantViolation, match="rob-capacity"):
            core.checker.check_cycle(core.cycle)

    def test_register_leak_detected(self):
        core = sanitized_core(instructions=300)
        core.regs.int_free += 1  # a register materialises from nowhere
        with pytest.raises(InvariantViolation, match="reg-leak"):
            core.checker.check_cycle(core.cycle)

    def test_prdq_phantom_entry_detected(self):
        core = sanitized_core(instructions=300)
        core.prdq._q.append((1 << 60, False))  # entry with no borrow
        with pytest.raises(InvariantViolation, match="prdq-leak"):
            core.checker.check_cycle(core.cycle)

    def test_commit_out_of_order_detected(self):
        core = sanitized_core(policy="OOO", instructions=300)
        core.checker._last_commit_seq = 1 << 60
        with pytest.raises(InvariantViolation, match="rob-order"):
            core.run(50)

    def test_malformed_ace_interval_detected(self):
        core = sanitized_core(record_ace_intervals=True, instructions=300)
        core.ace.intervals.append(("rob", 100, 50, 120))  # end < start
        with pytest.raises(InvariantViolation, match="ace-interval"):
            core.checker.check_cycle(core.cycle)

    def test_unknown_ace_structure_detected(self):
        core = sanitized_core(record_ace_intervals=True, instructions=300)
        core.ace.intervals.append(("tlb", 0, 10, 64))
        with pytest.raises(InvariantViolation, match="ace-interval"):
            core.checker.check_cycle(core.cycle)

    def test_ace_capacity_overflow_detected(self):
        from repro.reliability.fault_injection import structure_bits
        core = sanitized_core(record_ace_intervals=True, instructions=300)
        cap = structure_bits(BASELINE.core)["iq"]
        core.ace.intervals.append(("iq", 0, 1, cap + 1))
        core.checker._ace_seen = len(core.ace.intervals)  # skip well-formed
        with pytest.raises(InvariantViolation, match="ace-capacity"):
            core.checker.final_check()

    def test_formula_drift_detected(self):
        core = sanitized_core(instructions=300)
        core.registry.get("core.ipc").fn = lambda v: 0.123  # stale formula
        with pytest.raises(InvariantViolation, match="stats-formula"):
            core.checker.final_check()

    def test_violation_carries_location(self):
        v = InvariantViolation("lsq-reconcile", 42, "boom")
        assert v.invariant == "lsq-reconcile"
        assert v.cycle == 42
        assert "cycle 42" in str(v) and "boom" in str(v)
        assert isinstance(v, AssertionError)


class TestChecker:
    def test_step_is_pure_observation(self):
        core = sanitized_core(instructions=300)
        assert isinstance(core.checker, InvariantChecker)
        assert core.checker.step(core.cycle) == 0
        assert core.checker.state_attrs == ()
        assert core.checker.wake_candidates(core.cycle) == ()


class TestEventDrivenDetection:
    """PR 4's incremental fast paths: ready lists, FU scoreboard and
    component quiescence must stay coherent with their ground truth."""

    @staticmethod
    def _step_until(core, cond, limit=5000):
        for _ in range(limit):
            if cond():
                return
            core.engine.step()
            core.engine.cycle += 1
        raise AssertionError("condition never reached")

    def test_effort_counters(self):
        core = sanitized_core(instructions=800)
        s = core.checker.summary()
        assert s["ready_uops_checked"] > 0
        assert s["fu_events_checked"] > 0

    def test_nready_drift_detected(self):
        core = sanitized_core(instructions=300)
        core.iq._nready += 1
        with pytest.raises(InvariantViolation, match="iq-ready-coherence"):
            core.checker.check_cycle(core.cycle)

    def test_nonempty_mask_drift_detected(self):
        core = sanitized_core(instructions=300)
        empty = next(i for i, dq in enumerate(core.iq._ready) if not dq)
        core.iq._nonempty |= 1 << empty
        with pytest.raises(InvariantViolation, match="iq-ready-coherence"):
            core.checker.check_cycle(core.cycle)

    def test_ready_uop_with_pending_detected(self):
        core = sanitized_core(policy="OOO", instructions=300)
        self._step_until(core, lambda: core.iq._nready > 0)
        victim = next(dq[0] for dq in core.iq._ready if dq)
        victim.pending = 1
        with pytest.raises(InvariantViolation, match="iq-ready-coherence"):
            core.checker.check_cycle(core.cycle)

    def test_waiting_pending_drift_detected(self):
        core = sanitized_core(policy="OOO", instructions=300)
        self._step_until(core, lambda: core.iq._waiting)
        victim = next(iter(core.iq._waiting))
        victim.pending += 1  # claims a producer that does not exist
        with pytest.raises(InvariantViolation, match="iq-ready-coherence"):
            core.checker.check_cycle(core.cycle)

    def test_fu_pipelined_scoreboard_drift_detected(self):
        core = sanitized_core(instructions=300)
        fus = core.fus
        fc = next(c for c, p in fus.params.items() if p.pipelined)
        fus._stamp[fc] = core.cycle
        fus._used[fc] = fus.params[fc].count + 1  # phantom issues
        with pytest.raises(InvariantViolation, match="fu-scoreboard"):
            core.checker.check_cycle(core.cycle)

    def test_fu_nonpipelined_scoreboard_drift_detected(self):
        core = sanitized_core(instructions=300)
        fus = core.fus
        fc = next(c for c, p in fus.params.items() if not p.pipelined)
        # Reserve every divider with no writeback event backing it.
        fus._unit_free[fc] = [core.cycle + 100] * len(fus._unit_free[fc])
        with pytest.raises(InvariantViolation, match="fu-scoreboard"):
            core.checker.check_cycle(core.cycle)

    def test_fu_writeback_due_at_unsimulated_cycle_passes(self):
        """``final_check`` runs at ``core.cycle``, which the engine has
        not simulated yet: a divider writeback due exactly then is still
        in the heap while its unit is already free at that cycle."""
        from repro.core.engine import EV_WB
        core = sanitized_core(workload="lbm", policy="OOO", instructions=300)
        engine, fus = core.engine, core.fus
        due_now = set()

        def divider_wb_due_now():
            due_now.update(
                payload.static.fu_cls
                for when, _n, kind, payload in engine._events
                if kind == EV_WB and when == engine.cycle
                and not fus._pipelined[payload.static.fu_cls])
            return due_now

        self._step_until(core, divider_wb_due_now)
        for fc in due_now:
            assert fus.busy_units(fc, core.cycle) == 0
        core.checker.check_cycle(core.cycle)
        core.checker.final_check()

    def test_extension_policy_run_ends_clean(self):
        """The end-to-end case: this point's last divider writeback is due
        at the cycle the run stops on."""
        r = simulate("lbm", BASELINE, "RA-BUFFER", instructions=3000,
                     warmup=3000, validate=True)
        assert r.instructions >= 3000

    def test_backend_false_quiesce_detected(self):
        core = sanitized_core(policy="OOO", instructions=300)
        core.backend.quiesced = True  # OOO never leaves NORMAL mode
        with pytest.raises(InvariantViolation, match="quiesce-coherence"):
            core.checker.check_cycle(core.cycle)

    def test_frontend_false_quiesce_detected(self):
        core = sanitized_core(policy="OOO", instructions=300)
        core.frontend_stage.quiesced = True
        with pytest.raises(InvariantViolation, match="quiesce-coherence"):
            core.checker.check_cycle(core.cycle)


class TestParkedLoads:
    """MSHR-rejected loads parked by issue: the skipped probes must be
    provably doomed, and the parked list must stay coherent."""

    @staticmethod
    def parked_core():
        core = sanitized_core(policy="OOO", instructions=300)
        TestEventDrivenDetection._step_until(core, lambda: core.iq._parked)
        return core

    def test_parked_loads_checked_on_clean_run(self):
        core = self.parked_core()
        core.checker.check_cycle(core.cycle)
        assert core.cycle < core.iq.parked_until

    def test_nready_counts_parked_loads(self):
        core = self.parked_core()
        core.iq._parked.pop()
        with pytest.raises(InvariantViolation, match="iq-ready-coherence"):
            core.checker.check_cycle(core.cycle)

    def test_squashed_parked_load_detected(self):
        core = self.parked_core()
        core.iq._parked[0].squashed = True
        with pytest.raises(InvariantViolation, match="iq-ready-coherence"):
            core.checker.check_cycle(core.cycle)

    def test_mshr_min_drift_detected(self):
        core = self.parked_core()
        core.mem._mshr_min -= 1
        with pytest.raises(InvariantViolation, match="mshr-parked"):
            core.checker.check_cycle(core.cycle)

    def test_free_mshr_while_parked_detected(self):
        core = self.parked_core()
        mem = core.mem
        mem._mshr_done.remove(mem._mshr_min)
        mem._mshr_min = min(mem._mshr_done)
        with pytest.raises(InvariantViolation, match="mshr-parked"):
            core.checker.check_cycle(core.cycle)

    def test_parked_line_present_in_l1_detected(self):
        core = self.parked_core()
        core.mem.l1d.insert(core.iq._parked[0].static.addr)
        with pytest.raises(InvariantViolation, match="mshr-parked"):
            core.checker.check_cycle(core.cycle)

    def test_parked_behind_fifo_head_detected(self):
        core = sanitized_core(policy="OOO", instructions=300)
        iq = core.iq
        TestEventDrivenDetection._step_until(
            core, lambda: len(iq._parked) >= 2)
        # The oldest parked load back in the FIFO while younger ones stay
        # parked: issue would now probe them out of age order.
        oldest = iq._parked.pop(0)
        fc = oldest.static.fu_cls
        iq._ready[fc].appendleft(oldest)
        iq._nonempty |= 1 << fc
        with pytest.raises(InvariantViolation, match="mshr-parked"):
            core.checker.check_cycle(core.cycle)
