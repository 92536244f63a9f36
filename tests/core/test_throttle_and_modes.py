"""Extension policy (THROTTLE) and controller mode-transition paths."""

import pytest

from repro.common.enums import Mode
from repro.common.params import BASELINE
from repro.core.runahead import (
    ALL_POLICIES,
    EXTENSION_POLICIES,
    FLUSH,
    OOO,
    RAR,
    THROTTLE,
    get_policy,
)
from repro.sim import build_core

from tests.core.probe import run_until


def run_core(workload, policy, instructions=2500):
    core, _ = build_core(workload, BASELINE, policy)
    core.run(instructions)
    return core


class TestThrottle:
    def test_registered_as_extension(self):
        assert THROTTLE in EXTENSION_POLICIES
        assert THROTTLE not in ALL_POLICIES
        assert get_policy("throttle") is THROTTLE

    def test_never_enters_other_modes(self):
        core = run_core("libquantum", THROTTLE)
        assert core.stats.runahead_triggers == 0
        assert core.stats.flush_triggers == 0

    def test_between_ooo_and_flush(self):
        """Throttling trades less performance than FLUSH for a smaller
        reliability gain (Section VI-C's characterisation)."""
        base = run_core("libquantum", OOO)
        thr = run_core("libquantum", THROTTLE)
        fl = run_core("libquantum", FLUSH)
        abc = lambda c: c.ace.total / c.stats.committed  # noqa: E731
        assert abc(thr) < abc(base)          # does reduce exposure
        assert abc(thr) > abc(fl)            # but less than flushing
        assert thr.ipc < base.ipc * 1.02     # costs some performance
        assert thr.ipc > fl.ipc              # but less than flushing

    def test_compute_workload_unaffected(self):
        base = run_core("exchange2", OOO, 1500)
        thr = run_core("exchange2", THROTTLE, 1500)
        assert thr.ipc > base.ipc * 0.95


class TestFlushStallMode:
    def test_enters_and_leaves(self):
        core, _ = build_core("libquantum", BASELINE, FLUSH)
        modes = set()

        def watch(c):
            modes.add(c.mode)
            return False

        run_until(core, watch, 2500)
        assert Mode.FLUSH_STALL in modes
        assert Mode.RUNAHEAD not in modes

    def test_fetch_gated_during_stall(self):
        core, _ = build_core("libquantum", BASELINE, FLUSH)
        if not run_until(core, lambda c: c.mode == Mode.FLUSH_STALL, 2500):
            pytest.skip("no flush-stall observed in budget")
        assert core.frontend_stage.quiesced
        assert core.cycle < core.frontend.resume_cycle
        assert len(core.rob) <= 1  # only the blocking load remains


class TestRunaheadInternals:
    def test_inv_set_contains_blocking(self):
        core, _ = build_core("mcf", BASELINE, RAR)
        if not run_until(core, lambda c: c.mode == Mode.RUNAHEAD, 3000):
            pytest.skip("no runahead interval observed")
        ra = core.runahead_ctl
        assert ra.blocking is not None
        assert ra.blocking.static.idx in ra._ra_inv

    def test_predictor_history_restored_after_interval(self):
        core, _ = build_core("libquantum", BASELINE, RAR)
        ra = core.runahead_ctl
        seen = {"mode": core.mode, "ckpt": None}

        def interval_closed(c):
            was_runahead = seen["mode"] == Mode.RUNAHEAD
            seen["mode"] = c.mode
            if c.mode == Mode.RUNAHEAD and seen["ckpt"] is None:
                seen["ckpt"] = ra._ra_hist_ckpt
            return (was_runahead and c.mode == Mode.NORMAL
                    and seen["ckpt"] is not None)

        if not run_until(core, interval_closed, 3000):
            pytest.skip("no complete interval observed")
        assert core.predictor.hist == seen["ckpt"]

    def test_runahead_examines_future_instructions(self):
        core = run_core("libquantum", RAR)
        assert core.stats.runahead_uops_examined >= \
            core.stats.runahead_uops_executed
