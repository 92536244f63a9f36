"""SimEngine / Component decomposition and the OutOfOrderCore facade."""

from repro.common.enums import Mode
from repro.common.params import BASELINE
from repro.core.core import OutOfOrderCore
from repro.core.engine import Component, SimEngine
from repro.core.runahead import get_policy
from repro.workloads.catalog import get_workload


def make_core(policy="OOO"):
    spec = get_workload("x264")
    return OutOfOrderCore(BASELINE, spec.build_trace(),
                          policy=get_policy(policy))


class TestComponentProtocol:
    def test_defaults_are_inert(self):
        c = Component()
        assert c.step(0) == 0
        assert tuple(c.wake_candidates(0)) == ()
        assert c.snapshot_state() == {}
        c.skip(100)  # no-op, must not raise
        c.restore_state({})

    def test_state_attr_round_trip(self):
        class Counter(Component):
            state_attrs = ("count",)

            def __init__(self):
                self.count = 7

        c = Counter()
        snap = c.snapshot_state()
        assert snap == {"count": 7}
        c.count = 99
        c.restore_state(snap)
        assert c.count == 7


class TestFacade:
    def test_components_are_bound(self):
        core = make_core()
        names = [c.name for c in core.components]
        assert names == ["engine", "frontend_stage", "commit", "backend",
                         "runahead_ctl"]
        for comp in core.components:
            assert comp.core is core

    def test_pipeline_order_matches_legacy_step(self):
        """events -> commit -> controller -> issue/dispatch -> fetch."""
        core = make_core()
        assert core.engine._pipeline == (
            core.commit_unit, core.runahead_ctl, core.backend,
            core.frontend_stage)

    def test_clock_and_mode_delegate(self):
        """The facade keeps only ``cycle`` and ``mode``; setting the mode
        goes through ``set_mode`` so the quiescence flags follow it."""
        core = make_core()
        core.cycle = 41
        assert core.engine.cycle == 41
        core.mode = Mode.FLUSH_STALL
        assert core.runahead_ctl.mode is Mode.FLUSH_STALL
        assert core.frontend_stage.quiesced
        core.mode = Mode.NORMAL
        assert not core.frontend_stage.quiesced

    def test_snapshot_covers_every_component(self):
        core = make_core("RAR")
        core.run(500)
        for comp in core.components:
            snap = comp.snapshot_state()
            assert set(snap) == set(comp.state_attrs)


class TestEngine:
    def test_event_fifo_within_cycle(self):
        """Same-cycle events pop in scheduling order (stable heap)."""
        core = make_core()
        engine = core.engine
        seen = []
        engine.on_event(99, lambda payload, when: seen.append(payload))
        engine.schedule(3, 99, "a")
        engine.schedule(3, 99, "b")
        engine.schedule(2, 99, "c")
        engine.process_events(3)
        assert seen == ["c", "a", "b"]

    def test_run_commits_requested_instructions(self):
        core = make_core()
        core.run(300)
        assert 300 <= core.stats.committed < 300 + BASELINE.core.width
        assert core.stats.cycles == core.cycle

    def test_fast_forward_skips_idle_cycles(self):
        core = make_core("RAR")
        core.run(2000)
        assert core.stats.fast_forwarded_cycles > 0

    def test_engine_is_a_component(self):
        core = make_core()
        assert isinstance(core.engine, SimEngine)
        assert isinstance(core.engine, Component)
        snap = core.engine.snapshot_state()
        assert set(snap) == {"cycle", "_events", "_ev_count"}
