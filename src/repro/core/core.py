"""The cycle-level out-of-order core: facade over engine + components.

One :class:`OutOfOrderCore` simulates one workload trace on one machine
configuration under one :class:`~repro.core.runahead.RunaheadPolicy`. The
per-cycle loop is::

    process completion events → commit → controller (triggers/exits,
    runahead fetch) → issue → dispatch → fetch

Since the engine refactor the class is a thin facade: the cycle loop,
event heap and fast-forward live in :class:`~repro.core.engine.SimEngine`,
and the pipeline stages are :class:`~repro.core.engine.Component`
instances (:mod:`repro.core.components`) that each own a disjoint slice
of the mutable state. The facade constructs the hardware structures,
wires the components together, and delegates the clock and the mode
(``core.cycle``, ``core.mode``) to the engine and the runahead
controller. See docs/architecture.md for the decomposition and the
checkpoint lifecycle built on it.

Mechanism summary (see DESIGN.md §4 for the full matrix):

- **FLUSH** (Weaver et al.): when a long-latency load blocks the ROB head,
  squash everything younger and idle; refetch when the data returns.
- **Runahead** (TR/PRE/RAR families): freeze the ROB, let a speculative
  cursor run ahead of the blocked window, execute (all | slice-only) future
  uops with spare resources, prefetching their misses. On the blocking
  load's return either keep the frozen window (PRE) or flush the whole
  back-end and refetch from the blocking load (TR/RAR) — flushed residency
  is un-ACE, which is RAR's reliability win.
"""

from functools import partial
from typing import Dict, Optional

from repro.common.params import MachineParams
from repro.core.components import (
    CommitUnit,
    FrontEndStage,
    RunaheadController,
    WindowBackEnd,
)
from repro.core.engine import EV_RA_DONE, EV_RA_ISSUE, EV_WB, SimEngine
from repro.core.fu import FuPool
from repro.core.issue_queue import IssueQueue
from repro.core.lsq import LoadStoreQueues
from repro.core.prdq import Prdq
from repro.core.regfile import RegisterFiles
from repro.core.rob import ReorderBuffer
from repro.core.runahead import OOO, RunaheadPolicy
from repro.core.sst import StallingSliceTable
from repro.frontend.btb import Btb
from repro.frontend.fetch import FrontEnd, WrongPathSource
from repro.frontend.tage import TageScL
from repro.isa.trace import Trace
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs.registry import StatsRegistry
from repro.reliability.ace import AceAccountant

#: SimStats attribute → hierarchical registry name (gem5-style dotted
#: paths, one namespace per component; see docs/metrics.md).
STAT_NAMES = {
    "committed": "core.commit.committed",
    "cycles": "core.clock.cycles",
    "runahead_triggers": "core.runahead.triggers",
    "runahead_cycles": "core.runahead.cycles",
    "runahead_uops_examined": "core.runahead.uops_examined",
    "runahead_uops_executed": "core.runahead.uops_executed",
    "runahead_prefetches": "core.runahead.prefetches",
    "flush_triggers": "core.flush.triggers",
    "flush_stall_cycles": "core.flush.stall_cycles",
    "squashed_mispredict": "core.squash.mispredict",
    "squashed_runahead_flush": "core.squash.runahead_flush",
    "squashed_flush_mechanism": "core.squash.flush_mechanism",
    "demand_llc_misses": "core.commit.llc_missing_loads",
    "mlp_sum": "core.mlp.sum",
    "mlp_cycles": "core.mlp.busy_cycles",
    "branch_resolved": "core.branch.resolved",
    "branch_mispredicted": "core.branch.mispredicted",
    "fast_forwarded_cycles": "core.clock.fast_forwarded",
    "ra_trigger_rob_sum": "core.runahead.trigger_rob_sum",
    "ra_stall_iq": "core.runahead.stall_iq",
    "ra_stall_prdq": "core.runahead.stall_prdq",
    "ra_stall_resume": "core.runahead.stall_resume",
    "ra_stall_diverged": "core.runahead.stall_diverged",
}


class SimStats:
    """Raw counters accumulated during simulation (see ``SimResult``).

    Implemented on top of the hierarchical stats registry: every counter
    is a plain int attribute (so the per-cycle hot path pays nothing) and
    is *bound* into :attr:`registry` under its dotted name, where the
    telemetry layer reads, deltas and dumps it.
    """

    def __init__(self, registry: Optional[StatsRegistry] = None) -> None:
        self.committed = 0
        self.cycles = 0
        self.runahead_triggers = 0
        self.runahead_cycles = 0
        self.runahead_uops_examined = 0
        self.runahead_uops_executed = 0
        self.runahead_prefetches = 0
        self.flush_triggers = 0
        self.flush_stall_cycles = 0
        self.squashed_mispredict = 0
        self.squashed_runahead_flush = 0
        self.squashed_flush_mechanism = 0
        self.demand_llc_misses = 0       # correct-path, normal mode
        self.mlp_sum = 0                 # Σ outstanding misses over busy cycles
        self.mlp_cycles = 0              # cycles with ≥1 outstanding miss
        self.branch_resolved = 0
        self.branch_mispredicted = 0
        self.fast_forwarded_cycles = 0
        #: Σ ROB occupancy at runahead entry (÷ triggers = mean occupancy;
        #: early-start enters with a less-full window than late-start)
        self.ra_trigger_rob_sum = 0
        # Runahead-advance stall diagnostics (cycles lost per cause)
        self.ra_stall_iq = 0
        self.ra_stall_prdq = 0
        self.ra_stall_resume = 0
        self.ra_stall_diverged = 0

        self.registry = registry if registry is not None else StatsRegistry()
        for attr, name in STAT_NAMES.items():
            self.registry.scalar(name, getter=partial(getattr, self, attr))

    def snapshot(self) -> Dict[str, int]:
        return {k: v for k, v in self.__dict__.items()
                if isinstance(v, int)}


class OutOfOrderCore:
    """Cycle-level OoO core simulator.

    Args:
        machine: full machine configuration.
        trace: rewindable workload trace.
        policy: runahead/flush policy (default: plain OoO baseline).
        seed: seed for the wrong-path synthesiser.
    """

    def __init__(
        self,
        machine: MachineParams,
        trace: Trace,
        policy: RunaheadPolicy = OOO,
        seed: int = 0,
        record_ace_intervals: bool = False,
        observer=None,
        telemetry=None,
        validate: bool = False,
    ):
        """``observer``, when provided, is called as
        ``observer(event, cycle, **data)`` on notable pipeline events:
        ``commit`` (uop), ``squash`` (uops, cause), ``runahead_enter`` /
        ``runahead_exit`` (blocking), ``flush_enter`` / ``flush_exit``,
        ``mispredict`` (branch), ``sst_hit`` / ``sst_train`` (pc) and
        ``runahead_prefetch`` (pc, level). Purely observational — the
        simulation is bit-identical with or without one.

        ``telemetry``, a :class:`repro.obs.Telemetry`, attaches itself to
        the observer hook, the memory hierarchy and the run loop; the
        core's :attr:`registry` carries its hierarchical stats whether or
        not a telemetry object is attached.

        ``validate=True`` appends a
        :class:`repro.validate.invariants.InvariantChecker` to the engine
        pipeline (stepped last each cycle) and chains it onto the
        observer hook. The checker is purely observational and is *not*
        part of :attr:`components` — it carries no architectural state,
        so checkpoints stay interchangeable between sanitized and
        unsanitized cores. When ``validate`` is false (the default) no
        checker object exists and the hot path is untouched."""
        self.machine = machine
        self.trace = trace
        self.policy = policy
        p = machine.core
        self.width = p.width
        self.record_ace_intervals = record_ace_intervals

        # Shared hardware structures. These objects are never replaced
        # over the core's lifetime — components cache direct references
        # and checkpoint restore mutates them in place.
        self.mem = MemoryHierarchy(machine)
        self.predictor = TageScL()
        self.btb = Btb()
        self.frontend = FrontEnd(p.width, p.frontend_depth)
        self.wrong_path_src = WrongPathSource(seed)
        self.rob = ReorderBuffer(p.rob_size, p.head_timer_init)
        self.iq = IssueQueue(p.iq_size)
        self.lsq = LoadStoreQueues(p.lq_size, p.sq_size)
        self.regs = RegisterFiles(p.int_regs, p.fp_regs, p.arch_regs)
        self.fus = FuPool(p)
        self.sst = StallingSliceTable(p.sst_size)
        self.prdq = Prdq(p.prdq_size, self.regs)
        self.ace = AceAccountant(self.fus.exec_cycles,
                                 record_intervals=record_ace_intervals)
        self.observer = observer
        self.telemetry = None
        #: commit-stream oracle, set by CommitOracle.attach (wiring, not
        #: state — like the invariant checker, never checkpointed)
        self.oracle = None
        self.stats = SimStats()
        self.registry = self.stats.registry
        self._register_component_stats()

        lat = machine.l1d.latency
        self._est_latency = {
            "l1": lat,
            "l2": lat + machine.l2.latency,
            "l3": lat + machine.l2.latency + machine.l3.latency,
            "dram": lat + machine.l2.latency + machine.l3.latency
            + machine.dram.row_miss_latency + 60,
        }

        # Engine + pipeline components: construct all, then bind (binding
        # caches cross-component references, so every component must
        # already exist), then wire the stage order and event handlers.
        self.engine = SimEngine(self)
        self.frontend_stage = FrontEndStage(self)
        self.commit_unit = CommitUnit(self)
        self.backend = WindowBackEnd(self)
        self.runahead_ctl = RunaheadController(self)
        self.components = (self.engine, self.frontend_stage,
                           self.commit_unit, self.backend,
                           self.runahead_ctl)
        for comp in self.components:
            comp.bind()
        pipeline = (self.commit_unit, self.runahead_ctl,
                    self.backend, self.frontend_stage)
        self.checker = None
        if validate:
            # Imported lazily: the validate package is optional wiring,
            # and importing it here at module scope would be a cycle.
            from repro.validate.invariants import InvariantChecker
            self.checker = InvariantChecker(self)
            self.checker.bind()
            pipeline = pipeline + (self.checker,)
        self.engine.wire(pipeline)
        self.engine.on_event(EV_WB, self.backend.writeback)
        self.engine.on_event(EV_RA_ISSUE, self.runahead_ctl.ra_memory_issue)
        self.engine.on_event(EV_RA_DONE, self.backend.ra_miss_done)

        if self.checker is not None:
            self.checker.attach_observer()
        if telemetry is not None:
            telemetry.attach(self)

    # ---------------------------------------------------------- registry

    def _register_component_stats(self) -> None:
        """Bind memory/ACE/machine stats and derived formulas into the
        hierarchical registry (``SimStats`` binds its own counters)."""
        reg = self.registry
        mem = self.mem
        for attr, name in (
            ("demand_accesses", "mem.l1d.demand_accesses"),
            ("demand_llc_misses", "mem.llc.demand_misses"),
            ("writebacks_to_l2", "mem.l2.writebacks"),
            ("writebacks_to_l3", "mem.l3.writebacks"),
            ("writebacks_to_dram", "mem.dram.writebacks"),
            ("rejected_mshr_full", "mem.mshr.rejected_full"),
            ("prefetches_issued", "mem.prefetcher.issued"),
        ):
            reg.scalar(name, getter=partial(getattr, mem, attr))
        # DRAM controller counters route through ``mem`` at read time:
        # checkpoint restore replaces ``mem.dram`` wholesale, and a getter
        # bound to the old controller would silently read dead state.
        for attr, name in (
            ("accesses", "mem.dram.accesses"),
            ("row_hits", "mem.dram.row_hits"),
            ("row_conflicts", "mem.dram.row_conflicts"),
            ("refresh_stall_cycles", "mem.dram.refresh_stall_cycles"),
            ("demand_requests", "mem.dram.demand_requests"),
            ("writeback_requests", "mem.dram.writeback_requests"),
            ("prefetch_requests", "mem.dram.prefetch_requests"),
        ):
            reg.scalar(name,
                       getter=lambda m=mem, a=attr: getattr(m.dram, a))
        ace = self.ace
        # Read ``ace.bits`` at call time, like the DRAM getters above:
        # checkpoint restore replaces the dict.
        for s in ace.bits:
            reg.scalar(f"ace.{s}.bits",
                       getter=lambda a=ace, s=s: a.bits[s])
        reg.scalar("ace.total", getter=lambda a=ace: a.total)
        reg.scalar("ace.head_blocked.bits",
                   getter=partial(getattr, ace, "bits_in_head_blocked"))
        reg.scalar("ace.full_stall.bits",
                   getter=partial(getattr, ace, "bits_in_full_stall"))
        reg.scalar("ace.committed_charged",
                   getter=partial(getattr, ace, "committed_charged"))
        total_bits = self.machine.core.total_bits
        reg.scalar("machine.total_bits", getter=lambda n=total_bits: n,
                   const=True)

        def _ratio(a, b, scale=1.0):
            def fn(v):
                return scale * v[a] / v[b] if v[b] else 0.0
            return fn

        reg.formula("core.ipc",
                    _ratio("core.commit.committed", "core.clock.cycles"),
                    desc="committed instructions per cycle")
        reg.formula("core.mpki",
                    _ratio("core.commit.llc_missing_loads",
                           "core.commit.committed", 1000.0),
                    desc="LLC misses per kilo-instruction")
        reg.formula("core.mlp.avg",
                    _ratio("core.mlp.sum", "core.mlp.busy_cycles"),
                    desc="mean outstanding misses over busy cycles")
        reg.formula("mem.dram.row_hit_rate",
                    _ratio("mem.dram.row_hits", "mem.dram.accesses"),
                    desc="row-buffer hits per DRAM access")

        def _avf(v):
            denom = v["machine.total_bits"] * v["core.clock.cycles"]
            return v["ace.total"] / denom if denom else 0.0

        reg.formula("ace.avf", _avf, desc="ABC / (N x T)")
        # Occupancy/latency distributions: recorded by the telemetry layer
        # (interval sampler / memory hook); always registered so names are
        # stable whether or not telemetry is attached.
        for name in ("core.rob.occupancy", "core.iq.occupancy",
                     "core.lq.occupancy", "core.sq.occupancy"):
            reg.distribution(name, bucket_size=8)
        reg.distribution("mem.llc.miss_latency", bucket_size=50)
        reg.distribution("mem.dram.queue_occupancy", bucket_size=2)
        reg.distribution("mem.dram.bank_occupancy", bucket_size=2)

    # ================================================================ run

    def run(self, max_instructions: int) -> None:
        """Simulate until ``max_instructions`` have committed."""
        self.engine.run(max_instructions)

    # --------------------------------------------------- delegated state
    # The clock and the mode are read and set through the facade by the
    # simulation drivers and the observability layer. Everything else is
    # reached through the component that owns it.

    @property
    def cycle(self) -> int:
        return self.engine.cycle

    @cycle.setter
    def cycle(self, value: int) -> None:
        self.engine.cycle = value

    @property
    def mode(self):
        return self.runahead_ctl.mode

    @mode.setter
    def mode(self, value) -> None:
        # Through set_mode so the quiescence flags stay consistent even
        # when a test or external driver forces the mode directly.
        self.runahead_ctl.set_mode(value)

    # ============================================================ results

    @property
    def ipc(self) -> float:
        return self.stats.committed / self.cycle if self.cycle else 0.0

    @property
    def mlp(self) -> float:
        s = self.stats
        return s.mlp_sum / s.mlp_cycles if s.mlp_cycles else 0.0

    @property
    def mpki(self) -> float:
        s = self.stats
        return 1000.0 * s.demand_llc_misses / s.committed if s.committed else 0.0
