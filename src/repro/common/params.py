"""Machine configuration parameters.

Encodes the paper's Table I (four scaled core generations), Table II (the
baseline out-of-order core, modelled after Precise Runahead Execution's
setup) and Table III (per-entry bit budgets used by the ACE model).

All parameter containers are frozen dataclasses so configurations are
hashable and can be used as keys in the experiment result cache.
"""

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.common.enums import UopClass

#: Default committed-instruction budgets shared by every run entry point
#: (``simulate()``, ``ExperimentRunner``, the CLI). Warmup simulates this
#: many instructions before counters reset — enough for the caches, the
#: branch predictor and the SST to reach steady state on the catalog
#: workloads. Historically ``ExperimentRunner`` defaulted to a shorter
#: 5,000-instruction warmup than ``simulate()``, which made cached sweep
#: results silently incomparable with direct ``simulate()`` calls; both
#: now share these constants.
DEFAULT_INSTRUCTIONS = 30_000
DEFAULT_WARMUP = 20_000

#: Bits of vulnerable state per entry in each back-end structure (Table III)
#: and per register class (Table II).  Functional-unit widths are charged
#: per execution cycle.
BIT_BUDGET: Dict[str, int] = {
    "rob": 120,
    "iq": 80,
    "lq": 120,
    "sq": 184,
    "int_reg": 64,
    "fp_reg": 128,
    "int_fu": 64,
    "fp_fu": 128,
}


@dataclass(frozen=True)
class FuParams:
    """One functional-unit class: how many units, and its latency.

    ``pipelined`` units accept a new uop every cycle; non-pipelined units
    (dividers) are busy for the full latency.
    """

    count: int
    latency: int
    pipelined: bool = True


@dataclass(frozen=True)
class CoreParams:
    """Out-of-order core sizing (Tables I and II)."""

    rob_size: int = 192
    iq_size: int = 92
    lq_size: int = 64
    sq_size: int = 64
    int_regs: int = 168
    fp_regs: int = 168
    width: int = 4
    #: Front-end depth in stages; a redirect (mispredict, flush refetch)
    #: costs this many cycles before new uops reach dispatch.
    frontend_depth: int = 8
    #: Number of architectural registers per class; the rename substrate
    #: reserves this many physical registers for committed state.
    arch_regs: int = 32
    #: 4-bit countdown timer used by the early-start trigger (Section III-D).
    head_timer_init: int = 15
    #: TR only triggers if the blocking load was issued to memory fewer than
    #: this many cycles before the full-window stall (Section V-D).
    tr_recency_cycles: int = 250
    #: Stalling Slice Table size (PRE), fully associative.
    sst_size: int = 128
    #: Precise Register Deallocation Queue size (PRE).
    prdq_size: int = 192
    fus: Tuple[Tuple[int, FuParams], ...] = (
        (int(UopClass.INT_ADD), FuParams(count=3, latency=1)),
        (int(UopClass.INT_MUL), FuParams(count=1, latency=3)),
        (int(UopClass.INT_DIV), FuParams(count=1, latency=18, pipelined=False)),
        (int(UopClass.FP_ADD), FuParams(count=1, latency=3)),
        (int(UopClass.FP_MUL), FuParams(count=1, latency=5)),
        (int(UopClass.FP_DIV), FuParams(count=1, latency=6, pipelined=False)),
    )

    def fu_params(self) -> Dict[int, FuParams]:
        return dict(self.fus)

    @property
    def structure_bits(self) -> Dict[str, int]:
        """Unprotected bits per ACE structure. Functional units carry 0:
        the paper leaves them out of the AVF denominator N."""
        return {
            "rob": self.rob_size * BIT_BUDGET["rob"],
            "iq": self.iq_size * BIT_BUDGET["iq"],
            "lq": self.lq_size * BIT_BUDGET["lq"],
            "sq": self.sq_size * BIT_BUDGET["sq"],
            "rf": (self.int_regs * BIT_BUDGET["int_reg"]
                   + self.fp_regs * BIT_BUDGET["fp_reg"]),
            "fu": 0,
        }

    @property
    def total_bits(self) -> int:
        """Total unprotected back-end bits N, used in the AVF denominator."""
        return sum(self.structure_bits.values())


@dataclass(frozen=True)
class CacheParams:
    """One cache level (sizes in bytes, latency in core cycles)."""

    size: int
    assoc: int
    latency: int
    line_size: int = 64
    mshrs: int = 0  # 0 means unlimited

    @property
    def num_sets(self) -> int:
        return self.size // (self.line_size * self.assoc)


@dataclass(frozen=True)
class DramParams:
    """Protocol-parameterised memory timing, expressed in *core* cycles.

    Defaults approximate DDR3-1600 behind a 2.66 GHz core: the paper's
    tRP-tCL-tRCD of 11-11-11 memory cycles at 800 MHz maps to ~36 core
    cycles each (2.66 GHz / 800 MHz ≈ 3.3×). Other protocols (DDR4,
    LPDDR4, HBM2) are generated from :class:`repro.memory.dram.DramProtocol`
    presets, which convert device timings at the device clock into these
    core-cycle fields.

    The defaults — one channel, refresh disabled, ``fcfs`` scheduling,
    row-interleaved mapping — reproduce the original single-protocol model
    bit for bit; the 25-point golden gate pins that contract.
    """

    ranks: int = 4
    banks_per_rank: int = 8
    row_size: int = 4096
    #: Activate (tRCD), precharge (tRP) and CAS (tCL) in core cycles.
    t_rcd: int = 36
    t_rp: int = 36
    t_cl: int = 36
    #: Minimum gap between data bursts on the shared bus (bandwidth model);
    #: doubles as tCCD, the back-to-back column-read spacing.
    bus_cycles_per_access: int = 4
    #: Fixed controller/interconnect overhead per access.
    controller_latency: int = 20
    #: Protocol preset label (informational; the timing fields above are
    #: already resolved to core cycles when a preset is instantiated).
    protocol: str = "ddr3-1600"
    #: Independent channels, each with its own banks and data bus.
    channels: int = 1
    #: Refresh: every ``t_refi`` core cycles each bank is blocked for
    #: ``t_rfc`` cycles and its row buffer closes. ``t_refi=0`` disables
    #: refresh entirely (the seed-compatible default).
    t_rfc: int = 0
    t_refi: int = 0
    #: Request scheduling policy: "fcfs" (arrival order, the default) or
    #: "frfcfs" (row-hit-first with an age-based starvation cap).
    scheduler: str = "fcfs"
    #: Address mapping policy: "row" (row-interleaved, the default) or
    #: "xor" (bank/channel bits XOR-permuted with low row bits).
    mapping: str = "row"
    #: FR-FCFS only: a row hit may not bypass any queued request older
    #: than this many cycles.
    frfcfs_cap: int = 512

    @property
    def num_banks(self) -> int:
        """Banks per channel (ranks × banks-per-rank)."""
        return self.ranks * self.banks_per_rank

    @property
    def total_banks(self) -> int:
        return self.num_banks * self.channels

    @property
    def row_hit_latency(self) -> int:
        return self.controller_latency + self.t_cl

    @property
    def row_miss_latency(self) -> int:
        return self.controller_latency + self.t_rp + self.t_rcd + self.t_cl

    @property
    def peak_bandwidth(self) -> float:
        """Aggregate data-bus ceiling in bytes per core cycle (64 B lines)."""
        return self.channels * 64.0 / self.bus_cycles_per_access


@dataclass(frozen=True)
class PrefetcherParams:
    """Stream/stride prefetcher configuration (Section V-F).

    Defaults model the paper's "aggressive" 16-stream prefetcher: once a
    stream is confident, issue ``degree`` lines starting ``distance``
    strides ahead of the stream head on every training access.
    """

    streams: int = 16
    degree: int = 4
    distance: int = 8
    #: Cache levels the prefetcher trains at and fills into:
    #: ("l3",) for the +L3 configuration, ("l1", "l2", "l3") for +ALL.
    levels: Tuple[str, ...] = ("l3",)
    #: Maximum in-flight hardware prefetches (separate from demand MSHRs).
    queue: int = 16


@dataclass(frozen=True)
class MachineParams:
    """A complete machine: core + cache hierarchy + DRAM (+ prefetcher)."""

    name: str = "baseline"
    core: CoreParams = field(default_factory=CoreParams)
    l1i: CacheParams = field(default_factory=lambda: CacheParams(32 * 1024, 4, 2))
    l1d: CacheParams = field(
        default_factory=lambda: CacheParams(32 * 1024, 8, 4, mshrs=20)
    )
    l2: CacheParams = field(default_factory=lambda: CacheParams(256 * 1024, 8, 8))
    l3: CacheParams = field(default_factory=lambda: CacheParams(1024 * 1024, 16, 30))
    dram: DramParams = field(default_factory=DramParams)
    prefetcher: Optional[PrefetcherParams] = None
    #: When set, virtual pages are mapped to pseudo-random physical frames
    #: (deterministic in the seed) before DRAM address decoding — modelling
    #: OS page allocation, which breaks the perfect row-buffer locality
    #: that identity mapping gives to large streams. None = identity
    #: mapping (the default used throughout the paper reproduction).
    page_shuffle_seed: Optional[int] = None

    def with_core(self, core: CoreParams,
                  name: Optional[str] = None) -> "MachineParams":
        return replace(self, core=core, name=name or self.name)

    def with_prefetcher(
        self, prefetcher: PrefetcherParams, name: Optional[str] = None
    ) -> "MachineParams":
        return replace(self, prefetcher=prefetcher, name=name or self.name)

    def with_dram(
        self, dram: DramParams, name: Optional[str] = None
    ) -> "MachineParams":
        return replace(self, dram=dram, name=name or self.name)


def _scaled_core(rob: int, iq: int, lq: int, sq: int, regs: int) -> CoreParams:
    return CoreParams(
        rob_size=rob, iq_size=iq, lq_size=lq, sq_size=sq, int_regs=regs, fp_regs=regs
    )


#: Table I — four OoO core generations (Nehalem→Ice Lake-like scaling).
CORE1 = MachineParams(name="core-1", core=_scaled_core(128, 36, 48, 32, 120))
CORE2 = MachineParams(name="core-2", core=_scaled_core(192, 92, 64, 64, 168))
CORE3 = MachineParams(name="core-3", core=_scaled_core(224, 97, 64, 60, 180))
CORE4 = MachineParams(name="core-4", core=_scaled_core(352, 128, 128, 72, 256))

#: Table II — the baseline machine used throughout the evaluation
#: (identical core sizing to CORE2).
BASELINE = MachineParams(name="baseline", core=CORE2.core)

SCALED_MACHINES: Tuple[MachineParams, ...] = (CORE1, CORE2, CORE3, CORE4)
