"""DRAM protocol timing specifications and named presets.

A :class:`DramProtocol` captures a device's timings *at the device clock*
(memory-bus MHz, tRCD/tRP/tCL/tRFC/tREFI in memory cycles) plus its
geometry (channels, ranks, banks, row size), and converts them into the
core-cycle :class:`~repro.common.params.DramParams` the controller runs
on — the Ramulator-style split between "what the datasheet says" and
"what the simulator ticks" (protocol-parameterised DRAM, Luo et al.,
Ramulator 2.0).

Presets
-------

``ddr3-1600``
    The original model's numbers (11-11-11 at 800 MHz behind a 2.66 GHz
    core → 36-cycle tRCD/tRP/tCL) with refresh disabled — the default,
    bit-identical to the seed and pinned by the golden gate.
``ddr4-3200``
    22-22-22 at 1600 MHz (same ~36 core cycles — DDR4's higher clock and
    deeper CAS cancel out), twice the burst rate, 32 banks, refresh on.
``lpddr4-3200``
    Mobile part: two channels, higher core-cycle latencies (46-48-36 at
    1600 MHz), DDR4-class aggregate bandwidth, refresh on.
``hbm2``
    Stacked part: eight channels with a *low per-channel* bandwidth
    ceiling but the highest aggregate, small rows, refresh on.

``bus_cycles_per_access`` stays an explicit first-order knob (core cycles
per 64 B burst on one channel) rather than being derived from the clock
arithmetic: the seed's DDR3 value of 4 core cycles is the calibrated
bandwidth wall the paper reproduction was built against, and the other
presets scale it by their relative per-channel burst rate.
"""

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.params import DramParams

__all__ = ["DramProtocol", "DRAM_PRESETS", "PRESET_NAMES", "dram_preset"]

#: The modelled core clock (2.66 GHz, docs/performance.md).
CORE_MHZ = 2660


@dataclass(frozen=True)
class DramProtocol:
    """Device timing spec at the device clock; converts to core cycles."""

    name: str
    mem_mhz: int
    #: tRCD / tRP / tCL in memory-bus cycles.
    t_rcd: int
    t_rp: int
    t_cl: int
    #: Refresh cycle time and interval in memory-bus cycles (0 = off).
    t_rfc: int = 0
    t_refi: int = 0
    #: Geometry.
    channels: int = 1
    ranks: int = 4
    banks_per_rank: int = 8
    row_size: int = 4096
    #: Burst transferring one 64 B line, in memory-bus cycles (BL8 = 4
    #: bus clocks on a x64 DDR channel); informational.
    burst_mem_cycles: int = 4
    #: Core cycles one burst occupies a channel's data bus — the
    #: first-order per-channel bandwidth ceiling (64 B / this).
    bus_cycles_per_access: int = 4
    controller_latency: int = 20
    core_mhz: int = CORE_MHZ

    def core_cycles(self, mem_cycles: int) -> int:
        """Device cycles → core cycles at the configured clock ratio."""
        return (mem_cycles * self.core_mhz) // self.mem_mhz

    def params(self, scheduler: str = "fcfs", mapping: str = "row",
               frfcfs_cap: int = 512,
               refresh: Optional[bool] = None) -> DramParams:
        """Resolve to core-cycle :class:`DramParams`.

        ``refresh=False`` masks refresh (used by the microbenchmark
        validation to compare against closed-form latencies); the default
        keeps whatever the preset specifies.
        """
        refresh_on = (self.t_refi > 0) if refresh is None else refresh
        return DramParams(
            ranks=self.ranks,
            banks_per_rank=self.banks_per_rank,
            row_size=self.row_size,
            t_rcd=self.core_cycles(self.t_rcd),
            t_rp=self.core_cycles(self.t_rp),
            t_cl=self.core_cycles(self.t_cl),
            bus_cycles_per_access=self.bus_cycles_per_access,
            controller_latency=self.controller_latency,
            protocol=self.name,
            channels=self.channels,
            t_rfc=self.core_cycles(self.t_rfc) if refresh_on else 0,
            t_refi=self.core_cycles(self.t_refi) if refresh_on else 0,
            scheduler=scheduler,
            mapping=mapping,
            frfcfs_cap=frfcfs_cap,
        )


#: Named presets. ddr3-1600 reproduces the seed DramParams() exactly
#: (refresh off); the others carry datasheet-derived refresh timings
#: (tRFC ~350/280/260 ns, tREFI 7.8/3.9/3.9 us at their clocks).
DRAM_PRESETS: Dict[str, DramProtocol] = {
    "ddr3-1600": DramProtocol(
        name="ddr3-1600", mem_mhz=800,
        t_rcd=11, t_rp=11, t_cl=11,
        channels=1, ranks=4, banks_per_rank=8, row_size=4096,
        bus_cycles_per_access=4,
    ),
    "ddr4-3200": DramProtocol(
        name="ddr4-3200", mem_mhz=1600,
        t_rcd=22, t_rp=22, t_cl=22,
        t_rfc=560, t_refi=12480,
        channels=1, ranks=2, banks_per_rank=16, row_size=4096,
        bus_cycles_per_access=2,
    ),
    "lpddr4-3200": DramProtocol(
        name="lpddr4-3200", mem_mhz=1600,
        t_rcd=46, t_rp=48, t_cl=36,
        t_rfc=448, t_refi=6240,
        channels=2, ranks=1, banks_per_rank=8, row_size=4096,
        bus_cycles_per_access=4,
    ),
    "hbm2": DramProtocol(
        name="hbm2", mem_mhz=1000,
        t_rcd=14, t_rp=14, t_cl=14,
        t_rfc=260, t_refi=3900,
        channels=8, ranks=1, banks_per_rank=16, row_size=2048,
        bus_cycles_per_access=8,
    ),
}

PRESET_NAMES: Tuple[str, ...] = tuple(DRAM_PRESETS)


def dram_preset(name: str, scheduler: str = "fcfs", mapping: str = "row",
                frfcfs_cap: int = 512,
                refresh: Optional[bool] = None) -> DramParams:
    """Look up a preset and resolve it to core-cycle parameters."""
    try:
        proto = DRAM_PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown DRAM preset {name!r}; "
                         f"expected one of {PRESET_NAMES}") from None
    return proto.params(scheduler=scheduler, mapping=mapping,
                        frfcfs_cap=frfcfs_cap, refresh=refresh)
