"""Memory-system validation — microbenchmarks vs. analytic curves.

Two layers of the same methodology (after the DRAM re-evaluation
literature): first the raw controller is measured against the closed-form
latency/bandwidth each protocol preset implies (`repro memval`); then the
catalog microbenchmarks ``pchase`` and ``streambw`` drive the *full*
hierarchy, checking that protocol latency differences survive the caches
and the core. (End-to-end the 20-MSHR core cannot saturate a channel, so
the bandwidth ceiling itself is asserted at the controller level only.)
"""

from conftest import once

from repro.analysis.tables import format_table
from repro.common.params import BASELINE
from repro.memory.dram import PRESET_NAMES, dram_preset
from repro.workloads.microbench import memval_table, validate_all

MACHINES = {
    "ddr3-1600": BASELINE,
    "ddr4-3200": BASELINE.with_dram(dram_preset("ddr4-3200"),
                                    name="baseline-ddr4"),
    "lpddr4-3200": BASELINE.with_dram(dram_preset("lpddr4-3200"),
                                      name="baseline-lpddr4"),
    "hbm2": BASELINE.with_dram(dram_preset("hbm2"), name="baseline-hbm2"),
}


def test_memval_analytic_curves(benchmark, report):
    """Every preset × scheduler matches its spec-implied curves."""
    def build():
        tables = {}
        for sched in ("fcfs", "frfcfs"):
            results = validate_all(scheduler=sched)
            tables[sched] = memval_table(results)
            for r in results:
                assert r.ok, f"{r.preset}/{sched}: {r.problems}"
        return tables

    tables = once(benchmark, build)
    report("memval_curves",
           "\n\n".join(f"[{s}]\n{t}" for s, t in tables.items()))


def test_microbench_full_hierarchy(benchmark, sweep, report):
    """pchase / streambw IPC across protocols, through core + caches."""
    def build():
        rows, ipc = [], {}
        for proto in PRESET_NAMES:
            m = MACHINES[proto]
            ooo = sweep(("pchase", "streambw"), m, ("OOO",))["OOO"]
            chase, stream = ooo["pchase"], ooo["streambw"]
            ipc[proto] = (chase.ipc, stream.ipc)
            rows.append([proto, f"{chase.ipc:.3f}", f"{stream.ipc:.3f}",
                         f"{m.dram.row_hit_latency}", f"{m.dram.channels}"])
        table = format_table(
            ["protocol", "pchase IPC", "streambw IPC",
             "row-hit lat", "channels"], rows)
        return table, ipc

    table, ipc = once(benchmark, build)
    report("memsys_microbench", table)

    # Latency differences survive end-to-end: lpddr4's much longer
    # access latency drags both microbenchmarks well below ddr3, while
    # the three ~equal-latency presets stay within a band of each other.
    # (The channel bandwidth *ceiling* is NOT visible here — with 20
    # MSHRs the core cannot saturate even one ddr3 channel; that wall
    # is measured at the raw controller by memval above.)
    assert ipc["lpddr4-3200"][0] < 0.8 * ipc["ddr3-1600"][0]
    assert ipc["lpddr4-3200"][1] < 0.6 * ipc["ddr3-1600"][1]
    for proto in ("ddr4-3200", "hbm2"):
        assert ipc[proto][0] > 0.8 * ipc["ddr3-1600"][0], proto
        assert ipc[proto][1] > 0.8 * ipc["ddr3-1600"][1], proto
