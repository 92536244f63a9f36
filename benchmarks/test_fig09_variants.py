"""Figure 9 (+ Table IV) — systematic runahead design-space exploration.

All six runahead variants (TR, TR-EARLY, PRE, PRE-EARLY, RAR-LATE, RAR)
plus FLUSH, as memory-set means of MTTF, normalised ABC and relative IPC.
Paper shape: the flushing variants (TR*, RAR*) dominate reliability;
the lean variants (PRE*, RAR*) dominate performance; RAR is the only point
strong on both; PRE-EARLY does *not* improve reliability over PRE because
it never flushes the vulnerable state.
"""

from conftest import once

from repro.analysis.stats import amean, gmean, hmean
from repro.analysis.tables import format_table
from repro.common.params import BASELINE
from repro.core.runahead import ALL_POLICIES
from repro.workloads.catalog import MEMORY_WORKLOADS

VARIANTS = ("FLUSH", "TR", "TR-EARLY", "PRE", "PRE-EARLY", "RAR-LATE", "RAR")
_AXES = {p.name: p for p in ALL_POLICIES}


def test_fig09_variants(benchmark, sweep, report):
    def build():
        matrix = sweep(MEMORY_WORKLOADS, BASELINE, ("OOO",) + VARIANTS)
        agg = {}
        triggers = {}
        for pol in VARIANTS:
            mttfs, abcs, ipcs, trig = [], [], [], 0
            for w in MEMORY_WORKLOADS:
                base = matrix["OOO"][w.name]
                r = matrix[pol][w.name]
                mttfs.append(r.mttf_rel(base))
                abcs.append(r.abc_rel(base))
                ipcs.append(r.ipc_rel(base))
                trig += r.runahead_triggers
            agg[pol] = (gmean(mttfs), amean(abcs), hmean(ipcs))
            triggers[pol] = trig
        rows = []
        for pol in VARIANTS:
            p = _AXES[pol]
            axes = "".join((
                "E" if getattr(p, "early", False) else "-",
                "F" if getattr(p, "flush_at_exit", False) or pol == "FLUSH"
                else "-",
                "L" if getattr(p, "lean", False) else "-",
            ))
            rows.append([pol, axes, *agg[pol], triggers[pol]])
        table = format_table(
            ["variant", "axes(EFL)", "MTTF", "ABC_rel", "IPC_rel",
             "runahead intervals"], rows)
        return table, agg, triggers

    table, agg, triggers = once(benchmark, build)
    report("fig09_variants", table)

    mttf = {p: agg[p][0] for p in VARIANTS}
    abc = {p: agg[p][1] for p in VARIANTS}
    ipc = {p: agg[p][2] for p in VARIANTS}

    # Flushing at runahead exit is what buys reliability:
    for flushing in ("TR", "TR-EARLY", "RAR-LATE", "RAR"):
        assert mttf[flushing] > 2.0, flushing
        assert abc[flushing] < 0.5, flushing
    # ...while keeping the window (PRE*) does not:
    assert abc["PRE"] > 0.55
    assert abc["PRE-EARLY"] > 0.5, \
        "early start without flushing barely moves ABC (paper §V-D)"
    # Lean execution is what buys performance:
    assert ipc["PRE"] > ipc["TR"]
    assert ipc["RAR"] > ipc["TR-EARLY"]
    # RAR: strongest reliability among high-performance points.
    assert abc["RAR"] <= min(abc["PRE"], abc["PRE-EARLY"])
    assert ipc["RAR"] > 1.05
