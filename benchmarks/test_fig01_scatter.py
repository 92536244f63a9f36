"""Figure 1 — performance (IPC) versus reliability (MTTF) scatter.

Reproduces the paper's headline scatter: FLUSH, TR, PRE and RAR relative to
the OoO baseline, averaged over the memory-intensive set (hmean for IPC
ratios, geomean for MTTF ratios). The paper's shape: FLUSH = high
reliability / low performance, PRE = high performance / no reliability,
TR = modest on both axes, RAR = high on both.
"""

from conftest import once

from repro.analysis.stats import gmean, hmean
from repro.analysis.tables import format_table
from repro.common.params import BASELINE
from repro.workloads.catalog import MEMORY_WORKLOADS

POLICIES = ("FLUSH", "TR", "PRE", "RAR")


def test_fig01_scatter(benchmark, sweep, report):
    def build():
        matrix = sweep(MEMORY_WORKLOADS, BASELINE, ("OOO",) + POLICIES)
        rows = []
        points = {}
        for pol in POLICIES:
            mttfs, ipcs = [], []
            for w in MEMORY_WORKLOADS:
                base = matrix["OOO"][w.name]
                r = matrix[pol][w.name]
                mttfs.append(r.mttf_rel(base))
                ipcs.append(r.ipc_rel(base))
            points[pol] = (hmean(ipcs), gmean(mttfs))
            rows.append([pol, hmean(ipcs), gmean(mttfs)])
        table = format_table(
            ["technique", "relative IPC", "relative MTTF"], rows)
        return table, points

    table, points = once(benchmark, build)
    report("fig01_ipc_vs_mttf", table)

    # Paper shape assertions.
    assert points["FLUSH"][0] < 1.0, "FLUSH must cost performance"
    assert points["FLUSH"][1] > 1.5, "FLUSH must improve reliability"
    assert points["PRE"][0] > 1.08, "PRE must improve performance"
    assert points["PRE"][1] < 1.5, "PRE alone gives no big MTTF gain"
    assert points["RAR"][0] > 1.05, "RAR keeps PRE-class performance"
    assert points["RAR"][1] > 2.0, "RAR must improve reliability a lot"
    # RAR is the only point strong on both axes.
    for pol in ("FLUSH", "TR", "PRE"):
        strong_both = points[pol][0] > 1.1 and points[pol][1] > 2.0
        assert not strong_both, f"{pol} should not dominate both axes"
