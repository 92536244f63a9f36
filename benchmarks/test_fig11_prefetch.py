"""Figure 11 — RAR under hardware prefetching.

Adds the stride prefetcher (16 streams) at the LLC ('+L3') or at all
levels ('+ALL') and re-evaluates OoO, PRE and RAR. All numbers are
relative to the *no-prefetch* OoO baseline. Paper shape: prefetching
removes some of the misses runahead would have covered, but RAR still
improves both reliability and performance on prefetch-enabled machines.
"""

from conftest import once

from repro.analysis.stats import amean, gmean, hmean
from repro.analysis.tables import format_table
from repro.common.params import BASELINE, PrefetcherParams
from repro.workloads.catalog import MEMORY_WORKLOADS

PF_L3 = BASELINE.with_prefetcher(
    PrefetcherParams(levels=("l3",)), name="baseline+L3")
PF_ALL = BASELINE.with_prefetcher(
    PrefetcherParams(levels=("l1", "l2", "l3")), name="baseline+ALL")

CONFIGS = (
    ("OOO", BASELINE), ("PRE", BASELINE), ("RAR", BASELINE),
    ("OOO+L3", PF_L3), ("PRE+L3", PF_L3), ("RAR+L3", PF_L3),
    ("OOO+ALL", PF_ALL), ("PRE+ALL", PF_ALL), ("RAR+ALL", PF_ALL),
)


def test_fig11_prefetch(benchmark, sweep, report):
    def build():
        matrices = {m.name: sweep(MEMORY_WORKLOADS, m, ("OOO", "PRE", "RAR"))
                    for m in (BASELINE, PF_L3, PF_ALL)}
        agg = {}
        for label, machine in CONFIGS:
            pol = label.split("+")[0]
            mttfs, abcs, ipcs = [], [], []
            for w in MEMORY_WORKLOADS:
                base = matrices[BASELINE.name]["OOO"][w.name]
                r = matrices[machine.name][pol][w.name]
                mttfs.append(r.mttf_rel(base))
                abcs.append(r.abc_rel(base))
                ipcs.append(r.ipc_rel(base))
            agg[label] = (gmean(mttfs), amean(abcs), hmean(ipcs))
        rows = [[label, *agg[label]] for label, _ in CONFIGS]
        table = format_table(["config", "MTTF", "ABC_rel", "IPC_rel"], rows)
        return table, agg

    table, agg = once(benchmark, build)
    report("fig11_prefetch", table)

    # Prefetching itself helps the baseline.
    assert agg["OOO+ALL"][2] >= agg["OOO"][2] * 0.98
    # RAR still delivers a reliability win on prefetch-enabled machines.
    for cfg in ("RAR+L3", "RAR+ALL"):
        assert agg[cfg][0] > 1.8, cfg
        assert agg[cfg][1] < 0.6, cfg
    # And performance does not regress versus the matching OoO machine.
    assert agg["RAR+L3"][2] > agg["OOO+L3"][2] * 0.95
    assert agg["RAR+ALL"][2] > agg["OOO+ALL"][2] * 0.95
    # PRE keeps its performance edge with prefetching on.
    assert agg["PRE+L3"][2] > agg["OOO+L3"][2] * 0.98
