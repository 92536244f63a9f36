"""Ablation — Stalling Slice Table capacity (PRE's slice filter).

Lean runahead only executes uops whose PC hits in the SST. A tiny SST
thrashes on workloads with many distinct stalling slices and misses
prefetch opportunities; the paper's 128 entries comfortably hold the hot
slices of loop-dominated codes. This ablation sweeps SST capacity under
RAR and reports prefetch coverage and performance.
"""

from dataclasses import replace

from conftest import once

from repro.analysis.stats import gmean, hmean
from repro.analysis.tables import format_table
from repro.common.params import BASELINE

SIZES = (8, 32, 128)
WORKLOADS = ("libquantum", "gcc", "milc")


def test_ablation_sst(benchmark, sweep, report):
    def build():
        base = sweep(WORKLOADS, BASELINE, ("OOO",))["OOO"]
        rows = []
        data = {}
        for n in SIZES:
            machine = BASELINE.with_core(
                replace(BASELINE.core, sst_size=n), name=f"baseline-sst{n}")
            rar = sweep(WORKLOADS, machine, ("RAR",))["RAR"]
            ipcs, mttfs, prefetches = [], [], 0
            for name in WORKLOADS:
                r = rar[name]
                ipcs.append(r.ipc_rel(base[name]))
                mttfs.append(r.mttf_rel(base[name]))
                prefetches += r.runahead_prefetches
            data[n] = (hmean(ipcs), gmean(mttfs), prefetches)
            rows.append([n, *data[n]])
        table = format_table(
            ["SST entries", "IPC_rel", "MTTF_rel", "runahead accesses"],
            rows)
        return table, data

    table, data = once(benchmark, build)
    report("ablation_sst", table)

    # Reliability is flush-driven, not SST-driven: stable across sizes.
    for n in SIZES:
        assert data[n][1] > 1.5, f"sst={n}"
    # A larger SST never hurts performance materially.
    assert data[128][0] >= data[8][0] * 0.95
