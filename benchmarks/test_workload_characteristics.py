"""Workload-set acceptance: the paper's MPKI classification rule.

"All memory-intensive benchmarks have more than 8 LLC misses per thousand
instructions (MPKI > 8) on the baseline OoO core. All benchmarks with an
MPKI of less than 8 [...] are considered to be compute-intensive."

This bench characterises every catalog workload on the baseline and
asserts the classification holds, and prints the characteristics table
(IPC, MPKI, MLP, branch mispredicts) used to sanity-check the synthetic
substitutes against their SPEC namesakes.
"""

from conftest import once

from repro.analysis.tables import format_table
from repro.common.params import BASELINE
from repro.workloads.catalog import COMPUTE_WORKLOADS, MEMORY_WORKLOADS


def test_workload_characteristics(benchmark, sweep, report):
    def build():
        ooo = sweep(MEMORY_WORKLOADS + COMPUTE_WORKLOADS, BASELINE,
                    ("OOO",))["OOO"]
        rows = []
        for w in MEMORY_WORKLOADS + COMPUTE_WORKLOADS:
            r = ooo[w.name]
            rows.append([
                w.name, "mem" if w.memory_intensive else "cmp",
                r.ipc, r.mpki, r.mlp,
                1000.0 * r.branch_mispredicts / r.instructions,
            ])
        table = format_table(
            ["benchmark", "set", "IPC", "LLC MPKI", "MLP",
             "mispredicts/kinst"], rows)
        return table, ooo

    table, ooo = once(benchmark, build)
    report("workload_characteristics", table)

    for w in MEMORY_WORKLOADS:
        assert ooo[w.name].mpki > 8.0, \
            f"{w.name}: memory-intensive benchmarks need MPKI > 8"
    for w in COMPUTE_WORKLOADS:
        assert ooo[w.name].mpki < 8.0, \
            f"{w.name}: compute-intensive benchmarks need MPKI < 8"
    # The per-benchmark character must be diverse, not one template:
    # pointer chasers show low MLP, streamers high MLP.
    assert ooo["fotonik"].mlp > 2 * ooo["mcf"].mlp
