"""Figure 3 — ABC stacks per structure (ROB/IQ/LQ/SQ/RF/FU).

One stacked bar per memory-intensive benchmark plus the compute-set
average. The paper's findings: memory-intensive workloads expose far more
vulnerable state than compute-intensive ones, and the ROB holds the bulk
of it, followed by IQ/LQ/RF.
"""

from conftest import once

from repro.analysis.stats import amean
from repro.analysis.tables import format_table
from repro.common.params import BASELINE
from repro.reliability.ace import STRUCTURES
from repro.workloads.catalog import COMPUTE_WORKLOADS, MEMORY_WORKLOADS


def test_fig03_abc_stacks(benchmark, sweep, report):
    def build():
        ooo = sweep(MEMORY_WORKLOADS + COMPUTE_WORKLOADS, BASELINE,
                    ("OOO",))["OOO"]
        per_bench = {}
        for w in MEMORY_WORKLOADS + COMPUTE_WORKLOADS:
            r = ooo[w.name]
            # ABC per kilo-instruction so bars are comparable across runs.
            per_bench[w.name] = {
                s: r.abc[s] / (r.instructions / 1000.0) for s in STRUCTURES
            }
        cmp_avg = {
            s: amean([per_bench[w.name][s] for w in COMPUTE_WORKLOADS])
            for s in STRUCTURES
        }
        rows = [["compute-avg"] + [cmp_avg[s] for s in STRUCTURES]
                + [sum(cmp_avg.values())]]
        for w in MEMORY_WORKLOADS:
            stack = per_bench[w.name]
            rows.append([w.name] + [stack[s] for s in STRUCTURES]
                        + [sum(stack.values())])
        table = format_table(
            ["benchmark"] + list(STRUCTURES) + ["total"], rows, precision=0)
        return table, per_bench, cmp_avg

    table, per_bench, cmp_avg = once(benchmark, build)
    report("fig03_abc_stacks", table)

    mem_totals = [sum(per_bench[w.name].values()) for w in MEMORY_WORKLOADS]
    cmp_total = sum(cmp_avg.values())
    # Memory-intensive workloads expose much more vulnerable state.
    assert amean(mem_totals) > 3 * cmp_total
    # The reorder buffer is responsible for the bulk of the exposure.
    for w in MEMORY_WORKLOADS:
        stack = per_bench[w.name]
        assert stack["rob"] == max(stack.values()), w.name
        assert stack["rob"] > 0.4 * sum(stack.values()), w.name
