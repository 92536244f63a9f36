"""Figure 4 (+ Table I) — ABC versus back-end structure size.

Runs the OoO baseline on the four core generations of Table I
(128/192/224/352-entry ROBs) over the memory-intensive set and reports
total ABC normalised to Core-1. The paper finds an approximately linear
increase, reaching ~1.8x at Core-4.
"""

from conftest import once

from repro.analysis.stats import amean
from repro.analysis.tables import format_table
from repro.common.params import SCALED_MACHINES
from repro.workloads.catalog import MEMORY_WORKLOADS


def test_fig04_core_scaling(benchmark, sweep, report):
    def build():
        abc_by_machine = {}
        for machine in SCALED_MACHINES:
            ooo = sweep(MEMORY_WORKLOADS, machine, ("OOO",))["OOO"]
            vals = []
            for w in MEMORY_WORKLOADS:
                r = ooo[w.name]
                vals.append(r.abc_total / (r.instructions / 1000.0))
            abc_by_machine[machine.name] = amean(vals)
        base = abc_by_machine["core-1"]
        rows = [
            [m.name, m.core.rob_size, abc_by_machine[m.name] / base]
            for m in SCALED_MACHINES
        ]
        table = format_table(["machine", "ROB", "normalized ABC"], rows)
        return table, [abc_by_machine[m.name] / base for m in SCALED_MACHINES]

    table, norm = once(benchmark, build)
    report("fig04_core_scaling", table)

    # Vulnerability grows monotonically with back-end size...
    assert norm == sorted(norm)
    # ...and substantially: the paper reports ~1.83x for Core-4 vs Core-1.
    assert norm[-1] > 1.3
    assert norm[0] == 1.0
