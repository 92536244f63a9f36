"""Figure 10 — RAR closes the reliability gap as back-ends grow.

ABC (memory-set amean, normalised to the Core-1 OoO baseline) as a
function of ROB size for the OoO baseline and for RAR, over the four
Table I core generations. Paper shape: the OoO curve climbs steeply with
back-end size while the RAR curve stays nearly flat.
"""

from conftest import once

from repro.analysis.stats import amean
from repro.analysis.tables import format_table
from repro.common.params import SCALED_MACHINES
from repro.workloads.catalog import MEMORY_WORKLOADS


def test_fig10_scaling(benchmark, sweep, report):
    def build():
        abc = {"OOO": [], "RAR": []}
        for machine in SCALED_MACHINES:
            matrix = sweep(MEMORY_WORKLOADS, machine, ("OOO", "RAR"))
            for pol in ("OOO", "RAR"):
                vals = [
                    matrix[pol][w.name].abc_total
                    / (matrix[pol][w.name].instructions / 1000.0)
                    for w in MEMORY_WORKLOADS
                ]
                abc[pol].append(amean(vals))
        base = abc["OOO"][0]
        series = {p: [v / base for v in vals] for p, vals in abc.items()}
        rows = [
            [m.name, m.core.rob_size, series["OOO"][i], series["RAR"][i]]
            for i, m in enumerate(SCALED_MACHINES)
        ]
        table = format_table(["machine", "ROB", "OoO ABC", "RAR ABC"], rows)
        return table, series

    table, series = once(benchmark, build)
    report("fig10_scaling_rar", table)

    ooo, rar = series["OOO"], series["RAR"]
    # The baseline's exposure grows with back-end size...
    assert ooo[-1] > ooo[0] * 1.3
    # ...RAR stays far below it at every size...
    for o, r in zip(ooo, rar):
        assert r < 0.5 * o
    # ...and the absolute gap widens with size (RAR "closes the widening
    # reliability gap"): the saving at Core-4 exceeds the saving at Core-1.
    assert (ooo[-1] - rar[-1]) > (ooo[0] - rar[0])
