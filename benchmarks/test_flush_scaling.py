"""Section III-A1 — flushing's performance penalty grows with ROB size.

The paper quantifies Weaver-style flushing across the Table I core
generations: -7.6% average at the 128-entry ROB growing to -12.2% at the
352-entry one, because a larger window holds more MLP for the flush to
destroy. This bench reproduces that scaling claim.
"""

from conftest import once

from repro.analysis.stats import hmean
from repro.analysis.tables import format_table
from repro.common.params import SCALED_MACHINES
from repro.workloads.catalog import MEMORY_WORKLOADS


def test_flush_penalty_scaling(benchmark, sweep, report):
    def build():
        penalties = {}
        rows = []
        for machine in SCALED_MACHINES:
            matrix = sweep(MEMORY_WORKLOADS, machine, ("OOO", "FLUSH"))
            ratios = [matrix["FLUSH"][w.name].ipc_rel(matrix["OOO"][w.name])
                      for w in MEMORY_WORKLOADS]
            penalties[machine.core.rob_size] = hmean(ratios)
            rows.append([machine.name, machine.core.rob_size,
                         hmean(ratios), (1 - hmean(ratios)) * 100])
        table = format_table(
            ["machine", "ROB", "FLUSH IPC_rel", "penalty %"], rows)
        return table, penalties

    table, penalties = once(benchmark, build)
    report("flush_scaling", table)

    robs = sorted(penalties)
    # Flushing always costs performance...
    for rob in robs:
        assert penalties[rob] < 1.0
    # ...and costs *more* on larger windows (more MLP destroyed).
    assert penalties[robs[-1]] < penalties[robs[0]]
