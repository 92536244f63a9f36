"""Extension — first-order energy comparison of the design space.

Not a paper figure, but the quantitative backdrop of the paper's §VI
discussion: traditional runahead's energy problem (it executes *every*
future instruction speculatively) versus PRE's lean filtering, and where
RAR lands once its flush-refetch work is charged. Reported as energy per
instruction (EPI) and energy-delay product (EDP), memory-set means,
relative to the OoO baseline.
"""

from conftest import once

from repro.analysis.energy import energy_delay_product, energy_per_instruction
from repro.analysis.stats import amean
from repro.analysis.tables import format_table
from repro.common.params import BASELINE
from repro.workloads.catalog import MEMORY_WORKLOADS

POLICIES = ("FLUSH", "TR", "PRE", "RAR-LATE", "RAR")


def test_energy_comparison(benchmark, sweep, report):
    def build():
        matrix = sweep(MEMORY_WORKLOADS, BASELINE, ("OOO",) + POLICIES)
        agg = {}
        for pol in POLICIES:
            epis, edps = [], []
            for w in MEMORY_WORKLOADS:
                base = matrix["OOO"][w.name]
                r = matrix[pol][w.name]
                epis.append(energy_per_instruction(r)
                            / energy_per_instruction(base))
                edps.append(energy_delay_product(r)
                            / energy_delay_product(base))
            agg[pol] = (amean(epis), amean(edps))
        rows = [[pol, *agg[pol]] for pol in POLICIES]
        table = format_table(["policy", "EPI_rel", "EDP_rel"], rows)
        return table, agg

    table, agg = once(benchmark, build)
    report("energy_comparison", table)

    # Traditional runahead pays the largest speculative-execution bill.
    assert agg["TR"][0] > agg["PRE"][0]
    # RAR's speed keeps its energy-delay product competitive.
    assert agg["RAR"][1] < agg["TR"][1]
