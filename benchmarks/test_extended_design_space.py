"""Extension — the design space beyond the paper's Table IV.

Places the implemented related-work mechanisms next to the paper's points
on the same axes: dispatch throttling (§VI-C), the runahead buffer
(Hashemi & Patt, MICRO'15) and reliability-aware vector runahead
(RAR's optimisations on Naithani et al.'s ISCA'21 vectorisation).
Memory-set means relative to the OoO baseline.
"""

from conftest import once

from repro.analysis.stats import amean, gmean, hmean
from repro.analysis.tables import format_table
from repro.common.params import BASELINE
from repro.workloads.catalog import MEMORY_WORKLOADS

POLICIES = ("FLUSH", "THROTTLE", "TR", "PRE", "RA-BUFFER", "RAR", "VEC-RAR")


def test_extended_design_space(benchmark, sweep, report):
    def build():
        matrix = sweep(MEMORY_WORKLOADS, BASELINE, ("OOO",) + POLICIES)
        agg = {}
        for pol in POLICIES:
            mttfs, abcs, ipcs = [], [], []
            for w in MEMORY_WORKLOADS:
                base = matrix["OOO"][w.name]
                r = matrix[pol][w.name]
                mttfs.append(r.mttf_rel(base))
                abcs.append(r.abc_rel(base))
                ipcs.append(r.ipc_rel(base))
            agg[pol] = (gmean(mttfs), amean(abcs), hmean(ipcs))
        rows = [[pol, *agg[pol]] for pol in POLICIES]
        table = format_table(["policy", "MTTF", "ABC_rel", "IPC_rel"], rows)
        return table, agg

    table, agg = once(benchmark, build)
    report("extended_design_space", table)

    # THROTTLE sits between OoO and FLUSH on both axes.
    assert 1.0 < agg["THROTTLE"][0] < agg["FLUSH"][0]
    assert agg["THROTTLE"][2] > agg["FLUSH"][2]
    # The runahead buffer is PRE-like: performance without reliability.
    assert agg["RA-BUFFER"][0] < 2.0
    # Vector runahead keeps RAR's reliability class.
    assert agg["VEC-RAR"][1] < 0.3
    assert agg["VEC-RAR"][0] > 3.0
    # And its performance is at least RAR-competitive.
    assert agg["VEC-RAR"][2] > agg["RAR"][2] * 0.9
