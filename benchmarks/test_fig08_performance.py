"""Figure 8 — IPC (a) and MLP (b) for OoO/FLUSH/PRE/RAR-LATE/RAR.

Paper shape: PRE is the best performer (+38% on the memory set), RAR and
RAR-LATE stay close behind (+33.5% / +32.7%), FLUSH degrades performance
(-9.3% average, up to -21.9%), and the runahead techniques raise MLP
substantially over the OoO baseline.
"""

from conftest import once

from repro.analysis.stats import amean, hmean
from repro.analysis.tables import format_table
from repro.common.params import BASELINE
from repro.workloads.catalog import COMPUTE_WORKLOADS, MEMORY_WORKLOADS

POLICIES = ("FLUSH", "PRE", "RAR-LATE", "RAR")


def test_fig08a_ipc(benchmark, sweep, report):
    def build():
        workloads = MEMORY_WORKLOADS + COMPUTE_WORKLOADS
        matrix = sweep(workloads, BASELINE, ("OOO",) + POLICIES)
        per_bench = {}
        for w in workloads:
            base = matrix["OOO"][w.name]
            per_bench[w.name] = {
                pol: matrix[pol][w.name].ipc_rel(base) for pol in POLICIES
            }
        rows = [[name] + [v[p] for p in POLICIES]
                for name, v in per_bench.items()]
        for setname, ws in (("hmean-mem", MEMORY_WORKLOADS),
                            ("hmean-cmp", COMPUTE_WORKLOADS)):
            rows.append([setname] + [
                hmean([per_bench[w.name][p] for w in ws]) for p in POLICIES])
        table = format_table(["benchmark"] + list(POLICIES), rows)
        return table, per_bench

    table, per_bench = once(benchmark, build)
    report("fig08a_ipc", table)

    mem = {p: hmean([per_bench[w.name][p] for w in MEMORY_WORKLOADS])
           for p in POLICIES}
    cmp_ = {p: hmean([per_bench[w.name][p] for w in COMPUTE_WORKLOADS])
            for p in POLICIES}
    assert mem["PRE"] > 1.10, "PRE: significant speedup on memory set"
    assert mem["FLUSH"] < 0.97, "FLUSH: loses performance"
    assert mem["RAR"] > 1.05, "RAR: keeps most of PRE's speedup"
    assert mem["RAR"] > mem["FLUSH"]
    # RAR-LATE pays a small, consistent exit-flush cost vs PRE.
    assert mem["RAR-LATE"] < mem["PRE"]
    # Compute set barely affected by RAR (paper: +0.4%).
    assert 0.9 < cmp_["RAR"] < 1.2


def test_fig08b_mlp(benchmark, sweep, report):
    def build():
        cols = ("OOO",) + POLICIES
        matrix = sweep(MEMORY_WORKLOADS, BASELINE, cols)
        per_bench = {w.name: {p: matrix[p][w.name].mlp for p in cols}
                     for w in MEMORY_WORKLOADS}
        rows = [[name] + [v[p] for p in cols]
                for name, v in per_bench.items()]
        rows.append(["amean"] + [
            amean([per_bench[w.name][p] for w in MEMORY_WORKLOADS])
            for p in cols])
        table = format_table(["benchmark"] + list(cols), rows)
        return table, per_bench

    table, per_bench = once(benchmark, build)
    report("fig08b_mlp", table)

    mean = {p: amean([per_bench[w.name][p] for w in MEMORY_WORKLOADS])
            for p in ("OOO",) + POLICIES}
    assert mean["FLUSH"] < mean["OOO"], "flushing destroys MLP"
    assert mean["PRE"] > mean["OOO"], "runahead exposes distant MLP"
    assert mean["RAR"] > mean["FLUSH"]
