"""Figure 7 — MTTF (a) and ABC (b) for OoO/FLUSH/PRE/RAR-LATE/RAR.

Per-benchmark bars over the full workload set plus per-set means
(geomean for MTTF, amean for normalised ABC). Paper shape: ABC ordering
RAR < RAR-LATE < FLUSH < PRE < OoO; RAR's MTTF gain is largest on the
memory-intensive set and modest-but-real on the compute set.
"""

from conftest import once

from repro.analysis.stats import amean, gmean
from repro.analysis.tables import format_table
from repro.common.params import BASELINE
from repro.workloads.catalog import COMPUTE_WORKLOADS, MEMORY_WORKLOADS

POLICIES = ("FLUSH", "PRE", "RAR-LATE", "RAR")


def _collect(sweep, metric):
    workloads = MEMORY_WORKLOADS + COMPUTE_WORKLOADS
    matrix = sweep(workloads, BASELINE, ("OOO",) + POLICIES)
    per_bench = {}
    for w in workloads:
        base = matrix["OOO"][w.name]
        per_bench[w.name] = {
            pol: metric(matrix[pol][w.name], base) for pol in POLICIES
        }
    return per_bench


def test_fig07a_mttf(benchmark, sweep, report):
    def build():
        per_bench = _collect(sweep, lambda r, b: r.mttf_rel(b))
        rows = [[name] + [vals[p] for p in POLICIES]
                for name, vals in per_bench.items()]
        for setname, ws in (("geomean-mem", MEMORY_WORKLOADS),
                            ("geomean-cmp", COMPUTE_WORKLOADS)):
            rows.append([setname] + [
                gmean([per_bench[w.name][p] for w in ws]) for p in POLICIES])
        table = format_table(["benchmark"] + list(POLICIES), rows)
        return table, per_bench

    table, per_bench = once(benchmark, build)
    report("fig07a_mttf", table)

    mem_mean = {p: gmean([per_bench[w.name][p] for w in MEMORY_WORKLOADS])
                for p in POLICIES}
    cmp_mean = {p: gmean([per_bench[w.name][p] for w in COMPUTE_WORKLOADS])
                for p in POLICIES}
    assert mem_mean["RAR"] > 2.0, "RAR: large MTTF gain on memory set"
    assert mem_mean["RAR"] > mem_mean["PRE"] * 2
    assert 0.7 < cmp_mean["PRE"] < 1.6, "PRE: no reliability story"
    assert cmp_mean["RAR"] > 1.1, "RAR: modest gain on compute set"


def test_fig07b_abc(benchmark, sweep, report):
    def build():
        per_bench = _collect(sweep, lambda r, b: r.abc_rel(b))
        rows = [[name] + [vals[p] for p in POLICIES]
                for name, vals in per_bench.items()]
        for setname, ws in (("amean-mem", MEMORY_WORKLOADS),
                            ("amean-cmp", COMPUTE_WORKLOADS)):
            rows.append([setname] + [
                amean([per_bench[w.name][p] for w in ws]) for p in POLICIES])
        table = format_table(["benchmark"] + list(POLICIES), rows)
        return table, per_bench

    table, per_bench = once(benchmark, build)
    report("fig07b_abc", table)

    mem = {p: amean([per_bench[w.name][p] for w in MEMORY_WORKLOADS])
           for p in POLICIES}
    # The paper's normalised-ABC ordering (Figure 7b):
    # RAR < RAR-LATE < FLUSH < PRE < OoO(=1).
    assert mem["RAR"] < mem["FLUSH"] < mem["PRE"] < 1.0
    assert mem["RAR"] <= mem["RAR-LATE"] * 1.1
    assert mem["RAR"] < 0.45, "RAR removes the bulk of exposed state"
    assert mem["PRE"] > 0.55, "PRE alone keeps most state vulnerable"
