"""Figure 5 — how much ACE exposure falls in long-latency-miss shadows.

Three bars per memory-intensive benchmark: total OoO ABC, the share
exposed while an LLC miss blocks commit at the ROB head ('ROB head
blocked'), and the share exposed during full-ROB stalls. Paper findings:
head-blocked windows account for the vast majority of exposure (70.4% on
average, up to 87.7%), and strictly contain the full-stall windows —
with mispredict-heavy benchmarks (mcf, gcc) showing the largest gap
between the two.
"""

from conftest import once

from repro.analysis.stats import amean
from repro.analysis.tables import format_table
from repro.common.params import BASELINE
from repro.workloads.catalog import MEMORY_WORKLOADS


def test_fig05_attribution(benchmark, sweep, report):
    def build():
        ooo = sweep(MEMORY_WORKLOADS, BASELINE, ("OOO",))["OOO"]
        rows = []
        shares = {}
        for w in MEMORY_WORKLOADS:
            r = ooo[w.name]
            hb = r.abc_head_blocked / r.abc_total
            fs = r.abc_full_stall / r.abc_total
            shares[w.name] = (hb, fs)
            rows.append([w.name, r.abc_total, fs, hb])
        rows.append(["amean", "", amean(fs for _, fs in shares.values()),
                     amean(hb for hb, _ in shares.values())])
        table = format_table(
            ["benchmark", "total ABC", "full-ROB-stall share",
             "ROB-head-blocked share"], rows)
        return table, shares

    table, shares = once(benchmark, build)
    report("fig05_attribution", table)

    hb_mean = amean(hb for hb, _ in shares.values())
    # The majority of vulnerable state is exposed under blocked heads.
    assert hb_mean > 0.5
    # Head-blocked windows contain the full-stall windows.
    for name, (hb, fs) in shares.items():
        assert hb >= fs - 1e-9, name
    # Mispredict-heavy mcf: a large part of its exposure happens while the
    # head is blocked but the ROB never fills (Section II-C).
    hb_mcf, fs_mcf = shares["mcf"]
    assert hb_mcf - fs_mcf > 0.15
