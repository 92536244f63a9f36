"""Ablation — the early-start countdown timer threshold.

The paper implements early start with a 4-bit countdown timer initialised
to 15, arguing that a load resident at the ROB head for >14 cycles is
likely an LLC miss (L1/L2/L3 tag latencies being 1/3/10). This ablation
sweeps the threshold: very small values trigger runahead on L2/L3-bound
stalls too (more intervals, more overhead), very large values converge
towards late-start behaviour.
"""

from dataclasses import replace

from conftest import once

from repro.analysis.stats import amean, gmean, hmean
from repro.analysis.tables import format_table
from repro.common.params import BASELINE

THRESHOLDS = (3, 7, 15, 31, 63)
#: subset keeps the sweep affordable; one stream-, one chase-, one IQ-bound
WORKLOADS = ("libquantum", "mcf", "lbm")


def test_ablation_timer(benchmark, sweep, report):
    def build():
        base = sweep(WORKLOADS, BASELINE, ("OOO",))["OOO"]
        rows = []
        by_threshold = {}
        for t in THRESHOLDS:
            machine = BASELINE.with_core(
                replace(BASELINE.core, head_timer_init=t),
                name=f"baseline-timer{t}")
            rar = sweep(WORKLOADS, machine, ("RAR",))["RAR"]
            mttfs, ipcs, trigs = [], [], []
            for name in WORKLOADS:
                r = rar[name]
                mttfs.append(r.mttf_rel(base[name]))
                ipcs.append(r.ipc_rel(base[name]))
                trigs.append(r.runahead_triggers)
            by_threshold[t] = (gmean(mttfs), hmean(ipcs))
            rows.append([t, gmean(mttfs), hmean(ipcs), amean(trigs)])
        table = format_table(
            ["timer init", "MTTF_rel", "IPC_rel", "mean intervals"], rows)
        return table, by_threshold

    table, by_threshold = once(benchmark, build)
    report("ablation_timer", table)

    # Every threshold must keep RAR's dual win.
    for t, (mttf, ipc) in by_threshold.items():
        assert mttf > 1.5, f"timer={t}"
        assert ipc > 0.95, f"timer={t}"
    # The paper's 15 is a sane middle point: not dominated on both axes
    # by the extremes.
    m15, i15 = by_threshold[15]
    for t in (3, 63):
        m, i = by_threshold[t]
        assert not (m > m15 * 1.15 and i > i15 * 1.05), \
            f"timer={t} dominates the paper's choice"
