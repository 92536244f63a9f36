"""Ablation — MSHR count (the MLP ceiling).

Runahead's benefit is bounded by how many misses can be in flight: the
L1D's miss-status holding registers. The paper's baseline has 20; this
sweep shows runahead gains growing with the MSHR budget on streaming
workloads (more distant MLP to harvest) while the OoO baseline saturates
at the window's intrinsic parallelism.
"""

from dataclasses import replace

from conftest import once

from repro.analysis.stats import hmean
from repro.analysis.tables import format_table
from repro.common.params import BASELINE

MSHRS = (8, 20, 40)
WORKLOADS = ("libquantum", "fotonik", "bwaves")


def test_ablation_mshr(benchmark, sweep, report):
    def build():
        rows = []
        data = {}
        for n in MSHRS:
            machine = replace(
                BASELINE, l1d=replace(BASELINE.l1d, mshrs=n),
                name=f"baseline-mshr{n}")
            matrix = sweep(WORKLOADS, machine, ("OOO", "RAR"))
            ipc_ooo, ipc_rar, mlp_ooo, mlp_rar = [], [], [], []
            for name in WORKLOADS:
                ooo = matrix["OOO"][name]
                rar = matrix["RAR"][name]
                ipc_ooo.append(ooo.ipc)
                ipc_rar.append(rar.ipc)
                mlp_ooo.append(ooo.mlp)
                mlp_rar.append(rar.mlp)
            data[n] = (hmean(ipc_ooo), hmean(ipc_rar),
                       hmean(mlp_ooo), hmean(mlp_rar))
            rows.append([n, *data[n]])
        table = format_table(
            ["MSHRs", "OoO IPC", "RAR IPC", "OoO MLP", "RAR MLP"], rows)
        return table, data

    table, data = once(benchmark, build)
    report("ablation_mshr", table)

    # MLP is MSHR-bounded: more MSHRs, more observable parallelism.
    assert data[40][3] > data[8][3]
    # RAR exploits the extra headroom at least as well as the baseline.
    rar_gain = data[40][1] / data[8][1]
    ooo_gain = data[40][0] / data[8][0]
    assert rar_gain > ooo_gain * 0.9
    # With very few MSHRs both converge (nothing to overlap).
    assert data[8][1] < data[40][1] * 1.1 or data[8][1] <= data[40][1]
