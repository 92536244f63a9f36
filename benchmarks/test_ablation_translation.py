"""Ablation — OS page allocation vs. identity address mapping.

The reproduction's default maps virtual lines straight to DRAM addresses
(identity), which gives streams maximal row-buffer locality but pins each
page's traffic to one bank. Enabling the page-shuffle translation models an
OS allocator scattering frames: row locality across pages is lost, but
bank-level parallelism rises. This ablation quantifies the effect on the
baseline and checks RAR's qualitative result is robust to the mapping.
"""

from dataclasses import replace

from conftest import once

from repro.analysis.stats import gmean, hmean
from repro.analysis.tables import format_table
from repro.common.params import BASELINE

SHUFFLED = replace(BASELINE, page_shuffle_seed=2022, name="baseline-pgshuf")
WORKLOADS = ("libquantum", "mcf", "milc")


def test_ablation_translation(benchmark, sweep, report):
    def build():
        rows = []
        data = {}
        for label, machine in (("identity", BASELINE),
                               ("shuffled", SHUFFLED)):
            matrix = sweep(WORKLOADS, machine, ("OOO", "RAR"))
            ipcs, mttfs, rar_ipcs = [], [], []
            for name in WORKLOADS:
                base = matrix["OOO"][name]
                rar = matrix["RAR"][name]
                ipcs.append(base.ipc)
                rar_ipcs.append(rar.ipc_rel(base))
                mttfs.append(rar.mttf_rel(base))
            data[label] = (hmean(ipcs), hmean(rar_ipcs), gmean(mttfs))
            rows.append([label, *data[label]])
        table = format_table(
            ["mapping", "OoO IPC", "RAR IPC_rel", "RAR MTTF_rel"], rows)
        return table, data

    table, data = once(benchmark, build)
    report("ablation_translation", table)

    # RAR's dual win must hold under either address mapping.
    for label in ("identity", "shuffled"):
        assert data[label][2] > 1.5, label
        assert data[label][1] > 0.9, label
