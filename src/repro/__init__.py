"""repro — Reliability-Aware Runahead (HPCA 2022) in Python.

A cycle-level out-of-order core simulator with ACE-bit soft-error
accounting and the full runahead design space of the paper: FLUSH, TR,
TR-EARLY, PRE, PRE-EARLY, RAR-LATE and RAR.

Quickstart::

    from repro import simulate, BASELINE, OOO, RAR

    base = simulate("mcf", BASELINE, OOO, instructions=20_000)
    rar = simulate("mcf", BASELINE, RAR, instructions=20_000)
    print(f"IPC {rar.ipc_rel(base):.2f}x, MTTF {rar.mttf_rel(base):.1f}x")
"""

from repro.analysis.experiments import ExperimentRunner
from repro.analysis.stats import amean, gmean, hmean
from repro.checkpoint import Checkpoint, warm_checkpoint
from repro.common.params import (
    BASELINE,
    DEFAULT_INSTRUCTIONS,
    DEFAULT_WARMUP,
    CORE1,
    CORE2,
    CORE3,
    CORE4,
    CacheParams,
    CoreParams,
    DramParams,
    MachineParams,
    PrefetcherParams,
)
from repro.core.core import OutOfOrderCore
from repro.obs import Telemetry
from repro.core.runahead import (
    ALL_POLICIES,
    EXTENSION_POLICIES,
    FLUSH,
    OOO,
    PRE,
    PRE_EARLY,
    RA_BUFFER,
    RAR,
    RAR_LATE,
    THROTTLE,
    TR,
    TR_EARLY,
    VEC_RAR,
    RunaheadPolicy,
    get_policy,
)
from repro.sim import SimResult, simulate
from repro.workloads.catalog import (
    ALL_WORKLOADS,
    COMPUTE_WORKLOADS,
    EXTRA_WORKLOADS,
    MEMORY_WORKLOADS,
    get_workload,
    workload_names,
)

__version__ = "1.0.0"

__all__ = [
    "simulate",
    "SimResult",
    "Checkpoint",
    "warm_checkpoint",
    "DEFAULT_INSTRUCTIONS",
    "DEFAULT_WARMUP",
    "OutOfOrderCore",
    "Telemetry",
    "ExperimentRunner",
    "RunaheadPolicy",
    "OOO",
    "FLUSH",
    "TR",
    "TR_EARLY",
    "PRE",
    "PRE_EARLY",
    "RAR_LATE",
    "RAR",
    "THROTTLE",
    "RA_BUFFER",
    "VEC_RAR",
    "ALL_POLICIES",
    "EXTENSION_POLICIES",
    "get_policy",
    "MachineParams",
    "CoreParams",
    "CacheParams",
    "DramParams",
    "PrefetcherParams",
    "BASELINE",
    "CORE1",
    "CORE2",
    "CORE3",
    "CORE4",
    "get_workload",
    "workload_names",
    "MEMORY_WORKLOADS",
    "COMPUTE_WORKLOADS",
    "ALL_WORKLOADS",
    "EXTRA_WORKLOADS",
    "amean",
    "hmean",
    "gmean",
    "__version__",
]
