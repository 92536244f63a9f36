"""Fast-vs-detailed warmup cross-validation (``repro warmval``).

The functional fast-warmup engine (:mod:`repro.core.fastfwd`) is an
explicit approximation: it trains the long-lived structures on the same
correct-path stream as a detailed warmup but skips wrong-path fetch,
runahead episodes and real pipeline timing. This module quantifies the
approximation the way simplified-vs-detailed model validations do
(Zhang et al.; the Chatzopoulos RISC-V methodology, see PAPERS.md): run
the same measured region from a detailed-warmed and a fast-warmed
:func:`repro.sim.warm_core` core — the exact sequence ``repro run``
and unshared sweep points execute — and compare the measured-region
metrics point by point.

The grid is {mcf, lbm, gcc} × {OOO, FLUSH, TR, PRE, RAR} by default —
the paper's core policies over memory-bound and compute-bound
workloads. Each point's IPC / LLC MPKI / branch-misses-per-kinst / AVF
deltas must stay inside :data:`TOLERANCES` (documented in
docs/performance.md; the headline target is ≤2% IPC). The per-point
deltas are written to a JSON report for CI artifacts, and the warmup
wall-time of both modes is recorded so the fast path's speedup is
asserted where it is measured.

Tolerance semantics: a metric passes when
``|fast - detailed| <= max(rel * |detailed|, floor)``. The absolute
floor keeps near-zero denominators (a compute-bound workload's MPKI,
AVF in the 0.2 range) from turning sub-noise absolute differences into
huge relative ones.
"""

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.common.params import BASELINE, MachineParams
from repro.sim import SimResult, measure, warm_core

__all__ = ["TOLERANCES", "WARMVAL_POLICIES", "WARMVAL_WORKLOADS",
           "WarmvalPoint", "WarmvalReport", "run_warmval", "warmval_table"]

WARMVAL_WORKLOADS = ("mcf", "lbm", "gcc")
WARMVAL_POLICIES = ("OOO", "FLUSH", "TR", "PRE", "RAR")

#: metric -> (relative tolerance, absolute floor). See module docstring
#: for semantics; docs/performance.md carries the rendered table and
#: the measured deltas backing these bounds. Exact-warmup policies
#: (OOO) measure well inside the paper's ≤2% IPC target (≤1% on the
#: default grid); runahead/flush policies sit higher because episode
#: *timing* during warmup is chaotically sensitive to microstate the
#: functional walk cannot replicate — their measured deltas plateau
#: around 3-5% IPC regardless of region size, so the documented bound
#: is 6%.
TOLERANCES: Dict[str, Tuple[float, float]] = {
    "ipc": (0.06, 0.005),
    "mpki": (0.10, 3.0),
    "branch_mpki": (0.15, 2.0),
    "avf": (0.10, 0.02),
}


def _metrics(r: SimResult) -> Dict[str, float]:
    kinst = r.instructions / 1000.0
    return {
        "ipc": r.ipc,
        "mpki": r.mpki,
        "branch_mpki": r.branch_mispredicts / kinst if kinst else 0.0,
        "avf": r.avf,
    }


@dataclass
class WarmvalPoint:
    """One grid point's fast-vs-detailed comparison."""

    workload: str
    policy: str
    machine: str
    #: metric -> {detailed, fast, abs_delta, rel_delta, tol_rel,
    #: tol_floor, ok}
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    warm_wall_detailed_s: float = 0.0
    warm_wall_fast_s: float = 0.0
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "policy": self.policy,
            "machine": self.machine,
            "metrics": self.metrics,
            "warm_wall_detailed_s": round(self.warm_wall_detailed_s, 4),
            "warm_wall_fast_s": round(self.warm_wall_fast_s, 4),
            "ok": self.ok,
            "problems": list(self.problems),
        }


@dataclass
class WarmvalReport:
    """The full cross-validation run: points + aggregate warmup timing."""

    machine: str
    instructions: int
    warmup: int
    points: List[WarmvalPoint] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.points)

    @property
    def problems(self) -> List[str]:
        return [f"{p.workload}/{p.policy}: {msg}"
                for p in self.points for msg in p.problems]

    @property
    def warmup_wall_detailed_s(self) -> float:
        return sum(p.warm_wall_detailed_s for p in self.points)

    @property
    def warmup_wall_fast_s(self) -> float:
        return sum(p.warm_wall_fast_s for p in self.points)

    @property
    def warmup_speedup(self) -> float:
        fast = self.warmup_wall_fast_s
        return self.warmup_wall_detailed_s / fast if fast else 0.0

    def max_rel_delta(self, metric: str) -> float:
        return max((p.metrics[metric]["rel_delta"] for p in self.points
                    if metric in p.metrics), default=0.0)

    def to_dict(self) -> Dict[str, Any]:
        from repro.obs.manifest import host_manifest
        return {
            "schema": 1,
            "machine": self.machine,
            "instructions": self.instructions,
            "warmup": self.warmup,
            "tolerances": {m: {"rel": rel, "floor": floor}
                           for m, (rel, floor) in TOLERANCES.items()},
            "warmup_wall_detailed_s": round(self.warmup_wall_detailed_s, 4),
            "warmup_wall_fast_s": round(self.warmup_wall_fast_s, 4),
            "warmup_speedup": round(self.warmup_speedup, 2),
            "ok": self.ok,
            "problems": self.problems,
            "points": [p.to_dict() for p in self.points],
            "manifest": host_manifest(),
        }


def _compare(detailed: SimResult, fast: SimResult,
             point: WarmvalPoint) -> None:
    dm, fm = _metrics(detailed), _metrics(fast)
    for name, (rel, floor) in TOLERANCES.items():
        d, f = dm[name], fm[name]
        abs_delta = abs(f - d)
        rel_delta = abs_delta / abs(d) if d else (abs_delta and float("inf"))
        bound = max(rel * abs(d), floor)
        ok = abs_delta <= bound
        point.metrics[name] = {
            "detailed": round(d, 6), "fast": round(f, 6),
            "abs_delta": round(abs_delta, 6),
            "rel_delta": round(rel_delta, 6) if rel_delta != float("inf")
            else rel_delta,
            "tol_rel": rel, "tol_floor": floor, "ok": ok,
        }
        if not ok:
            point.problems.append(
                f"{name}: detailed={d:.4f} fast={f:.4f} "
                f"|delta|={abs_delta:.4f} > max({rel:.0%}*|d|, {floor})")


def run_warmval(
    workloads: Iterable[str] = WARMVAL_WORKLOADS,
    policies: Iterable[str] = WARMVAL_POLICIES,
    machine: MachineParams = BASELINE,
    instructions: int = 10_000,
    warmup: int = 20_000,
    seed: Optional[int] = None,
) -> WarmvalReport:
    """Run the grid under both warmup modes and compare measured regions.

    Each point warms its *own* policy in both modes (the exact-policy
    shape, so the detailed leg is bit-identical to a cold
    ``simulate()``) and measures the same region from each warmed core.
    Warmup wall time (core build included) is recorded per mode;
    everything lands in the returned :class:`WarmvalReport`.
    """
    report = WarmvalReport(machine=machine.name, instructions=instructions,
                           warmup=warmup)
    for workload in workloads:
        for policy in policies:
            point = WarmvalPoint(workload=workload, policy=policy,
                                 machine=machine.name)
            t0 = time.perf_counter()
            core, name = warm_core(workload, machine, policy, warmup, seed)
            point.warm_wall_detailed_s = time.perf_counter() - t0
            detailed = measure(core, instructions, name)
            t0 = time.perf_counter()
            core, name = warm_core(workload, machine, policy, warmup, seed,
                                   warmup_mode="fast")
            point.warm_wall_fast_s = time.perf_counter() - t0
            fast = measure(core, instructions, name)
            _compare(detailed, fast, point)
            report.points.append(point)
    return report


def warmval_table(report: WarmvalReport) -> str:
    """Render the per-point delta table (the ``repro warmval`` output)."""
    from repro.analysis.tables import format_table
    rows = []
    for p in report.points:
        m = p.metrics
        rows.append([
            p.workload, p.policy,
            m["ipc"]["detailed"], m["ipc"]["fast"],
            f"{m['ipc']['rel_delta']:.2%}",
            f"{m['mpki']['abs_delta']:.2f}",
            f"{m['branch_mpki']['abs_delta']:.2f}",
            f"{m['avf']['abs_delta']:.4f}",
            "ok" if p.ok else "FAIL",
        ])
    return format_table(
        ["workload", "policy", "IPC(det)", "IPC(fast)", "dIPC",
         "dMPKI", "dBrMPKI", "dAVF", "status"], rows)
