"""Top-level simulation API.

The one-call entry point for users and for the benchmark harness::

    from repro import simulate, BASELINE, RAR, get_workload

    result = simulate(get_workload("mcf"), BASELINE, RAR, instructions=50_000)
    print(result.ipc, result.abc_total)
"""

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Optional, Tuple, Union

from repro.common.params import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP, \
    MachineParams
from repro.core.core import OutOfOrderCore
from repro.core.fastfwd import DEFAULT_WARMUP_MODE, detailed_tail, \
    functional_warmup, validate_warmup_mode
from repro.core.runahead import RunaheadPolicy, get_policy
from repro.isa.trace import Trace
from repro.reliability.metrics import mttf_relative, normalized_abc
from repro.workloads.base import WorkloadSpec
from repro.workloads.catalog import get_workload


@dataclass(frozen=True)
class SimResult:
    """Everything a study needs from one simulation run."""

    workload: str
    machine: str
    policy: str
    instructions: int
    cycles: int
    ipc: float
    mlp: float
    mpki: float
    abc: Dict[str, int] = field(default_factory=dict)
    abc_total: int = 0
    total_bits: int = 0
    #: Figure 5 attribution
    abc_head_blocked: int = 0
    abc_full_stall: int = 0
    runahead_triggers: int = 0
    runahead_cycles: int = 0
    runahead_prefetches: int = 0
    runahead_uops_examined: int = 0
    runahead_uops_executed: int = 0
    squashed_uops: int = 0
    flush_triggers: int = 0
    branch_mispredicts: int = 0
    demand_llc_misses: int = 0

    @property
    def avf(self) -> float:
        """ABC / (N × T); 0.0 for an empty exposure volume (no cycles or
        no unprotected bits) instead of raising ``ZeroDivisionError``."""
        denom = self.total_bits * self.cycles
        return self.abc_total / denom if denom else 0.0

    def mttf_rel(self, baseline: "SimResult") -> float:
        """This run's MTTF normalised to a baseline run (higher = better)."""
        return mttf_relative(baseline.abc_total, baseline.cycles,
                             self.abc_total, self.cycles)

    def abc_rel(self, baseline: "SimResult") -> float:
        """This run's ABC normalised to a baseline run (lower = better)."""
        return normalized_abc(baseline.abc_total, self.abc_total)

    def ipc_rel(self, baseline: "SimResult") -> float:
        return self.ipc / baseline.ipc if baseline.ipc else float("inf")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable payload; round-trips via :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SimResult":
        """Inverse of :meth:`to_dict`. Unknown keys and values of the
        wrong type raise ``TypeError`` naming the field, so stale or
        corrupt cache entries fail loudly rather than deserialise into a
        broken result."""
        if not isinstance(payload, dict):
            raise TypeError(f"result payload is {type(payload).__name__}, "
                            f"not an object")
        for f in fields(cls):
            if f.name in payload:
                what, ok = _FIELD_CHECKS[f.type]
                if not ok(payload[f.name]):
                    raise TypeError(f"field {f.name!r} must be {what}, "
                                    f"got {payload[f.name]!r}")
        return cls(**payload)


#: field annotation -> (description, JSON value check); ``bool`` is
#: rejected where an int is expected
_FIELD_CHECKS = {
    str: ("a string", lambda v: isinstance(v, str)),
    int: ("an int", lambda v: type(v) is int),
    float: ("a number", lambda v: type(v) in (int, float)),
    Dict[str, int]: ("a str -> int object", lambda v: isinstance(v, dict)
                     and all(isinstance(k, str) and type(n) is int
                             for k, n in v.items())),
}


def simulate(
    workload: Union[WorkloadSpec, Trace, str],
    machine: MachineParams,
    policy: Union[RunaheadPolicy, str],
    instructions: int = DEFAULT_INSTRUCTIONS,
    warmup: int = DEFAULT_WARMUP,
    seed: Optional[int] = None,
    telemetry=None,
    validate: bool = False,
    oracle: bool = False,
) -> SimResult:
    """Run one workload on one machine under one policy.

    Args:
        workload: a catalog name, a :class:`WorkloadSpec`, or a raw trace.
        machine: machine configuration (e.g. ``repro.BASELINE``).
        policy: a :class:`RunaheadPolicy` or its name (e.g. ``"RAR"``).
        instructions: committed instructions measured (after warmup).
        warmup: committed instructions simulated before counters reset —
            warms caches, predictor and the SST.
        seed: trace/wrong-path RNG seed override. ``seed=0`` is a real
            seed, distinct from ``None`` (the workload's default); equal
            seeds give bit-identical results.
        telemetry: optional :class:`repro.obs.Telemetry`; attached to the
            core, with the measurement window marked after warmup so its
            stats dump reconciles with the returned result.
        validate: run with the per-cycle invariant sanitizer enabled
            (:mod:`repro.validate`); any breach raises
            :class:`~repro.validate.invariants.InvariantViolation`.
            Results are bit-identical with or without.
        oracle: lockstep-check every retirement (warmup included)
            against the commit-stream architectural oracle
            (:mod:`repro.validate.oracle`); any retirement-semantics
            drift raises
            :class:`~repro.validate.oracle.OracleViolation`. Purely
            observational, bit-identical with or without. The oracle's
            commit digest covers the measured window only.

    Returns:
        a :class:`SimResult` with the measured window's statistics.
    """
    if instructions <= 0:  # fail before the warmup, not after it
        raise ValueError("instructions must be positive")
    core, name = warm_core(workload, machine, policy, warmup, seed,
                           telemetry=telemetry, validate=validate,
                           oracle=oracle)
    return measure(core, instructions, name)


def warm_core(
    workload: Union[WorkloadSpec, Trace, str],
    machine: MachineParams,
    policy: Union[RunaheadPolicy, str],
    warmup: int = DEFAULT_WARMUP,
    seed: Optional[int] = None,
    telemetry=None,
    validate: bool = False,
    oracle: bool = False,
    warmup_mode: str = DEFAULT_WARMUP_MODE,
) -> Tuple[OutOfOrderCore, str]:
    """The one warmup sequence: the front half of :func:`simulate`, of
    :func:`repro.checkpoint.warm_checkpoint` and of every unshared sweep
    point. Runs :func:`build_core`; under ``warmup_mode="fast"`` the
    functional walk (:func:`repro.core.fastfwd.functional_warmup`) over
    all but the detailed tail; the commit oracle when ``oracle`` is set
    (so it checks every detailed warmup retirement); then the detailed
    warmup instructions. Returns ``(core, workload name)`` for
    :func:`measure`."""
    validate_warmup_mode(warmup_mode)
    core, name = build_core(workload, machine, policy, seed,
                            telemetry=telemetry, validate=validate)
    detailed = warmup
    if warmup_mode == "fast":
        # Functional walk over the bulk, detailed core over the
        # recency-dominated tail (see repro.core.fastfwd).
        detailed = detailed_tail(warmup)
        functional_warmup(core, warmup - detailed)
    if oracle:
        # Lazy import, same pattern as the invariant checker wiring.
        from repro.validate.oracle import attach_oracle
        attach_oracle(core)
    if detailed > 0:
        core.run(detailed)
    return core, name


def build_core(
    workload: Union[WorkloadSpec, Trace, str],
    machine: MachineParams,
    policy: Union[RunaheadPolicy, str],
    seed: Optional[int] = None,
    **core_kwargs: Any,
) -> Tuple[OutOfOrderCore, str]:
    """Build the cold core of one point; returns ``(core, workload name)``.

    The first step of :func:`warm_core`: resolve the workload and
    the policy, build the trace under ``seed``, construct the core and
    preload the workload's resident regions. A bare :class:`Trace` is
    used as is, with nothing to preload. ``seed=None`` keeps the
    workload's own trace seed and gives the wrong-path source seed 0;
    ``seed=0`` is a real seed, not an alias of ``None``. ``core_kwargs``
    go to :class:`OutOfOrderCore`.
    """
    if isinstance(workload, str):
        workload = get_workload(workload)
    if isinstance(policy, str):
        policy = get_policy(policy)
    regions = ()
    # Duck-typed: WorkloadSpec, TraceWorkload and friends all quack
    # build_trace/resident_regions; a bare Trace is used directly.
    if hasattr(workload, "build_trace"):
        trace = workload.build_trace(seed=seed)
        regions = workload.resident_regions()
    else:
        trace = workload
    core = OutOfOrderCore(machine, trace, policy,
                          seed=0 if seed is None else seed, **core_kwargs)
    for level, base, size in regions:
        core.mem.preload(base, size, level)
    return core, workload.name


def measure(core: OutOfOrderCore, instructions: int,
            name: str) -> SimResult:
    """Measure the next ``instructions`` commits of ``core``.

    The measure sequence that ends every point, whether its core came
    from :func:`warm_core` or :meth:`repro.checkpoint.Checkpoint.fork`:
    open the attached telemetry's measurement window and restart the
    attached commit oracle's digest, run, take the result as the delta
    over the window, run the end-of-run checks of the invariant
    sanitizer and the commit oracle when they are attached, and close
    the telemetry window. ``name`` labels the result's workload. After it returns,
    ``core.oracle.digest()`` covers exactly the measured window, whether
    the oracle rode through the warmup or was attached to a fork.
    """
    if instructions <= 0:
        raise ValueError("instructions must be positive")
    telemetry = core.telemetry
    if telemetry is not None:
        telemetry.begin_measurement(core)
    if core.oracle is not None:
        core.oracle.open_window()
    start = _snapshot(core)
    core.run(instructions)
    result = _delta_result(core, start, name)
    if core.checker is not None:
        core.checker.final_check()
    if core.oracle is not None:
        core.oracle.final_check(expect_drained=core.engine.exhausted)
    if telemetry is not None:
        telemetry.end_measurement(core, result)
    return result


def _snapshot(core: OutOfOrderCore) -> Dict[str, int]:
    snap = core.stats.snapshot()
    snap["_cycle"] = core.cycle
    snap["_abc"] = dict(core.ace.bits)
    snap["_abc_hb"] = core.ace.bits_in_head_blocked
    snap["_abc_fs"] = core.ace.bits_in_full_stall
    return snap


def _delta_result(core: OutOfOrderCore, start: Dict[str, int],
                  name: str) -> SimResult:
    s = core.stats
    cycles = core.cycle - start["_cycle"]
    committed = s.committed - start["committed"]
    abc = {k: v - start["_abc"][k] for k, v in core.ace.bits.items()}
    mlp_cycles = s.mlp_cycles - start["mlp_cycles"]
    mlp_sum = s.mlp_sum - start["mlp_sum"]
    demand_misses = s.demand_llc_misses - start["demand_llc_misses"]
    return SimResult(
        workload=name,
        machine=core.machine.name,
        policy=core.policy.name,
        instructions=committed,
        cycles=cycles,
        ipc=committed / cycles if cycles else 0.0,
        mlp=mlp_sum / mlp_cycles if mlp_cycles else 0.0,
        mpki=1000.0 * demand_misses / committed if committed else 0.0,
        abc=abc,
        abc_total=sum(abc.values()),
        total_bits=core.machine.core.total_bits,
        abc_head_blocked=core.ace.bits_in_head_blocked - start["_abc_hb"],
        abc_full_stall=core.ace.bits_in_full_stall - start["_abc_fs"],
        runahead_triggers=s.runahead_triggers - start["runahead_triggers"],
        runahead_cycles=s.runahead_cycles - start["runahead_cycles"],
        runahead_prefetches=s.runahead_prefetches - start["runahead_prefetches"],
        runahead_uops_examined=(s.runahead_uops_examined
                                - start["runahead_uops_examined"]),
        runahead_uops_executed=(s.runahead_uops_executed
                                - start["runahead_uops_executed"]),
        squashed_uops=(
            s.squashed_mispredict + s.squashed_runahead_flush
            + s.squashed_flush_mechanism
            - start["squashed_mispredict"] - start["squashed_runahead_flush"]
            - start["squashed_flush_mechanism"]),
        flush_triggers=s.flush_triggers - start["flush_triggers"],
        branch_mispredicts=s.branch_mispredicted - start["branch_mispredicted"],
        demand_llc_misses=demand_misses,
    )
