"""Differential harness: one point, every execution path, bit-diffed.

The simulator exposes several ways to run the same (workload, machine,
policy, seed) point:

- ``facade`` — a cold :func:`repro.sim.simulate` (warmup + measure in
  one core).
- ``fork`` — :func:`repro.checkpoint.warm_checkpoint` then
  :func:`repro.checkpoint.simulate_from` under the same policy, which
  the checkpoint layer contracts to be bit-identical to the cold run.
- ``mp`` — the cold :func:`repro.sim.simulate` executed inside a
  one-process ``multiprocessing`` pool worker, with the result shipped
  back as a ``to_dict()`` payload. It checks that pickling the inputs
  and the result changes nothing; it is not the farm that
  ``ExperimentRunner.run_matrix(jobs=N)`` fans out on.

:func:`differential_check` runs the requested paths, diffs the full
:meth:`~repro.sim.SimResult.to_dict` payloads field by field, and — on
divergence — re-runs the divergent pair with an interval-sampler
timeline (rows align to the global cycle grid, so two bit-identical runs
produce identical rows; the sampler rides the same run loop as the
untimed run) and bisects to the *first* differing interval,
turning "the end states differ" into "they first disagree at cycle C in
field F". Exposed on the command line as ``repro diff``.
"""

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.common.params import (
    DEFAULT_INSTRUCTIONS,
    DEFAULT_WARMUP,
    MachineParams,
)

__all__ = ["DiffReport", "Divergence", "FieldDiff", "PATHS",
           "differential_check"]

#: Execution paths the harness knows how to drive.
PATHS = ("facade", "fork", "mp")


@dataclass(frozen=True)
class FieldDiff:
    """One result field that differs between two paths."""

    field: str
    ref: Any
    other: Any


@dataclass
class Divergence:
    """A pair of paths whose results are not bit-identical.

    ``first_interval`` (when bisection ran) pins the earliest
    stats-timeline row at which the two runs disagree:
    ``{"cycle": C, "fields": {name: [ref_value, other_value]}}``.
    """

    ref_path: str
    other_path: str
    fields: List[FieldDiff]
    first_interval: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ref_path": self.ref_path,
            "other_path": self.other_path,
            "fields": [asdict(f) for f in self.fields],
            "first_interval": self.first_interval,
        }


@dataclass
class DiffReport:
    """Outcome of one differential check over a set of paths."""

    workload: str
    machine: str
    policy: str
    instructions: int
    warmup: int
    seed: Optional[int]
    paths: Tuple[str, ...]
    results: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return not self.divergences

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "machine": self.machine,
            "policy": self.policy,
            "instructions": self.instructions,
            "warmup": self.warmup,
            "seed": self.seed,
            "paths": list(self.paths),
            "identical": self.identical,
            "results": self.results,
            "divergences": [d.to_dict() for d in self.divergences],
        }

    def summary(self) -> str:
        head = (f"{self.workload}/{self.machine}/{self.policy} "
                f"({self.instructions} insts, warmup {self.warmup}, "
                f"seed {self.seed}): paths {', '.join(self.paths)}")
        if self.identical:
            return head + " -> bit-identical"
        lines = [head + " -> DIVERGED"]
        for d in self.divergences:
            lines.append(f"  {d.ref_path} vs {d.other_path}: "
                         f"{len(d.fields)} differing field(s)")
            for f in d.fields[:8]:
                lines.append(f"    {f.field}: {f.ref!r} != {f.other!r}")
            if len(d.fields) > 8:
                lines.append(f"    ... and {len(d.fields) - 8} more")
            if d.first_interval is not None:
                fi = d.first_interval
                lines.append(
                    f"    first divergent interval at cycle "
                    f"{fi['cycle']}: "
                    + ", ".join(f"{k}={v[0]!r}|{v[1]!r}"
                                for k, v in sorted(fi["fields"].items())))
        return "\n".join(lines)


# ---------------------------------------------------------------- workers

def _run_point(task: Tuple) -> Dict[str, Any]:
    """Execute one path of one point; module-level so it pickles into
    pool workers (the ``mp`` path). ``interval > 0`` additionally
    captures the interval-sampler timeline for bisection."""
    (path, workload, machine, policy, instructions, warmup, seed,
     validate, interval) = task
    telemetry = None
    if interval:
        from repro.obs import Telemetry
        telemetry = Telemetry(interval=interval)
    if path == "fork":
        from repro.checkpoint import simulate_from, warm_checkpoint
        ckpt = warm_checkpoint(workload, machine, policy, warmup=warmup,
                               seed=seed, validate=validate)
        result = simulate_from(ckpt, policy, instructions=instructions,
                               telemetry=telemetry, validate=validate)
    else:
        from repro.sim import simulate
        result = simulate(workload, machine, policy,
                          instructions=instructions, warmup=warmup,
                          seed=seed, telemetry=telemetry, validate=validate)
    rows = telemetry.sampler.rows if telemetry is not None else None
    return {"result": result.to_dict(), "timeline": rows}


def _execute(path: str, workload, machine, policy: str, instructions: int,
             warmup: int, seed: Optional[int], validate: bool,
             interval: int = 0) -> Dict[str, Any]:
    inner = "facade" if path == "mp" else path
    task = (inner, workload, machine, policy, instructions, warmup, seed,
            validate, interval)
    if path == "mp":
        from repro.analysis.experiments import _pool_context
        with _pool_context().Pool(1) as pool:
            return pool.apply(_run_point, (task,))
    return _run_point(task)


# ------------------------------------------------------------------ diffs

def _flatten(payload: Dict[str, Any], prefix: str = ""
             ) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flatten(value, name + "."))
        else:
            out[name] = value
    return out


def _diff_payloads(ref: Dict[str, Any], other: Dict[str, Any]
                   ) -> List[FieldDiff]:
    """Exact field-by-field comparison of two flattened result payloads.

    Exact (not approximate) on purpose: the paths promise bit-identity,
    so even an ULP of float drift is a real divergence.
    """
    a, b = _flatten(ref), _flatten(other)
    diffs = []
    for name in sorted(set(a) | set(b)):
        va, vb = a.get(name, "<missing>"), b.get(name, "<missing>")
        if va != vb or type(va) is not type(vb):
            diffs.append(FieldDiff(field=name, ref=va, other=vb))
    return diffs


def _bisect_timeline(ref_rows: Optional[List[Dict[str, Any]]],
                     other_rows: Optional[List[Dict[str, Any]]]
                     ) -> Optional[Dict[str, Any]]:
    """First timeline row at which the two runs disagree.

    Rows from both runs sit on the same global cycle grid, so row *i*
    of one run describes the same interval as row *i* of the other; the
    first unequal pair localises the divergence in time.
    """
    if not ref_rows or not other_rows:
        return None
    for ra, rb in zip(ref_rows, other_rows):
        if ra != rb:
            keys = set(ra) | set(rb)
            return {
                "cycle": ra.get("cycle", rb.get("cycle")),
                "fields": {k: [ra.get(k), rb.get(k)] for k in sorted(keys)
                           if ra.get(k) != rb.get(k)},
            }
    if len(ref_rows) != len(other_rows):
        longer = ref_rows if len(ref_rows) > len(other_rows) else other_rows
        row = longer[min(len(ref_rows), len(other_rows))]
        return {"cycle": row.get("cycle"),
                "fields": {"<row-count>": [len(ref_rows), len(other_rows)]}}
    return None


# -------------------------------------------------------------------- api

def differential_check(
    workload: Union[str, object],
    machine: MachineParams,
    policy: Union[str, object],
    instructions: int = DEFAULT_INSTRUCTIONS,
    warmup: int = DEFAULT_WARMUP,
    seed: Optional[int] = None,
    paths: Sequence[str] = PATHS,
    bisect_interval: int = 500,
    validate: bool = False,
) -> DiffReport:
    """Run one point through every requested path and diff the results.

    Args:
        workload: catalog name or :class:`WorkloadSpec` (must be
            picklable when the ``mp`` path is requested — catalog names
            always are).
        machine: machine configuration.
        policy: policy name or :class:`RunaheadPolicy`.
        instructions / warmup / seed: the point's run coordinates,
            shared verbatim by every path.
        paths: subset of :data:`PATHS`, at least two; the first is the
            reference the others are diffed against.
        bisect_interval: stats-timeline period (cycles) used to localise
            a divergence; 0 skips bisection.
        validate: additionally run every path under the invariant
            sanitizer (:mod:`repro.validate.invariants`).

    Returns:
        a :class:`DiffReport`; ``report.identical`` is the verdict.
    """
    paths = tuple(paths)
    unknown = [p for p in paths if p not in PATHS]
    if unknown:
        raise ValueError(f"unknown path(s) {unknown}; choose from {PATHS}")
    if len(paths) < 2:
        raise ValueError("need at least two paths to diff")
    policy_name = policy if isinstance(policy, str) else policy.name
    workload_name = (workload if isinstance(workload, str)
                     else workload.name)

    results: Dict[str, Dict[str, Any]] = {}
    for p in paths:
        results[p] = _execute(p, workload, machine, policy_name,
                              instructions, warmup, seed, validate)["result"]

    ref = paths[0]
    divergences: List[Divergence] = []
    for other in paths[1:]:
        fields = _diff_payloads(results[ref], results[other])
        if not fields:
            continue
        div = Divergence(ref_path=ref, other_path=other, fields=fields)
        if bisect_interval > 0:
            # Re-run only the divergent pair, now with a timeline, and
            # pin the first interval at which the two runs disagree.
            ref_tl = _execute(ref, workload, machine, policy_name,
                              instructions, warmup, seed, validate,
                              interval=bisect_interval)["timeline"]
            other_tl = _execute(other, workload, machine, policy_name,
                                instructions, warmup, seed, validate,
                                interval=bisect_interval)["timeline"]
            div.first_interval = _bisect_timeline(ref_tl, other_tl)
        divergences.append(div)

    return DiffReport(workload=workload_name, machine=machine.name,
                      policy=policy_name, instructions=instructions,
                      warmup=warmup, seed=seed, paths=paths,
                      results=results, divergences=divergences)
