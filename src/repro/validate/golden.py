"""Golden conformance fingerprints for the 25-point baseline matrix.

The performance contract (docs/performance.md) already freezes the
25-point baseline — mcf on the five machine generations under the five
paper policies — as the bit-identity gate for optimisation work. This
module freezes its *results*: every point gets a canonical fingerprint
(a stable SHA-256 over the full :meth:`SimResult.to_dict` payload plus
the commit oracle's architectural digest), and the fingerprints live in
version control under ``tests/golden/``. Any change to simulator
semantics — intended or not — shows up as a fingerprint diff, reviewed
like any other code change (the SimPoint/gem5 "golden outputs"
workflow).

Every point is measured the same way regardless of parallelism: warm a
checkpoint under the measured policy, fork it with the commit oracle
attached, and measure the fork. Forking a checkpoint warmed under the
same policy is bit-identical to a cold run (the checkpoint contract),
so ``--jobs 1`` and ``--jobs 4`` take the identical code path per point
and the fingerprints cannot depend on scheduling.

Alongside the baseline matrix, a *scenario* grid
(``tests/golden/scenarios.json``) freezes the trace-ingestion and
phased-workload paths: two bundled raw traces (ChampSim and gem5 text
fixtures under ``tests/isa/fixtures/``, re-imported at measure time so
the importer pipeline is inside the fingerprint) and two
phase-structured catalog workloads, each under the five policies on the
baseline machine. The fixture points deliberately run past
end-of-stream, freezing the finite-trace drain path too.

Command line::

    python -m repro golden --check           # verify against tests/golden
    python -m repro golden --regen           # refreeze after a reviewed change
"""

import hashlib
import json
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.params import BASELINE, CORE1, CORE2, CORE3, CORE4, \
    MachineParams

__all__ = [
    "GOLDEN_DIR",
    "GOLDEN_INSTRUCTIONS",
    "GOLDEN_MACHINES",
    "GOLDEN_POLICIES",
    "GOLDEN_SCENARIOS",
    "GOLDEN_SCHEMA",
    "GOLDEN_WARMUP",
    "GOLDEN_WORKLOAD",
    "canonical_fingerprint",
    "check_golden",
    "check_scenarios",
    "golden_points",
    "measure_point",
    "measure_scenario",
    "regen_golden",
    "regen_scenarios",
    "scenario_points",
    "scenario_workload",
]

#: Bump when the file layout changes; a mismatched schema is reported as
#: a check failure (regen required), never silently reinterpreted.
GOLDEN_SCHEMA = 1

#: The frozen matrix: one workload x five machines x five policies,
#: mirroring the performance baseline in docs/performance.md.
GOLDEN_WORKLOAD = "mcf"
GOLDEN_MACHINES: Dict[str, MachineParams] = {
    "baseline": BASELINE,
    "core-1": CORE1,
    "core-2": CORE2,
    "core-3": CORE3,
    "core-4": CORE4,
}
GOLDEN_POLICIES: Tuple[str, ...] = ("OOO", "FLUSH", "TR", "PRE", "RAR")
GOLDEN_INSTRUCTIONS = 3000
GOLDEN_WARMUP = 3000
GOLDEN_DIR = os.path.join("tests", "golden")

#: The scenario extension: trace-backed and phase-structured workloads
#: on the baseline machine, under the same five policies. Fixture
#: scenarios are sized so the measured region runs past end-of-stream —
#: the finite-trace drain path is itself under the fingerprint.
#: name -> (instructions, warmup).
GOLDEN_SCENARIOS: Dict[str, Tuple[int, int]] = {
    "fixture:champsim": (4000, 200),
    "fixture:gem5": (4000, 200),
    "ph-swap-chase-stream": (GOLDEN_INSTRUCTIONS, GOLDEN_WARMUP),
    "ph-burst-mpki": (GOLDEN_INSTRUCTIONS, GOLDEN_WARMUP),
}

#: Raw importer inputs for the ``fixture:<fmt>`` scenarios, anchored at
#: the repo root so the check runs from any cwd.
_REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", ".."))
FIXTURE_DIR = os.path.join(_REPO_ROOT, "tests", "isa", "fixtures")
_FIXTURE_FILES = {"champsim": "champsim_small.txt",
                  "gem5": "gem5_small.txt"}
_SCENARIO_FILE = "scenarios.json"


def golden_points() -> List[Tuple[str, str]]:
    """The frozen (machine, policy) grid, in file order."""
    return [(m, p) for m in GOLDEN_MACHINES for p in GOLDEN_POLICIES]


def scenario_points() -> List[Tuple[str, str]]:
    """The frozen (scenario, policy) grid, in file order."""
    return [(s, p) for s in GOLDEN_SCENARIOS for p in GOLDEN_POLICIES]


def scenario_workload(name: str):
    """Resolve a scenario name to a workload object.

    ``fixture:<fmt>`` re-imports the bundled raw trace at measure time —
    the importer pipeline is inside the fingerprint, so a semantic
    change to an importer shows up as golden drift, not just a unit-test
    failure. Everything else resolves through the catalog.
    """
    if name.startswith("fixture:"):
        from repro.isa.importers import get_importer
        from repro.workloads.tracewl import MaterializedTraceWorkload
        fmt = name.split(":", 1)[1]
        path = os.path.join(FIXTURE_DIR, _FIXTURE_FILES[fmt])
        with open(path) as f:
            uops = get_importer(fmt)(iter(f), path)
        return MaterializedTraceWorkload(
            uops, name=name,
            description=f"golden fixture: {fmt} import of {path}")
    from repro.workloads.catalog import get_workload
    return get_workload(name)


def canonical_fingerprint(payload: Any) -> str:
    """Stable hash of a JSON-serialisable payload.

    Canonical form is JSON with sorted keys and no whitespace, so the
    fingerprint is independent of dict insertion order, file formatting
    and Python version — it changes exactly when a value changes.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _measure(workload, label: str, machine: MachineParams,
             machine_label: str, policy: str, instructions: int,
             warmup: int, ledger=None) -> Dict[str, Any]:
    """Measure one point (workload object or catalog name) and return
    its frozen entry.

    Always runs via warm-checkpoint + oracle'd fork (see module
    docstring), so the entry is the same whichever process measures it.
    ``ledger`` (a path or :class:`~repro.obs.ledger.RunLedger`) records
    the measurement's point events; the fingerprint is bit-identical
    with or without it.
    """
    import time

    from repro.checkpoint import warm_checkpoint
    from repro.sim import measure

    if isinstance(ledger, str):
        from repro.obs.ledger import RunLedger
        ledger = RunLedger(ledger)
    if ledger is not None:
        ledger.point_start(workload=label, machine=machine_label,
                           policy=policy)
    t0 = time.perf_counter()
    cp = warm_checkpoint(workload, machine, policy, warmup=warmup)
    core = cp.fork(oracle=True)
    result = measure(core, instructions, cp.workload)
    wall_s = time.perf_counter() - t0
    digest = core.oracle.digest()
    fingerprint = canonical_fingerprint(
        {"result": result.to_dict(), "commit_digest": digest})
    if ledger is not None:
        from repro.obs.manifest import point_manifest
        kips = (result.instructions / wall_s / 1000.0) if wall_s else 0.0
        ledger.point_done(
            workload=label, machine=machine_label, policy=policy,
            wall_s=wall_s, kips=round(kips, 2), ipc=round(result.ipc, 4),
            fingerprint=fingerprint,
            manifest=point_manifest(label, machine, policy,
                                    instructions, warmup))
    return {
        "fingerprint": fingerprint,
        "commit_digest": digest,
        # Informational context so a fingerprint diff is reviewable
        # without rerunning — never part of the hash input above.
        "ipc": result.ipc,
        "cycles": result.cycles,
        "abc_total": result.abc_total,
    }


def measure_point(machine_name: str, policy: str,
                  instructions: int = GOLDEN_INSTRUCTIONS,
                  warmup: int = GOLDEN_WARMUP,
                  ledger=None) -> Dict[str, Any]:
    """Measure one baseline-matrix point (mcf on ``machine_name``)."""
    return _measure(GOLDEN_WORKLOAD, GOLDEN_WORKLOAD,
                    GOLDEN_MACHINES[machine_name], machine_name, policy,
                    instructions, warmup, ledger=ledger)


def measure_scenario(scenario: str, policy: str,
                     instructions: Optional[int] = None,
                     warmup: Optional[int] = None,
                     ledger=None) -> Dict[str, Any]:
    """Measure one scenario point (trace fixture / phased workload on
    the baseline machine)."""
    default_n, default_w = GOLDEN_SCENARIOS[scenario]
    return _measure(scenario_workload(scenario), scenario, BASELINE,
                    "baseline", policy,
                    default_n if instructions is None else instructions,
                    default_w if warmup is None else warmup,
                    ledger=ledger)


def _grid_task(task: Tuple[Callable[..., Dict[str, Any]], str, str, int,
                          int, Optional[str]],
               ) -> Tuple[str, str, Dict[str, Any]]:
    """Pool worker: one point per task for even load balance."""
    measure, row, policy, instructions, warmup, ledger_path = task
    return row, policy, measure(row, policy, instructions, warmup,
                                ledger=ledger_path)


def _measure_grid(measure: Callable[..., Dict[str, Any]],
                  sizes: Dict[str, Tuple[int, int]], jobs: int,
                  ledger: Optional[str], envelope: Dict[str, Any],
                  ) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """Measure every (row, policy) point; returns row -> policy -> entry.

    ``measure`` is :func:`measure_point` (rows are machines) or
    :func:`measure_scenario` (rows are scenarios); ``sizes`` maps each
    row to its (instructions, warmup). With ``ledger`` set, the grid
    measurement is wrapped in a ``sweep_start``/``sweep_done`` envelope
    (``envelope`` holds the grid's own ``sweep_start`` fields) and each
    point appends its events — so a conformance run is monitorable with
    ``repro top`` and auditable post mortem like any sweep.
    """
    import time

    from repro.analysis.experiments import _pool_context

    tasks = [(measure, row, p, n, w, ledger)
             for row, (n, w) in sizes.items() for p in GOLDEN_POLICIES]
    run_ledger = None
    if ledger:
        from repro.obs.ledger import RunLedger
        from repro.obs.manifest import host_manifest
        run_ledger = RunLedger(ledger)
        run_ledger.sweep_start(total_points=len(tasks),
                               manifest=host_manifest(), **envelope)
    t0 = time.perf_counter()
    if jobs > 1:
        with _pool_context().Pool(min(jobs, len(tasks))) as pool:
            measured = pool.map(_grid_task, tasks)
    else:
        measured = [_grid_task(t) for t in tasks]
    out: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for row, policy, entry in measured:
        out.setdefault(row, {})[policy] = entry
    if run_ledger is not None:
        run_ledger.sweep_done(elapsed_s=time.perf_counter() - t0,
                              points_run=len(tasks), points_cached=0)
    return out


def _measure_all(jobs: int, instructions: int, warmup: int,
                 ledger: Optional[str] = None,
                 ) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """Measure the baseline grid; returns machine -> policy -> entry."""
    return _measure_grid(
        measure_point, {m: (instructions, warmup) for m in GOLDEN_MACHINES},
        jobs, ledger, dict(workload=GOLDEN_WORKLOAD,
                           machines=list(GOLDEN_MACHINES),
                           policies=list(GOLDEN_POLICIES), jobs=jobs,
                           instructions=instructions, warmup=warmup))


def _machine_path(directory: str, machine_name: str) -> str:
    return os.path.join(directory, f"{machine_name}.json")


def regen_golden(directory: str = GOLDEN_DIR, jobs: int = 1,
                 instructions: int = GOLDEN_INSTRUCTIONS,
                 warmup: int = GOLDEN_WARMUP,
                 ledger: Optional[str] = None) -> List[str]:
    """(Re)freeze the fingerprints; returns the files written."""
    from repro.common.io import atomic_write_json

    os.makedirs(directory, exist_ok=True)
    grid = _measure_all(jobs, instructions, warmup, ledger=ledger)
    written: List[str] = []
    for machine_name in GOLDEN_MACHINES:
        payload = {
            "schema": GOLDEN_SCHEMA,
            "workload": GOLDEN_WORKLOAD,
            "machine": machine_name,
            "instructions": instructions,
            "warmup": warmup,
            "points": grid[machine_name],
        }
        path = _machine_path(directory, machine_name)
        atomic_write_json(path, payload, indent=2)
        written.append(path)
    return written


def check_golden(directory: str = GOLDEN_DIR,
                 jobs: int = 1, ledger: Optional[str] = None) -> List[str]:
    """Re-measure the grid and diff against the frozen files.

    Returns a list of human-readable mismatch lines — empty means fully
    conformant. Run sizes are taken from the frozen files themselves so
    a check is self-consistent; a file frozen at different sizes than
    the module defaults still checks against what it recorded.
    """
    problems: List[str] = []
    frozen: Dict[str, Dict[str, Any]] = {}
    instructions: Optional[int] = None
    warmup: Optional[int] = None
    for machine_name in GOLDEN_MACHINES:
        path = _machine_path(directory, machine_name)
        try:
            with open(path) as f:
                payload = json.load(f)
        except OSError:
            problems.append(f"{machine_name}: missing golden file {path} "
                            f"(run `repro golden --regen`)")
            continue
        except ValueError as e:
            problems.append(f"{machine_name}: unreadable golden file "
                            f"{path}: {e}")
            continue
        if payload.get("schema") != GOLDEN_SCHEMA:
            problems.append(
                f"{machine_name}: schema {payload.get('schema')} != "
                f"{GOLDEN_SCHEMA} (run `repro golden --regen`)")
            continue
        if payload.get("workload") != GOLDEN_WORKLOAD:
            problems.append(
                f"{machine_name}: workload {payload.get('workload')!r} != "
                f"{GOLDEN_WORKLOAD!r}")
            continue
        if instructions is None:
            instructions = payload["instructions"]
            warmup = payload["warmup"]
        elif (payload["instructions"] != instructions
              or payload["warmup"] != warmup):
            problems.append(
                f"{machine_name}: run sizes ({payload['instructions']}, "
                f"{payload['warmup']}) disagree with the other golden "
                f"files ({instructions}, {warmup})")
            continue
        missing = [p for p in GOLDEN_POLICIES
                   if p not in payload.get("points", {})]
        if missing:
            problems.append(f"{machine_name}: missing points {missing}")
            continue
        frozen[machine_name] = payload["points"]
    if not frozen:
        return problems

    grid = _measure_all(jobs, instructions, warmup, ledger=ledger)
    for machine_name, points in frozen.items():
        for policy in GOLDEN_POLICIES:
            want = points[policy]
            got = grid[machine_name][policy]
            if got["fingerprint"] != want["fingerprint"]:
                detail = (f"commit digest also drifted "
                          f"({want['commit_digest'][:12]} -> "
                          f"{got['commit_digest'][:12]})"
                          if got["commit_digest"] != want["commit_digest"]
                          else "commit digest unchanged (timing-only drift)")
                problems.append(
                    f"{machine_name}/{policy}: fingerprint "
                    f"{want['fingerprint'][:12]} -> "
                    f"{got['fingerprint'][:12]}; ipc {want['ipc']:.4f} -> "
                    f"{got['ipc']:.4f}, cycles {want['cycles']} -> "
                    f"{got['cycles']}; {detail}")
    return problems


# ------------------------------------------------------------- scenarios

def _measure_scenarios(jobs: int,
                       sizes: Dict[str, Tuple[int, int]],
                       ledger: Optional[str] = None,
                       ) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """Measure the scenario grid; returns scenario -> policy -> entry.

    ``sizes`` maps scenario -> (instructions, warmup) — the module
    defaults on regen, the frozen file's recorded sizes on check.
    """
    return _measure_grid(
        measure_scenario, sizes, jobs, ledger,
        dict(workload="golden-scenarios", machines=["baseline"],
             policies=list(GOLDEN_POLICIES), jobs=jobs))


def _scenario_path(directory: str) -> str:
    return os.path.join(directory, _SCENARIO_FILE)


def regen_scenarios(directory: str = GOLDEN_DIR, jobs: int = 1,
                    ledger: Optional[str] = None) -> str:
    """(Re)freeze the scenario fingerprints; returns the file written."""
    from repro.common.io import atomic_write_json

    os.makedirs(directory, exist_ok=True)
    grid = _measure_scenarios(jobs, GOLDEN_SCENARIOS, ledger=ledger)
    payload = {
        "schema": GOLDEN_SCHEMA,
        "machine": "baseline",
        "scenarios": {
            name: {"instructions": GOLDEN_SCENARIOS[name][0],
                   "warmup": GOLDEN_SCENARIOS[name][1],
                   "points": grid[name]}
            for name in GOLDEN_SCENARIOS
        },
    }
    path = _scenario_path(directory)
    atomic_write_json(path, payload, indent=2)
    return path


def check_scenarios(directory: str = GOLDEN_DIR, jobs: int = 1,
                    ledger: Optional[str] = None) -> List[str]:
    """Re-measure the scenario grid and diff against the frozen file.

    Same contract as :func:`check_golden`: run sizes come from the
    frozen file, the return value is a list of human-readable mismatch
    lines, empty means conformant.
    """
    path = _scenario_path(directory)
    try:
        with open(path) as f:
            payload = json.load(f)
    except OSError:
        return [f"scenarios: missing golden file {path} "
                f"(run `repro golden --regen`)"]
    except ValueError as e:
        return [f"scenarios: unreadable golden file {path}: {e}"]
    if payload.get("schema") != GOLDEN_SCHEMA:
        return [f"scenarios: schema {payload.get('schema')} != "
                f"{GOLDEN_SCHEMA} (run `repro golden --regen`)"]

    problems: List[str] = []
    frozen = payload.get("scenarios", {})
    sizes: Dict[str, Tuple[int, int]] = {}
    for name in GOLDEN_SCENARIOS:
        entry = frozen.get(name)
        if entry is None:
            problems.append(f"scenarios: missing scenario {name!r} "
                            f"(run `repro golden --regen`)")
            continue
        missing = [p for p in GOLDEN_POLICIES
                   if p not in entry.get("points", {})]
        if missing:
            problems.append(f"scenarios/{name}: missing points {missing}")
            continue
        sizes[name] = (entry["instructions"], entry["warmup"])
    if not sizes:
        return problems

    grid = _measure_scenarios(jobs, sizes, ledger=ledger)
    for name in sizes:
        for policy in GOLDEN_POLICIES:
            want = frozen[name]["points"][policy]
            got = grid[name][policy]
            if got["fingerprint"] != want["fingerprint"]:
                detail = (f"commit digest also drifted "
                          f"({want['commit_digest'][:12]} -> "
                          f"{got['commit_digest'][:12]})"
                          if got["commit_digest"] != want["commit_digest"]
                          else "commit digest unchanged (timing-only drift)")
                problems.append(
                    f"{name}/{policy}: fingerprint "
                    f"{want['fingerprint'][:12]} -> "
                    f"{got['fingerprint'][:12]}; ipc {want['ipc']:.4f} -> "
                    f"{got['ipc']:.4f}, cycles {want['cycles']} -> "
                    f"{got['cycles']}; {detail}")
    return problems
