"""Golden conformance fingerprints for the 45-point conformance grid.

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

Every point is measured by the sweep runner, from both of the cores a
sweep point can come from. The *cold leg* of each grid row (one
machine, or one scenario) is one
``ExperimentRunner.run_matrix(..., oracle=True)`` sweep over the five
policies, so golden runs the very point sequence every ``repro sweep``
runs — a cold core warmed under the measured policy with the commit
oracle checking every retirement, then measured. The commit digest
covers the measured window. ``--jobs 1`` measures serially and
``--jobs N`` on the crash-tolerant farm, one task per point; each point
runs identical code in whichever process, so the fingerprints cannot
depend on scheduling. The cold leg is what the frozen files hold.

The *fork leg* measures every point again the way
``sweep --share-warmup`` does: a checkpoint warmed under the measured
policy, forked and measured
(``run_matrix(share_warmup=True, warmup_policy=P)``). The checkpoint
layer promises that such a fork is bit-identical to the cold run, so a
fork that disagrees with its cold leg is reported as a problem of its
own, and ``--regen`` refuses to freeze anything while one does.

Alongside the 25-point baseline matrix, a 20-point *scenario* grid
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
from typing import Any, Dict, List, Optional, Tuple

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


#: row -> policy -> frozen-file entry.
Grid = Dict[str, Dict[str, Dict[str, Any]]]


def _measure_grid(rows: Dict[str, Tuple[Any, MachineParams, int, int]],
                  jobs: int, ledger: Optional[str],
                  ) -> Tuple[Grid, List[str]]:
    """Measure every (row, policy) point cold and as a fork.

    ``rows`` maps each row (a machine or a scenario name) to its
    (workload, machine, instructions, warmup). A row's cold leg is one
    ``run_matrix`` sweep of :data:`GOLDEN_POLICIES` with the commit
    oracle on, on the farm when ``jobs > 1``. Its fork leg is one
    ``run_matrix(share_warmup=True, warmup_policy=P)`` per policy P, each
    on a fresh runner: a same-policy shared point has the cold point's
    cache key, so a shared runner would serve it from the cold leg's
    slot instead of forking. With ``ledger`` every sweep is recorded in
    the run ledger, auditable like any sweep.

    Returns the cold leg's row -> policy -> entry, and one line per
    point whose fork is not bit-identical to its cold run.
    """
    from repro.analysis.experiments import ExperimentRunner

    out: Grid = {}
    forks: List[str] = []
    for row, (workload, machine, instructions, warmup) in rows.items():
        cold = ExperimentRunner(instructions, warmup).run_matrix(
            [workload], machine, GOLDEN_POLICIES, jobs=jobs, oracle=True,
            ledger=ledger).raise_if_failed()
        out[row] = {}
        for policy in GOLDEN_POLICIES:
            (result,) = cold[policy].values()
            digest = cold.commit_digests[(policy, result.workload)]
            out[row][policy] = {
                "fingerprint": canonical_fingerprint(
                    {"result": result.to_dict(), "commit_digest": digest}),
                "commit_digest": digest,
                # Informational context so a fingerprint diff is
                # reviewable without rerunning — never hashed above.
                "ipc": result.ipc,
                "cycles": result.cycles,
                "abc_total": result.abc_total,
            }
            fork = ExperimentRunner(instructions, warmup).run_matrix(
                [workload], machine, [policy], share_warmup=True,
                warmup_policy=policy, oracle=True,
                ledger=ledger).raise_if_failed()
            (forked,) = fork[policy].values()
            fork_digest = fork.commit_digests[(policy, forked.workload)]
            a, b = result.to_dict(), forked.to_dict()
            fields = [k for k in a if a[k] != b[k]]
            if fields or fork_digest != digest:
                forks.append(
                    f"{row}/{policy}: fork diverges from the cold run in "
                    f"{', '.join(fields) or 'no result field'}; commit "
                    f"digest "
                    + ("differs" if fork_digest != digest else "unchanged"))
    return out, forks


def _measure_all(jobs: int, instructions: int, warmup: int,
                 ledger: Optional[str] = None) -> Tuple[Grid, List[str]]:
    """Measure the baseline grid; returns machine -> policy -> entry and
    the fork lines."""
    return _measure_grid(
        {name: (GOLDEN_WORKLOAD, machine, instructions, warmup)
         for name, machine in GOLDEN_MACHINES.items()}, jobs, ledger)


def _machine_path(directory: str, machine_name: str) -> str:
    return os.path.join(directory, f"{machine_name}.json")


def _agreed(measured: Tuple[Grid, List[str]]) -> Grid:
    """The cold leg's grid, or ``RuntimeError`` listing the fork lines:
    nothing is frozen while the two cores disagree."""
    grid, forks = measured
    if forks:
        raise RuntimeError(
            f"{len(forks)} point(s) fork differently from their cold run; "
            f"nothing frozen:\n  " + "\n  ".join(forks))
    return grid


def regen_golden(directory: str = GOLDEN_DIR, jobs: int = 1,
                 instructions: int = GOLDEN_INSTRUCTIONS,
                 warmup: int = GOLDEN_WARMUP,
                 ledger: Optional[str] = None) -> List[str]:
    """(Re)freeze the fingerprints; returns the files written.

    Raises ``RuntimeError``, writing nothing, when a fork diverges."""
    from repro.common.io import atomic_write_json

    grid = _agreed(_measure_all(jobs, instructions, warmup, ledger=ledger))
    os.makedirs(directory, exist_ok=True)
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
    """Re-measure the grid, cold and as forks, and diff the cold leg
    against the frozen files.

    Returns a list of human-readable mismatch lines — one per fork that
    diverges from its cold run, one per drifted fingerprint; empty
    means fully conformant. Run sizes are taken from the frozen files
    themselves so a check is self-consistent; a file frozen at
    different sizes than the module defaults still checks against what
    it recorded.
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

    return problems + _drift(
        frozen, _measure_all(jobs, instructions, warmup, ledger=ledger))


def _drift(frozen: Grid, measured: Tuple[Grid, List[str]]) -> List[str]:
    """The fork lines of the re-measured grid, then one line per frozen
    (row, policy) entry whose fingerprint its cold leg does not
    reproduce."""
    grid, forks = measured
    problems = list(forks)
    for row, points in frozen.items():
        for policy in GOLDEN_POLICIES:
            want = points[policy]
            got = grid[row][policy]
            if got["fingerprint"] != want["fingerprint"]:
                detail = (f"commit digest also drifted "
                          f"({want['commit_digest'][:12]} -> "
                          f"{got['commit_digest'][:12]})"
                          if got["commit_digest"] != want["commit_digest"]
                          else "commit digest unchanged (timing-only drift)")
                problems.append(
                    f"{row}/{policy}: fingerprint "
                    f"{want['fingerprint'][:12]} -> "
                    f"{got['fingerprint'][:12]}; ipc {want['ipc']:.4f} -> "
                    f"{got['ipc']:.4f}, cycles {want['cycles']} -> "
                    f"{got['cycles']}; {detail}")
    return problems


# ------------------------------------------------------------- scenarios

def _measure_scenarios(jobs: int,
                       sizes: Dict[str, Tuple[int, int]],
                       ledger: Optional[str] = None,
                       ) -> Tuple[Grid, List[str]]:
    """Measure the scenario grid at ``sizes`` (scenario ->
    (instructions, warmup)); returns scenario -> policy -> entry and the
    fork lines."""
    return _measure_grid(
        {name: (scenario_workload(name), BASELINE, n, w)
         for name, (n, w) in sizes.items()}, jobs, ledger)


def _scenario_path(directory: str) -> str:
    return os.path.join(directory, _SCENARIO_FILE)


def regen_scenarios(directory: str = GOLDEN_DIR, jobs: int = 1,
                    ledger: Optional[str] = None) -> str:
    """(Re)freeze the scenario fingerprints; returns the file written.

    Raises ``RuntimeError``, writing nothing, when a fork diverges."""
    from repro.common.io import atomic_write_json

    grid = _agreed(_measure_scenarios(jobs, GOLDEN_SCENARIOS, ledger=ledger))
    os.makedirs(directory, exist_ok=True)
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
    frozen file, every point is measured cold and as a fork, the return
    value is a list of human-readable mismatch lines, empty means
    conformant.
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

    return problems + _drift(
        {name: frozen[name]["points"] for name in sizes},
        _measure_scenarios(jobs, sizes, ledger=ledger))
