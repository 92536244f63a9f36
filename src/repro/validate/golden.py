"""Golden conformance fingerprints for the 45-point conformance grid.

The grid is one table, :data:`GOLDEN_ROWS`, crossed with the five paper
policies, :data:`GOLDEN_POLICIES`. Five rows are the performance
baseline of docs/performance.md — mcf on the five machine generations.
Four rows freeze the trace-ingestion and phased-workload paths on the
baseline machine: two bundled raw traces (ChampSim and gem5 text
fixtures under ``tests/isa/fixtures/``, re-imported at measure time so
the importer pipeline is inside the fingerprint) and two
phase-structured catalog workloads. The fixture rows deliberately run
past end-of-stream, freezing the finite-trace drain path too.

Every point gets a canonical fingerprint (a stable SHA-256 over the full
:meth:`SimResult.to_dict` payload plus the commit oracle's architectural
digest), frozen in one file, ``tests/golden/golden.json``, under version
control. Any change to simulator semantics — intended or not — shows up
as a fingerprint diff, reviewed like any other code change (the
SimPoint/gem5 "golden outputs" workflow). The table is the one source
of run sizes: a row frozen at other sizes is reported, not re-measured
at the sizes the file happens to hold.

Every point is measured by the sweep runner, from both of the cores a
sweep point can come from. The *cold leg* of each row is one
``ExperimentRunner.run_matrix(..., oracle=True)`` sweep over the five
policies, so golden runs the very point sequence every ``repro sweep``
runs — a cold core warmed under the measured policy with the commit
oracle checking every retirement, then measured. The commit digest
covers the measured window. ``--jobs 1`` measures serially and
``--jobs N`` on the crash-tolerant farm, one task per point; each point
runs identical code in whichever process, so the fingerprints cannot
depend on scheduling. The cold leg is what the frozen file holds.

The *fork leg* measures every point again the way
``sweep --share-warmup`` does: a checkpoint warmed under the measured
policy, forked and measured
(``run_matrix(share_warmup=True, warmup_policy=P)``). The checkpoint
layer promises that such a fork is bit-identical to the cold run, so a
fork that disagrees with its cold leg is reported as a problem of its
own, and ``--regen`` refuses to freeze anything while one does.

Command line::

    python -m repro golden --check           # verify against tests/golden
    python -m repro golden --regen           # refreeze after a reviewed change
"""

import hashlib
import json
import os
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.common.params import BASELINE, CORE1, CORE2, CORE3, CORE4, \
    MachineParams

__all__ = [
    "GOLDEN_DIR",
    "GOLDEN_FILE",
    "GOLDEN_POLICIES",
    "GOLDEN_ROWS",
    "GOLDEN_SCHEMA",
    "canonical_fingerprint",
    "check",
    "golden_workload",
    "regen",
]

#: Bump when the file layout changes; a mismatched schema is reported as
#: a check failure (regen required), never silently reinterpreted.
GOLDEN_SCHEMA = 2

#: The frozen grid: row -> (workload, machine, instructions, warmup),
#: each row measured under every policy of :data:`GOLDEN_POLICIES`.
GOLDEN_ROWS: Dict[str, Tuple[str, MachineParams, int, int]] = {
    "baseline": ("mcf", BASELINE, 3000, 3000),
    "core-1": ("mcf", CORE1, 3000, 3000),
    "core-2": ("mcf", CORE2, 3000, 3000),
    "core-3": ("mcf", CORE3, 3000, 3000),
    "core-4": ("mcf", CORE4, 3000, 3000),
    "fixture:champsim": ("fixture:champsim", BASELINE, 4000, 200),
    "fixture:gem5": ("fixture:gem5", BASELINE, 4000, 200),
    "ph-swap-chase-stream": ("ph-swap-chase-stream", BASELINE, 3000, 3000),
    "ph-burst-mpki": ("ph-burst-mpki", BASELINE, 3000, 3000),
}
GOLDEN_POLICIES: Tuple[str, ...] = ("OOO", "FLUSH", "TR", "PRE", "RAR")
GOLDEN_FILE = "golden.json"

#: The frozen file and the raw importer inputs for the ``fixture:<fmt>``
#: workloads are anchored at the repo root, so the check runs from any
#: cwd.
_REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", ".."))
GOLDEN_DIR = os.path.join(_REPO_ROOT, "tests", "golden")
FIXTURE_DIR = os.path.join(_REPO_ROOT, "tests", "isa", "fixtures")
_FIXTURE_FILES = {"champsim": "champsim_small.txt",
                  "gem5": "gem5_small.txt"}

#: The keys (and their types) of a frozen row and of a frozen point.
_ROW_FIELDS = {"workload": str, "machine": str, "instructions": int,
               "warmup": int, "points": dict}
_POINT_FIELDS = {"fingerprint": str, "commit_digest": str,
                 "ipc": (int, float), "cycles": int, "abc_total": int}


def golden_workload(name: str):
    """Resolve a row's workload name to a workload object.

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


#: row -> policy -> frozen point entry.
Grid = Dict[str, Dict[str, Dict[str, Any]]]


def _measure(rows: Iterable[str], jobs: int, ledger: Optional[str],
             ) -> Tuple[Grid, List[str]]:
    """Measure every (row, policy) point of ``rows`` cold and as a fork.

    A row's cold leg is one ``run_matrix`` sweep of
    :data:`GOLDEN_POLICIES` with the commit oracle on, on the farm when
    ``jobs > 1``. Its fork leg is one
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
    for row in rows:
        name, machine, instructions, warmup = GOLDEN_ROWS[row]
        workload = golden_workload(name)
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


def _row_header(row: str) -> Dict[str, Any]:
    """A row's frozen coordinates, as the table gives them."""
    workload, machine, instructions, warmup = GOLDEN_ROWS[row]
    return {"workload": workload, "machine": machine.name,
            "instructions": instructions, "warmup": warmup}


def regen(directory: str = GOLDEN_DIR, jobs: int = 1,
          ledger: Optional[str] = None) -> str:
    """(Re)freeze the whole grid; returns the file written.

    Raises ``RuntimeError``, writing nothing, when a fork diverges:
    nothing is frozen while the two cores disagree."""
    from repro.common.io import atomic_write_json

    grid, forks = _measure(GOLDEN_ROWS, jobs, ledger)
    if forks:
        raise RuntimeError(
            f"{len(forks)} point(s) fork differently from their cold run; "
            f"nothing frozen:\n  " + "\n  ".join(forks))
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, GOLDEN_FILE)
    atomic_write_json(path, {
        "schema": GOLDEN_SCHEMA,
        "rows": {row: {**_row_header(row), "points": grid[row]}
                 for row in GOLDEN_ROWS},
    }, indent=2)
    return path


def _expect(value: Any, fields: Dict[str, Any], what: str) -> None:
    """``ValueError`` unless ``value`` is an object holding every key of
    ``fields`` with a value of that key's type."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} is a {type(value).__name__}, not an "
                         f"object")
    for key, kind in fields.items():
        if key not in value:
            raise ValueError(f"{what} has no {key!r}")
        if not isinstance(value[key], kind):
            raise ValueError(f"{what}: {key!r} is of type "
                             f"{type(value[key]).__name__}")


def _read(path: str) -> Dict[str, Dict[str, Any]]:
    """The frozen rows of ``path``; ``ValueError`` saying what is wrong
    when the file does not hold exactly the table's rows and policies."""
    with open(path) as f:
        payload = json.load(f)
    _expect(payload, {"schema": int, "rows": dict}, "the top level")
    if payload["schema"] != GOLDEN_SCHEMA:
        raise ValueError(f"schema {payload['schema']} != {GOLDEN_SCHEMA}")
    rows = payload["rows"]
    missing = [row for row in GOLDEN_ROWS if row not in rows]
    extra = [row for row in rows if row not in GOLDEN_ROWS]
    if missing or extra:
        raise ValueError(f"rows missing {missing}, rows not in the table "
                         f"{extra}")
    for row, frozen in rows.items():
        _expect(frozen, _ROW_FIELDS, f"row {row!r}")
        if set(frozen["points"]) != set(GOLDEN_POLICIES):
            raise ValueError(f"row {row!r} holds policies "
                             f"{sorted(frozen['points'])}, not "
                             f"{list(GOLDEN_POLICIES)}")
        for policy, point in frozen["points"].items():
            _expect(point, _POINT_FIELDS, f"point {row}/{policy}")
    return rows


def check(directory: str = GOLDEN_DIR, jobs: int = 1,
          ledger: Optional[str] = None) -> List[str]:
    """Re-measure the grid, cold and as forks, and diff the cold leg
    against the frozen file.

    Returns a list of human-readable problem lines, empty when fully
    conformant. A missing or malformed file is one line naming it, and
    nothing is measured. Otherwise there is one line per row frozen at
    coordinates other than the table's (that row is not measured), one
    per fork that diverges from its cold run, and one per drifted
    fingerprint.
    """
    path = os.path.join(directory, GOLDEN_FILE)
    try:
        frozen = _read(path)
    except FileNotFoundError:
        return [f"{path}: missing golden file "
                f"(run `repro golden --regen`)"]
    except (OSError, ValueError) as e:
        return [f"{path}: malformed golden file: {e} "
                f"(run `repro golden --regen`)"]

    problems: List[str] = []
    rows: List[str] = []
    coords = "{workload} on {machine} at {instructions}/{warmup}"
    for row in GOLDEN_ROWS:
        want = _row_header(row)
        got = {key: frozen[row][key] for key in want}
        if got == want:
            rows.append(row)
        else:
            problems.append(
                f"{row}: frozen as {coords.format(**got)}, the table "
                f"says {coords.format(**want)} (run `repro golden --regen`)")
    grid, forks = _measure(rows, jobs, ledger)
    problems += forks
    for row in rows:
        for policy in GOLDEN_POLICIES:
            want = frozen[row]["points"][policy]
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
