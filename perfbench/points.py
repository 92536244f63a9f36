"""The benchmark's workloads: what each one simulates, at what size, and why.

Each workload is one timed call into the simulator's public API. The
benchmark seed picks one of the trace realisations in ``SEED_OFFSETS``
(the catalog seed plus an offset), so the same seed always gives the
same trace, and every realisation has frozen fingerprints in
``fingerprints.json``.

This module imports nothing from ``repro`` at import time: ``run.py``
reads the workload table before it has checked that the simulator's
sources are present.
"""

import dataclasses
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")

#: Catalog-seed offsets the benchmark seed chooses from. Offsets 1 and 5
#: are left out: with fast shared warmup, libquantum at offset 1 and lbm
#: at offset 5 deadlock the simulator, so those points would always fail.
SEED_OFFSETS = (0, 2, 3, 4, 6, 7, 8, 9)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    workloads: Tuple[str, ...]
    policies: Tuple[str, ...]
    instructions: int
    warmup: int
    #: True: ``run_matrix`` on the farm with fast shared warmup;
    #: False: one ``simulate()`` call per point with detailed warmup.
    sweep: bool = False

    @property
    def points(self) -> List[str]:
        return [f"{w}/{p}" for w in self.workloads for p in self.policies]

    @property
    def requested_instructions(self) -> int:
        """Committed instructions the call asks for, warmup included."""
        return len(self.points) * (self.warmup + self.instructions)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "mcf-rar",
        "paper's flagship point: dependent LLC misses and frequent "
        "mispredicts load the front end, back end and memory hierarchy",
        ("mcf",), ("RAR",), instructions=10_000, warmup=10_000),
    Workload(
        "namd-ooo",
        "compute-bound control: commit, ACE accounting and trace "
        "generation dominate while runahead and DRAM stay idle",
        ("namd",), ("OOO",), instructions=20_000, warmup=20_000),
    Workload(
        "sweep-stream",
        "repro sweep path on streaming misses: runahead, fast warmup, "
        "checkpoint forks and the farm all run",
        ("lbm", "libquantum"), ("OOO", "FLUSH", "PRE", "RAR"),
        instructions=10_000, warmup=10_000, sweep=True),
)}


def seed_offset(seed: int) -> int:
    """The catalog-seed offset benchmark seed ``seed`` runs."""
    return SEED_OFFSETS[seed % len(SEED_OFFSETS)]


def load_fingerprints() -> Dict[str, Any]:
    with open(FINGERPRINTS) as f:
        return json.load(f)


def frozen_fingerprints(wl: Workload, seed: int) -> Dict[str, str]:
    """The frozen fingerprint of every point of ``wl`` at ``seed``.

    Raises ``ValueError`` when the file was frozen for other sizes, so a
    size change without a re-freeze fails loudly instead of mismatching.
    """
    entry = load_fingerprints()[wl.name]
    if (entry["instructions"], entry["warmup"]) != (wl.instructions,
                                                   wl.warmup):
        raise ValueError(
            f"{FINGERPRINTS}: {wl.name} frozen at n={entry['instructions']} "
            f"w={entry['warmup']}, workload runs n={wl.instructions} "
            f"w={wl.warmup}; run perfbench/freeze.py")
    return entry["seeds"][str(seed_offset(seed))]


def prepare(wl: Workload, seed: int, jobs: int, ledger_dir: str
            ) -> Callable[[], Dict[str, Any]]:
    """Resolve workloads, machine and policies; return the timed call.

    Everything before the returned callable counts as set-up. The call
    returns ``{"results": {point: SimResult}, "failures": [...],
    "ledger": path or None}``. Every call starts cold: a fresh
    ``ExperimentRunner`` with no disk cache, an empty process checkpoint
    cache (forked farm workers inherit it) and a new ledger file.
    """
    from repro import BASELINE, simulate
    from repro.analysis.experiments import ExperimentRunner
    from repro.checkpoint import process_checkpoint_cache
    from repro.core.runahead import get_policy
    from repro.workloads.catalog import get_workload

    k = seed_offset(seed)
    specs = []
    for name in wl.workloads:
        spec = get_workload(name)
        specs.append(dataclasses.replace(spec, seed=spec.seed + k))
    policies = [get_policy(p) for p in wl.policies]

    if wl.sweep:
        def call() -> Dict[str, Any]:
            process_checkpoint_cache().clear()
            ledger = os.path.join(ledger_dir, f"ledger-{time.time_ns()}.jsonl")
            runner = ExperimentRunner(instructions=wl.instructions,
                                      warmup=wl.warmup)
            matrix = runner.run_matrix(
                specs, BASELINE, policies, jobs=jobs, share_warmup=True,
                warmup_mode="fast", ledger=ledger)
            results = {f"{w}/{p}": r for p, by_wl in matrix.items()
                       for w, r in by_wl.items()}
            return {"results": results, "failures": list(matrix.failures),
                    "ledger": ledger}
        return call

    def call() -> Dict[str, Any]:
        process_checkpoint_cache().clear()
        results: Dict[str, Any] = {}
        failures: List[Dict[str, Any]] = []
        for spec in specs:
            for pol in policies:
                point = f"{spec.name}/{pol.name}"
                try:
                    results[point] = simulate(
                        spec, BASELINE, pol, instructions=wl.instructions,
                        warmup=wl.warmup)
                except Exception as e:  # counted in failed_share
                    failures.append({"point": point, "error": repr(e)})
        return {"results": results, "failures": failures, "ledger": None}
    return call


def check_points(wl: Workload, seed: int, results: Dict[str, Any],
                 failures: List[Dict[str, Any]]
                 ) -> Tuple[Dict[str, str], List[str]]:
    """Fingerprint every result and compare with the frozen ones.

    Returns ``(fingerprints, problems)``: one problem line per point that
    raised, is missing, or has a mismatched fingerprint.
    """
    from repro.validate.golden import canonical_fingerprint

    frozen = frozen_fingerprints(wl, seed)
    got = {point: canonical_fingerprint(r.to_dict())
           for point, r in results.items()}
    problems = []
    failed = {f.get("point") or f"{f['workload']}/{f['policy']}": f
              for f in failures}
    for point in wl.points:
        if point in failed:
            problems.append(f"{point}: raised {failed[point]['error']}")
        elif point not in got:
            problems.append(f"{point}: missing from the results")
        elif got[point] != frozen[point]:
            problems.append(f"{point}: fingerprint {got[point][:16]} != "
                            f"frozen {frozen[point][:16]}")
    return got, problems


def ledger_summary(path: Optional[str], groups: int) -> Dict[str, Any]:
    """Farm and warmup figures from a sweep ledger, plus its self-check:
    one ``warmup_shared`` per workload group and no ``point_cached``."""
    if path is None:
        return {"warmup_s": 0.0, "point_done_s": 0.0, "requeued": 0,
                "problems": []}
    from repro.obs.ledger import read_ledger

    events = read_ledger(path)
    by_kind: Dict[str, List[Dict[str, Any]]] = {}
    for e in events:
        by_kind.setdefault(e["ev"], []).append(e)
    problems = []
    warmups = by_kind.get("warmup_shared", [])
    if len(warmups) != groups:
        problems.append(f"ledger: {len(warmups)} warmup_shared events, "
                        f"expected one per group ({groups})")
    cached = by_kind.get("point_cached", [])
    if cached:
        problems.append(f"ledger: {len(cached)} point_cached events on a "
                        "cold runner")
    return {
        "warmup_s": sum(e["wall_s"] for e in warmups),
        "point_done_s": sum(e["wall_s"] for e in by_kind.get("point_done",
                                                             [])),
        "requeued": len(by_kind.get("point_requeued", [])),
        "problems": problems,
    }
