"""Freeze the fingerprint of every benchmark point into fingerprints.json.

Run from the repository root after a change that is meant to alter
simulated results (or the workload sizes in ``points.py``)::

    python3 perfbench/freeze.py

Each point's fingerprint is ``canonical_fingerprint(result.to_dict())``
for every offset in ``points.SEED_OFFSETS``. Sweep workloads are measured at ``jobs=1``
and at ``jobs=nproc``; the two must agree, or nothing is written.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import points  # noqa: E402


def measure(wl: points.Workload, seed: int, jobs: int, tmp: str):
    from repro.validate.golden import canonical_fingerprint

    out = points.prepare(wl, seed, jobs, tmp)()
    missing = set(wl.points) - set(out["results"])
    if out["failures"] or missing:
        raise SystemExit(f"{wl.name} seed {seed}: failures {out['failures']}, "
                         f"missing {sorted(missing)}")
    return {p: canonical_fingerprint(r.to_dict())
            for p, r in sorted(out["results"].items())}


def main() -> int:
    nproc = os.cpu_count() or 1
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    frozen = {}
    try:
        for wl in points.WORKLOADS.values():
            seeds = {}
            for seed, k in enumerate(points.SEED_OFFSETS):
                fps = measure(wl, seed, 1, tmp)
                if wl.sweep and nproc > 1 and \
                        measure(wl, seed, nproc, tmp) != fps:
                    raise SystemExit(f"{wl.name} offset {k}: jobs=1 and "
                                     f"jobs={nproc} fingerprints differ")
                seeds[str(k)] = fps
                print(f"{wl.name} offset {k}: {len(fps)} points", flush=True)
            frozen[wl.name] = {"instructions": wl.instructions,
                               "warmup": wl.warmup, "seeds": seeds}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(points.FINGERPRINTS, "w") as f:
        json.dump(frozen, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
