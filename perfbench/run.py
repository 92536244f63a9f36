"""The simulator benchmark: host speed end to end, per-layer cost traced.

Run from the repository root::

    python3 perfbench/run.py --workload mcf-rar --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats one cold, untraced timed call of the workload (a
fresh interpreter each time, see ``child.py``) until ``--seconds`` have
passed, and reports medians of the end-to-end metrics. ``--trace 1``
makes one untraced call at ``jobs=nproc`` (farm figures), one untraced
call at ``jobs=1`` (the tracing-overhead base), then traced calls at
``jobs=1`` under alternating ``PYTHONHASHSEED`` values until
``--seconds`` have passed, and reports the per-layer metrics.

Host speed on a small shared machine moves between levels up to 1.6x
apart for tens of seconds at a time, so raw medians of two runs can
differ by a quarter. Each repetition is therefore bracketed by a fixed
pure-Python reference loop (``reference_s``), and ``kips`` and
``setup_s`` are scaled by the speed it measured to a nominal host that
runs the loop in ``REF_NOMINAL_S``. The raw, unscaled medians are
printed too.

Every simulated point is fingerprinted and compared with
``fingerprints.json``. The traced run also checks that every ``*.calls``
value repeats exactly across traced calls and hash seeds, and that traced
fingerprints equal untraced ones. Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

sys.path.insert(0, HERE)
import points  # noqa: E402
import spans  # noqa: E402

#: Fewest timed calls a run makes, however short ``--seconds`` is.
MIN_REPS = 3
#: A child that runs longer than this is killed and its points fail.
CHILD_TIMEOUT_S = 150

#: Reference-loop time (``reference_s``) of the nominal host that
#: ``kips`` and ``setup_s`` are scaled to.
REF_NOMINAL_S = 0.045

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "kips": "kinst/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> Dict[str, str]:
    """Per-layer metrics (``--trace 1``): name -> unit."""
    units = {}
    for layer in spans.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "fraction"
    units.update({name: "fraction" for name in spans.counter_ratios({})})
    units.update({
        "analysis.farm.overhead_s_per_point": "s",
        "analysis.farm.requeued": "count",
        "warmup_s": "s",
        "trace_overhead": "ratio",
        "unattributed_share": "fraction",
    })
    return units


def _reference_loop(n: int = 100_000) -> int:
    table = {}
    x = 0
    for i in range(n):
        k = i & 255
        table[k] = table.get(k, 0) + (i ^ x)
        x = (x * 31 + i) & 0xFFFF
    return x


def _reference_times(repeats: int) -> List[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - t0)
    return times


def reference_s(procs: int, repeats: int = 3) -> List[float]:
    """Host times of a fixed pure-Python loop that runs no simulator
    code: small-dict updates and integer arithmetic.

    The loop runs in ``procs`` processes at once. On the 2-CPU
    development host, loading every CPU made the loop follow the
    simulator's speed far more closely than one process did: the spread
    of scaled ``kips`` over ten runs fell from 0.06-0.09 to 0.03.
    """
    with multiprocessing.get_context("fork").Pool(procs) as pool:
        times = pool.map(_reference_times, [repeats] * procs)
        pool.close()
        pool.join()
    return [t for per_proc in times for t in per_proc]


def run_child(wl: points.Workload, seed: int, jobs: int, tmp: str,
              trace: int = 0, hash_seed: str = None) -> Dict[str, Any]:
    """One cold timed call in a fresh interpreter.

    Returns the child's record plus ``setup_s`` (spawn to the timed
    call). A child that fails or times out returns a record whose
    ``problems`` name every point.
    """
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    cmd = [sys.executable, CHILD, "--workload", wl.name, "--seed", str(seed),
           "--jobs", str(jobs), "--tmp", tmp, "--trace", str(trace)]
    spawned = time.monotonic()
    # A session of its own, so a timeout also kills the child's farm.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        error = (None if proc.returncode == 0 else
                 f"exit {proc.returncode}: {err.strip()[-400:]}")
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        error = f"timed out after {CHILD_TIMEOUT_S} s"
    if error is not None:
        return {"problems": [f"{p}: child {error}" for p in wl.points],
                "ledger_problems": [], "fingerprints": {}}
    record = json.loads(out.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - spawned
    return record


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Run:
    """Counts points attempted and failed, and collects problems."""

    def __init__(self, wl: points.Workload):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, record: Dict[str, Any]) -> bool:
        """Account one child's points; True if the child's record is
        usable for timing."""
        self.attempted += len(self.wl.points)
        failed = {line.split(":")[0] for line in record["problems"]}
        self.failed += len(failed)
        self.problems += record["problems"] + record["ledger_problems"]
        return "wall_s" in record


def untraced(wl: points.Workload, seed: int, seconds: float, tmp: str,
             nproc: int) -> Tuple[Run, Dict[str, Tuple[float, str]]]:
    run = Run(wl)
    deadline = time.monotonic() + seconds
    raw: Dict[str, List[float]] = {"kips": [], "setup_s": [],
                                   "peak_rss_mb": [], "warmup_s": []}
    speeds: List[float] = []
    while len(speeds) < MIN_REPS or time.monotonic() < deadline:
        # Repetition i runs seed + i, so every run rotates through the
        # same trace realisations and their different costs even out.
        ref = reference_s(nproc)
        r = run_child(wl, seed + run.attempted // len(wl.points), nproc, tmp)
        ref += reference_s(nproc)
        if not run.add(r):
            if run.attempted >= MIN_REPS * len(wl.points):
                break
            continue
        raw["kips"].append(wl.requested_instructions / 1000 / r["wall_s"])
        raw["setup_s"].append(r["setup_s"])
        raw["peak_rss_mb"].append(
            (r["rss_self_kb"] + r["rss_children_kb"]) / 1024)
        raw["warmup_s"].append(r["ledger"]["warmup_s"])
        speeds.append(REF_NOMINAL_S / statistics.median(ref))
    if not speeds:
        return run, {}
    # Each repetition's times, scaled to the nominal host by the speed
    # its own reference loop saw (> 1 on a faster host).
    scaled = {
        "kips": [k / v for k, v in zip(raw["kips"], speeds)],
        "setup_s": [t * v for t, v in zip(raw["setup_s"], speeds)],
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    for name, values in [("host_speed", speeds)] + list(raw.items()):
        q1, q2, q3 = quartiles(values)
        unit = END_TO_END.get(name, "s" if name != "host_speed" else "x")
        print(f"{name:<14} {q2:12.4f} {unit:<8} raw, median of "
              f"{len(values)}; quartiles {q1:.4f} .. {q3:.4f}")
    print(f"{'failed_share':<14} {run.failed / run.attempted:12.4f} "
          f"{'fraction':<8} {run.failed} of {run.attempted} points")
    metrics = {name: statistics.median(v) for name, v in scaled.items()}
    for name, value in metrics.items():
        print(f"{name:<14} {value:12.4f} {END_TO_END[name]:<8} reported"
              f"{' at nominal host speed' if name != 'peak_rss_mb' else ''}")
    return run, {name: (v, END_TO_END[name]) for name, v in metrics.items()}


def farm_overhead(wl: points.Workload, record: Dict[str, Any],
                  jobs: int) -> float:
    """(jobs x wall - sum point_done - sum warmup_shared) / points; 0
    for workloads that do not use the farm."""
    if not wl.sweep:
        return 0.0
    led = record["ledger"]
    busy = led["point_done_s"] + led["warmup_s"]
    return (jobs * record["wall_s"] - busy) / len(wl.points)


def traced(wl: points.Workload, seed: int, seconds: float, tmp: str,
           nproc: int) -> Tuple[Run, Dict[str, Tuple[float, str]]]:
    run = Run(wl)
    deadline = time.monotonic() + seconds
    farm = run_child(wl, seed, nproc, tmp)
    base = run_child(wl, seed, 1, tmp) if wl.sweep and nproc > 1 else farm
    untraced_ok = run.add(farm) and (base is farm or run.add(base))
    records = []
    while len(records) < 2 or time.monotonic() < deadline:
        r = run_child(wl, seed, 1, tmp, trace=1,
                      hash_seed=str(len(records) % 2))
        if not run.add(r):
            break
        records.append(r)
    if not untraced_ok or len(records) < 2:
        return run, {}

    calls = records[0]["trace"]["calls"]
    for i, r in enumerate(records[1:], 1):
        if r["trace"]["calls"] != calls:
            diff = sorted(k for k in calls if r["trace"]["calls"][k]
                          != calls[k])
            run.problems.append(f"traced call {i}: *.calls differ from "
                                f"traced call 0 on {diff}")
    for r in records:
        if r["fingerprints"] != farm["fingerprints"]:
            run.problems.append("traced fingerprints differ from untraced")
            break

    units = per_layer_units()
    walls = [r["wall_s"] for r in records]
    values: Dict[str, float] = {}
    for layer in spans.LAYERS:
        values[f"{layer}.calls"] = calls[layer]
        values[f"{layer}.self_s"] = statistics.median(
            r["trace"]["self_s"][layer] for r in records)
        values[f"{layer}.share"] = statistics.median(
            r["trace"]["self_s"][layer] / r["wall_s"] for r in records)
    values.update(spans.counter_ratios(records[0]["trace"]["counters"]))
    values["analysis.farm.overhead_s_per_point"] = farm_overhead(
        wl, farm, nproc)
    values["analysis.farm.requeued"] = farm["ledger"]["requeued"]
    values["warmup_s"] = farm["ledger"]["warmup_s"]
    values["trace_overhead"] = statistics.median(walls) / base["wall_s"]
    values["unattributed_share"] = statistics.median(
        1 - r["trace"]["attributed_s"] / r["wall_s"] for r in records)

    print(f"traced calls: {len(records)}; untraced wall "
          f"{base['wall_s']:.4f} s (jobs=1), {farm['wall_s']:.4f} s "
          f"(jobs={nproc})")
    for layer, (_, moves) in spans.LAYERS.items():
        print(f"{layer:<14} calls {calls[layer]:>10}  self "
              f"{values[layer + '.self_s']:9.4f} s  share "
              f"{values[layer + '.share']:.4f}  moves {moves}")
    for layer, moves in spans.LEDGER_LAYERS.items():
        print(f"{layer:<14} from the jobs={nproc} ledger; moves {moves}")
    for name in units:
        if not name.startswith(tuple(spans.LAYERS)) or name.endswith("ratio"):
            print(f"{name:<36} {values[name]:12.4f} {units[name]}")
    return run, {name: (values[name], units[name]) for name in units}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(
        points.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in (os.path.join(ROOT, "src", "repro", "__init__.py"),
                           points.FINGERPRINTS) if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    wl = points.WORKLOADS[args.workload]
    nproc = os.cpu_count() or 1
    print(f"perfbench: workload {wl.name} ({wl.why}); seed {args.seed} "
          f"-> catalog-seed offset {points.seed_offset(args.seed)}; "
          f"trace {args.trace}; nproc {nproc}; python "
          f"{platform.python_version()}; {len(wl.points)} points x "
          f"(n={wl.instructions} + w={wl.warmup})")
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        measure = traced if args.trace else untraced
        run, metrics = measure(wl, args.seed, args.seconds, tmp, nproc)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
    for line in run.problems:
        print(f"problem: {line}")
    print(json.dumps({
        "correct": not run.problems and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
