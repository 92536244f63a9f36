"""One cold timed call of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so every repetition
pays interpreter start, imports and resolution again (the set-up it
reports) and starts from empty caches. The last line of standard output
is one JSON object:

- ``ready``: ``time.monotonic()`` at the end of set-up (the clock is
  system-wide, so the parent subtracts its spawn time);
- ``wall_s``: host wall time of the timed call;
- ``fingerprints``/``problems``: the correctness gate (``points.py``);
- ``ledger``: warmup and farm figures from the sweep ledger;
- ``rss_self_kb``/``rss_children_kb``: peak RSS of this process and of
  its largest farm worker;
- with ``--trace 1``: per-layer ``calls``/``self_s``/``counters`` and
  the time inside any span.

Usage: python3 perfbench/child.py --workload NAME --seed N --jobs J
       --tmp DIR [--trace 0|1]
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import points  # noqa: E402  (after the path setup above)


def _timed(call):
    t0 = time.perf_counter()
    out = call()
    return time.perf_counter() - t0, out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(
        points.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl = points.WORKLOADS[args.workload]

    call = points.prepare(wl, args.seed, args.jobs, args.tmp)
    ready = time.monotonic()
    tracer = None
    if args.trace:
        import spans
        with spans.Tracer() as tracer:
            wall_s, out = _timed(call)
    else:
        wall_s, out = _timed(call)

    fingerprints, problems = points.check_points(
        wl, args.seed, out["results"], out["failures"])
    ledger = points.ledger_summary(out["ledger"], len(wl.workloads))
    record = {
        "ready": ready,
        "wall_s": wall_s,
        "fingerprints": fingerprints,
        "problems": problems,
        "ledger_problems": ledger.pop("problems"),
        "ledger": ledger,
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_children_kb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        record["trace"] = {
            "calls": tracer.calls,
            "self_s": tracer.self_s,
            "counters": tracer.counters,
            "attributed_s": tracer.attributed_s,
        }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
