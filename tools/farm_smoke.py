"""CI farm-smoke harness: a sweep that survives injected crashes.

Drives the crash-tolerant farm (docs/farm.md) through its fault paths
with real processes and real SIGKILLs, then asserts the contract —
stdlib only, exit 0/1:

1. **Chaos sweep** — a small matrix with one worker SIGKILLed mid-run
   and one point forced to raise, both injected by wrapping
   ``repro.analysis.experiments.measure`` in this process before the
   farm forks its workers: every other point must complete, persist to
   its own cache entry, and the run ledger must audit clean
   (``check_complete``) with the worker death and requeue on record.
2. **Farm/serial identity** — the chaos sweep's surviving results must
   be bit-identical to a serial ``run_matrix`` of the same grid:
   scheduling cannot perturb a result.

Usage: ``PYTHONPATH=src python tools/farm_smoke.py [--jobs N]``
"""

import argparse
import os
import signal
import sys
import tempfile

WLS = ["mcf", "x264"]
POLS = ["OOO", "RAR"]
N, W = 2000, 2000
RAISE_POINT = ("x264", "RAR")

_failures = []


def check(cond, label):
    tag = "ok" if cond else "FAIL"
    print(f"  [{tag}] {label}")
    if not cond:
        _failures.append(label)


def chaos_sweep(tmp, jobs):
    from repro.analysis import experiments
    from repro.common.params import BASELINE
    from repro.obs.ledger import check_complete, read_ledger, summarize

    token = os.path.join(tmp, "crash.token")
    with open(token, "w"):
        pass
    parent, real = os.getpid(), experiments.measure

    def chaos_measure(core, instructions, name):
        # The first worker to measure a point consumes the token and
        # dies; RAISE_POINT raises inside its point's isolation.
        if os.getpid() != parent:
            try:
                os.unlink(token)
            except OSError:
                pass  # already consumed by a sibling worker
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        if (name, core.policy.name) == RAISE_POINT:
            raise RuntimeError(f"injected failure for {name}")
        return real(core, instructions, name)

    ledger = os.path.join(tmp, "chaos.jsonl")
    cache = os.path.join(tmp, "chaos-cache")
    experiments.measure = chaos_measure
    try:
        runner = experiments.ExperimentRunner(instructions=N, warmup=W,
                                              cache_dir=cache)
        matrix = runner.run_matrix(WLS, BASELINE, POLS, jobs=jobs,
                                   ledger=ledger)
    finally:
        experiments.measure = real

    print("chaos sweep (1 SIGKILL + 1 forced raise):")
    survivors = [(w, p) for p in POLS for w in WLS
                 if (w, p) != RAISE_POINT]
    check(all(w in matrix.get(p, {}) for w, p in survivors),
          "every surviving point completed")
    check(len(matrix.failures) == 1
          and (matrix.failures[0]["workload"],
               matrix.failures[0]["policy"]) == RAISE_POINT,
          "the injected raise is the only failure")
    check(not matrix.failures[0]["quarantined"],
          "a deterministic raise is not quarantined")
    check(not os.path.exists(token), "the crash token was consumed")

    events = read_ledger(ledger)
    st = summarize(events)
    check(st.worker_deaths >= 1,
          f"worker death recorded ({st.worker_deaths})")
    check(st.requeued >= 1, f"requeue recorded ({st.requeued})")
    problems = check_complete(events)
    check(problems == [],
          "ledger audits clean" if not problems
          else f"ledger audit: {problems}")

    entries = [e for e in os.listdir(cache) if e.endswith(".json")]
    check(len(entries) == len(survivors),
          f"{len(entries)}/{len(survivors)} survivors on disk")
    return matrix


def serial_identity(matrix):
    from repro.analysis.experiments import ExperimentRunner
    from repro.common.params import BASELINE

    print("farm vs serial identity:")
    serial = ExperimentRunner(instructions=N, warmup=W)
    want = serial.run_matrix(WLS, BASELINE, POLS)
    identical = all(
        matrix[p][w] == want[p][w]
        for p in POLS for w in WLS if (w, p) != RAISE_POINT)
    check(identical, "surviving farm results bit-identical to serial")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="farm-smoke-") as tmp:
        matrix = chaos_sweep(tmp, args.jobs)
        serial_identity(matrix)
    if _failures:
        print(f"\nfarm smoke: {len(_failures)} check(s) failed")
        return 1
    print("\nfarm smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
