"""Shared fixtures for the figure/table reproduction harness.

Every bench file regenerates one of the paper's tables or figures: it
measures the needed (workload × machine × policy) points with one
``run_matrix`` sweep per machine through the ``sweep`` fixture, prints
the same rows/series the paper reports, and writes them under
``benchmarks/results/``. All sweeps of a session share one runner, so a
point that several figures plot (Figures 7 and 8 plot the same runs) is
measured once and is a cache hit afterwards.

Each sweep fans out across every CPU (``os.cpu_count()``) on the farm
and records its life cycle in the session ledger
``benchmarks/_ledger_i<instr>_w<warmup>.jsonl``, which is emptied when
a session starts; ``python -m repro report <ledger>`` audits it.

Sizing knobs (environment):
    REPRO_BENCH_INSTR   measured instructions per point (default 15000)
    REPRO_BENCH_WARMUP  warmup instructions per point (default 15000)

The on-disk cache ``_cache_i<instr>_w<warmup>.json`` keyed by those
sizes makes re-runs instantaneous.
"""

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

import pytest

from repro.analysis.experiments import ExperimentRunner

RESULTS_DIR = os.path.join(_HERE, "results")


def bench_sizes():
    return (int(os.environ.get("REPRO_BENCH_INSTR", 15_000)),
            int(os.environ.get("REPRO_BENCH_WARMUP", 15_000)))


@pytest.fixture(scope="session")
def sweep():
    """sweep(workloads, machine, policies): one ``run_matrix`` on the
    farm; returns policy name -> workload name -> SimResult and raises
    if any point failed."""
    instr, warm = bench_sizes()
    runner = ExperimentRunner(
        instructions=instr, warmup=warm,
        cache_path=os.path.join(_HERE, f"_cache_i{instr}_w{warm}.json"))
    ledger = os.path.join(_HERE, f"_ledger_i{instr}_w{warm}.jsonl")
    if os.path.exists(ledger):
        os.remove(ledger)

    def _sweep(workloads, machine, policies):
        return runner.run_matrix(
            workloads, machine, policies, jobs=os.cpu_count() or 1,
            ledger=ledger).raise_if_failed()

    return _sweep


@pytest.fixture(scope="session")
def report():
    """report(name, text): print a figure's rows and persist them."""
    os.makedirs(RESULTS_DIR, exist_ok=True)

    def _report(name: str, text: str) -> None:
        print(f"\n===== {name} =====")
        print(text)
        with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as f:
            f.write(text + "\n")

    return _report


def once(benchmark, fn):
    """Run the (self-caching) figure builder exactly once under timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
