"""Shared test fixtures.

Also makes the suite runnable without an installed package (the offline
environment lacks `wheel`, so `pip install -e .` may be unavailable):
``src/`` is prepended to ``sys.path`` when ``repro`` is not importable.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - environment dependent
    sys.path.insert(0, _SRC)

import pytest

from repro.common.params import BASELINE, MachineParams
from repro.obs import log as obs_log
from repro.workloads.catalog import get_workload


@pytest.fixture(autouse=True)
def _unconfigure_logging():
    """Undo any ``repro.cli.main`` logging configuration after a test.

    ``main`` gives the ``repro`` logger its own stderr handler and stops
    propagation to the root logger; left behind, that hides every later
    record from ``caplog``, so whether a warning test passes would
    depend on which test file ran before it.
    """
    yield
    obs_log.reset()


@pytest.fixture(scope="session")
def baseline() -> MachineParams:
    return BASELINE


@pytest.fixture(scope="session")
def small_trace():
    """A short, memory-light trace for fast core tests."""
    return get_workload("x264").build_trace()


def tiny_simulate(workload, policy, instructions=1500, warmup=500,
                  machine=BASELINE):
    """Small-budget simulation helper used across integration tests."""
    from repro.sim import simulate
    return simulate(workload, machine, policy,
                    instructions=instructions, warmup=warmup)
