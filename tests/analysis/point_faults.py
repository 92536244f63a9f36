"""Faults injected into sweep points, for the farm and isolation tests.

Each helper wraps ``repro.analysis.experiments.measure``, which ends
every point. Farm workers are forked from the test's process, so a
wrapper installed before the sweep runs in whichever process measures
the point: it can raise inside the point's isolation, or SIGKILL the
worker the way the OOM killer would (no atexit handlers, no cleanup).
The killing faults spare the process that installed them, so a sweep
that runs serially can never kill the test run itself.
"""

import os
import signal

import repro.analysis.experiments as exp


def _before_measure(monkeypatch, fault) -> None:
    real = exp.measure

    def measure(core, instructions, name):
        fault(name, core.policy.name)
        return real(core, instructions, name)

    monkeypatch.setattr(exp, "measure", measure)


def raise_at(monkeypatch, workload: str, policy: str) -> str:
    """Make the point ``workload``/``policy`` raise; returns the
    injected message, which the point's failure record carries."""
    message = f"injected failure for {workload}:{policy}"

    def fault(w, p):
        if (w, p) == (workload, policy):
            raise RuntimeError(message)

    _before_measure(monkeypatch, fault)
    return message


def kill_once(monkeypatch, token: str) -> None:
    """The first worker to measure a point while ``token`` exists
    unlinks it and SIGKILLs itself: one crash per token file."""
    parent = os.getpid()

    def fault(w, p):
        if os.getpid() == parent:
            return
        try:
            os.unlink(token)
        except OSError:
            return  # already consumed by a sibling worker
        os.kill(os.getpid(), signal.SIGKILL)

    _before_measure(monkeypatch, fault)


def kill_at(monkeypatch, workload: str, policy: str) -> None:
    """Every worker that measures ``workload``/``policy`` SIGKILLs
    itself: a poison point that must end in quarantine."""
    parent = os.getpid()

    def fault(w, p):
        if (w, p) == (workload, policy) and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    _before_measure(monkeypatch, fault)
