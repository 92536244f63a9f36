"""Watch a core cycle by cycle through its real run loop.

``SimEngine.run`` calls ``telemetry.tick(core)`` after every cycle it
visits when a telemetry object is attached. :func:`run_until` puts a
probe in that slot, so a test observes exactly the loop that
``simulate()`` and the golden tier run, and can stop it early.
"""


class _Stop(Exception):
    """Raised by the probe to leave the run loop."""


class _Probe:
    def __init__(self, until):
        self.until = until

    def tick(self, core) -> None:
        if self.until(core):
            raise _Stop


def run_until(core, until, instructions: int) -> bool:
    """Run ``core.run(instructions)``, calling ``until(core)`` after every
    visited cycle; stop as soon as it returns true.

    Returns whether ``until`` stopped the run before the budget
    committed. The core must have no telemetry attached.
    """
    assert core.telemetry is None
    core.telemetry = _Probe(until)
    try:
        core.run(instructions)
    except _Stop:
        return True
    finally:
        core.telemetry = None
    return False
