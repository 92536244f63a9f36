"""A built core over a short hand-written trace.

Drives fetch, dispatch and commit one stage at a time, so a test sees
the allocation and stall rules exactly as the pipeline applies them.
"""

from dataclasses import replace

from repro.common.enums import UopClass
from repro.common.params import BASELINE
from repro.core.core import OutOfOrderCore
from repro.isa.trace import Trace
from repro.isa.uop import NO_ADDR, StaticUop


def make_core(classes, deps=None, **core_params):
    """A core over one static uop per entry of ``classes``.

    ``deps`` maps a trace index to the indices it reads; memory uops
    touch distinct lines; ``core_params`` override the baseline
    :class:`~repro.common.params.CoreParams`.
    """
    deps = deps or {}
    uops = [StaticUop(idx=i, pc=0x400 + 4 * i, cls=int(cls),
                      srcs=tuple(deps.get(i, ())),
                      addr=0x10000 + 64 * i if UopClass(cls).is_mem
                      else NO_ADDR)
            for i, cls in enumerate(classes)]
    machine = replace(BASELINE, core=replace(BASELINE.core, **core_params))
    return OutOfOrderCore(machine, Trace.from_list(uops))


def arrival(core, cycle=0):
    """The cycle a group fetched at ``cycle`` reaches dispatch."""
    return cycle + core.machine.core.frontend_depth


def dispatch(core, cycle=0):
    """Fetch one group at ``cycle`` and dispatch it when it arrives;
    returns the number of uops dispatched."""
    core.frontend_stage.step(cycle)
    return core.backend._do_dispatch(arrival(core, cycle))
