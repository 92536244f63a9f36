"""A bare :class:`WindowBackEnd` for driving issue/select in isolation.

The back end is built without a core: only the structures
``WindowBackEnd._do_issue`` touches are attached (issue queue, FU pool,
memory hierarchy, an engine stand-in that records writeback events).
"""

from dataclasses import replace

from repro.common.params import BASELINE, CacheParams, CoreParams
from repro.core.components import WindowBackEnd
from repro.core.fu import FuPool
from repro.core.issue_queue import IssueQueue
from repro.isa.uop import DynUop, StaticUop
from repro.memory.hierarchy import MemoryHierarchy


class RecordingEngine:
    """Stands in for the engine's ``schedule``: keeps (cycle, kind, seq)."""

    def __init__(self) -> None:
        self.events = []

    def schedule(self, cycle: int, kind: int, payload) -> None:
        self.events.append((cycle, kind, payload.seq))


def make_backend(width=4, fus=None, mshrs=20):
    core = CoreParams(width=width) if fus is None \
        else CoreParams(width=width, fus=fus)
    machine = replace(BASELINE, core=core,
                      l1d=CacheParams(32 * 1024, 8, 4, mshrs=mshrs))
    be = WindowBackEnd(None)
    be.iq = IssueQueue(core.iq_size)
    be.fus = FuPool(core)
    be.mem = MemoryHierarchy(machine)
    be.engine = RecordingEngine()
    be.width = width
    return be


def dyn(seq, cls, addr=-1):
    return DynUop(StaticUop(idx=seq, pc=0x400 + 4 * seq, cls=int(cls),
                            addr=addr), seq=seq)


def fill_mshrs(mem, done_cycles):
    """Occupy MSHRs with fills completing at ``done_cycles`` (lines the
    test never touches), as an earlier miss would have."""
    for i, d in enumerate(done_cycles):
        mem._outstanding[(1 << 40) + 64 * i] = (d, "dram")
        mem._mshr_done.append(d)
        mem._mshr_min = min(mem._mshr_min, d)
