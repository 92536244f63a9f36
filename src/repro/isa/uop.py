"""Micro-op representations.

A :class:`StaticUop` is one element of the *dynamic instruction trace* of a
workload (the program already unrolled in execution order), so re-fetching
after a squash deterministically replays the same instructions, addresses
and branch outcomes.  A :class:`DynUop` is one in-flight instance of a
static uop; the same static uop can be instantiated several times (branch
wrong-path recovery, FLUSH refetch, runahead-exit flush all re-fetch).

Both classes use ``__slots__``: the simulator allocates one DynUop per
dynamic instruction and these are the hottest objects in the system.
"""

from typing import List, Optional, Tuple, Union

from repro.common.enums import FU_CLASS, HAS_DEST, IS_FP, UopClass

#: Sentinel address for non-memory uops.
NO_ADDR = -1

#: per-class derived fields, in ``StaticUop`` slot order: has_dest,
#: is_fp, fu_cls, is_load, is_store, is_branch, is_mem
_TRAITS = tuple(
    (HAS_DEST[c], IS_FP[c], FU_CLASS[c], c == UopClass.LOAD,
     c == UopClass.STORE, c == UopClass.BRANCH, UopClass(c).is_mem)
    for c in range(len(UopClass))
)


class StaticUop:
    """One trace element. Immutable once created.

    Attributes:
        idx: position in the trace (program order).
        pc: instruction address; loops repeat PCs so predictors can learn.
        cls: :class:`UopClass` value (stored as int for speed).
        srcs: trace indices of producer uops this uop reads. For loads and
            stores these are the *address-generating* producers, which is
            what backward-slice identification (the SST) walks.
        addr: byte address touched by loads/stores, ``NO_ADDR`` otherwise.
        taken: branch outcome (meaningless for non-branches).
        target: branch target PC (for BTB modelling).
        has_dest: whether this uop writes a renamed destination register.
        is_fp: whether this uop executes on the floating-point units.
        fu_cls: the FU class this uop occupies (loads/stores/branches use
            an integer adder) — precomputed because issue/wakeup consult
            it for every ready-list operation.
    """

    __slots__ = ("idx", "pc", "cls", "srcs", "addr", "taken", "target",
                 "has_dest", "is_fp", "fu_cls",
                 "is_load", "is_store", "is_branch", "is_mem")

    def __init__(
        self,
        idx: int,
        pc: int,
        cls: int,
        srcs: Tuple[int, ...] = (),
        addr: int = NO_ADDR,
        taken: bool = False,
        target: int = 0,
    ):
        self.idx = idx
        self.pc = pc
        self.cls = cls
        self.srcs = srcs
        self.addr = addr
        self.taken = taken
        self.target = target
        (self.has_dest, self.is_fp, self.fu_cls, self.is_load,
         self.is_store, self.is_branch, self.is_mem) = _TRAITS[cls]

    def __deepcopy__(self, memo) -> "StaticUop":
        # Immutable and owned by the trace: checkpoint deep-copies share
        # the instance instead of duplicating the whole unrolled program.
        return self

    def __repr__(self) -> str:
        return (
            f"StaticUop(idx={self.idx}, pc={self.pc:#x}, "
            f"cls={UopClass(self.cls).name}, srcs={self.srcs}, addr={self.addr})"
        )


class DynUop:
    """One dynamic, in-flight instance of a static uop.

    Timestamps are cycle numbers, ``-1`` when the event has not happened.
    ACE accounting reads the timestamps at commit; squashed instances are
    charged nothing (see ``repro.reliability.ace``).
    """

    __slots__ = (
        "static",
        "seq",
        "wrong_path",
        "runahead",
        "pending",
        "consumers",
        "dispatch_cycle",
        "issue_cycle",
        "done_cycle",
        "commit_cycle",
        "completed",
        "squashed",
        "mem_level",
        "llc_miss",
        "counted_miss",
        "predicted_taken",
        "in_lq",
        "in_sq",
        "ready_ord",
    )

    def __init__(self, static: StaticUop, seq: int, wrong_path: bool = False,
                 runahead: bool = False):
        self.static = static
        self.seq = seq
        self.wrong_path = wrong_path
        self.runahead = runahead
        #: number of unresolved producers; issue-eligible at zero
        self.pending = 0
        #: dispatched consumers waiting on this uop's result; a shared
        #: empty tuple until dispatch adds the first one, so a uop that
        #: nothing reads (every wrong-path uop, for one) allocates no list
        self.consumers: Union[Tuple[()], List["DynUop"]] = ()
        self.dispatch_cycle = -1
        self.issue_cycle = -1
        self.done_cycle = -1
        self.commit_cycle = -1
        self.completed = False
        self.squashed = False
        #: which level serviced a memory uop: "l1", "l2", "l3", "dram"
        self.mem_level: Optional[str] = None
        self.llc_miss = False
        #: whether this uop incremented the outstanding-miss (MLP) counter
        self.counted_miss = False
        self.predicted_taken = False
        self.in_lq = False
        self.in_sq = False
        #: global wakeup-order stamp assigned when this uop enters the
        #: issue queue's ready lists (see ``repro.core.issue_queue``)
        self.ready_ord = -1

    @property
    def mispredicted(self) -> bool:
        return (
            self.static.cls == UopClass.BRANCH
            and not self.wrong_path
            and self.predicted_taken != self.static.taken
        )

    def __repr__(self) -> str:
        flags = "".join(
            f
            for f, on in (
                ("W", self.wrong_path),
                ("R", self.runahead),
                ("S", self.squashed),
                ("C", self.completed),
            )
            if on
        )
        return f"DynUop(seq={self.seq}, {self.static!r}, flags={flags or '-'})"
