"""Commit-stream architectural oracle.

An independent functional reference model checked in lockstep against
the core's retirement. The workload trace *is* the architectural
program (already unrolled in execution order, with branch outcomes
embedded), so the reference model is a program-order walk of the
``Trace``/``StaticUop`` stream: the oracle keeps its own cursor,
follows the embedded branch outcomes, and — via a commit hook on
:class:`~repro.core.components.CommitUnit` — asserts that what the core
retires is exactly that stream. Runahead episodes, wrong-path fetch and
FLUSH refetch must be *timing-only* perturbations; any drift in
retirement semantics (the failure mode gem5's trace-vs-commit checker
and Sniper's functional feedback guard against) raises an
:class:`OracleViolation` at the exact commit where it becomes visible.

Checks, by catalog name:

``idx-sequence``      committed trace indices are exactly sequential —
                      no skips, no replays, no commits past the end of
                      the stream.
``uop-mismatch``      the committed uop's PC / class / address match
                      the trace's record for that index (and the uop
                      completed execution before retiring).
``branch-outcome``    a committed branch retires with the architectural
                      direction and target the trace embeds.
``double-retire``     every dynamic instance retires at most once, and
                      a squashed instance never retires.
``wrong-path-commit`` no wrong-path instance reaches retirement.
``runahead-commit``   nothing retires while the core is in a runahead
                      or flush-stall interval, and no runahead instance
                      ever retires.
``commit-order``      retirement timestamps are monotonically
                      non-decreasing.
``lsq-reconcile``     a committing load/store still holds its LQ/SQ
                      entry (allocated at dispatch, released by this
                      very commit), so the memory-op subsequence the
                      LSQ saw reconciles with the trace's.
``terminal-commit``   on a finite trace that drains, the stream ends in
                      a clean terminal commit: every materialised uop
                      retired, nothing truncated (:meth:`final_check`).

The oracle is purely observational (like the invariant sanitizer): it
never mutates simulator state, results are bit-identical with or
without it, and it is wiring, not architectural state — checkpoints are
interchangeable between oracle'd and plain cores. It also accumulates a
*commit digest* (an order-sensitive SHA-256 over every retired uop's
architectural fields), which is the oracle half of the golden
conformance fingerprints (:mod:`repro.validate.golden`). The digest
covers the measured window: :func:`repro.sim.measure` restarts it when
the window opens (:meth:`CommitOracle.open_window`), so a cold core
whose oracle also checked the warmup and a fork whose oracle was
attached after the restore hash the same retirements.
"""

import hashlib
from typing import Set

from repro.common.enums import Mode, UopClass
from repro.isa.uop import DynUop

__all__ = ["CommitOracle", "OracleViolation", "attach_oracle"]

_BRANCH = int(UopClass.BRANCH)


class OracleViolation(AssertionError):
    """One breached oracle check, pinned to the commit that exposed it.

    Attributes:
        check: catalog name (e.g. ``"idx-sequence"``).
        cycle: simulated cycle of the offending commit.
        detail: human-readable description of the drift.
    """

    def __init__(self, check: str, cycle: int, detail: str):
        self.check = check
        self.cycle = cycle
        self.detail = detail
        super().__init__(f"[{check}] at cycle {cycle}: {detail}")


class CommitOracle:
    """Program-order reference model, lockstep-checked at retirement.

    Construct against a live core and :meth:`attach` to its commit
    unit's hook (the hook fires before the commit releases LSQ/register
    resources, so the oracle can reconcile the LSQ entry the commit is
    about to free). A core restored from a warm checkpoint is supported:
    the oracle picks up the walk at the restored window's oldest
    in-flight instruction.
    """

    def __init__(self, core) -> None:
        self.core = core
        self.trace = core.trace
        self.lsq = core.lsq
        self.ra = core.runahead_ctl
        # Resume point: the next architectural commit is the oldest
        # correct-path instruction in flight, or — with an empty window
        # (cold core, or a checkpoint captured at a quiet boundary) —
        # the next instruction the back-end will dispatch.
        q = core.rob._q
        self.next_idx = q[0].static.idx if q else core.backend.next_dispatch_idx
        self.start_idx = self.next_idx
        self.commits = 0
        self.branches = 0
        self.taken_branches = 0
        self.last_commit_cycle = -1
        self._retired_seqs: Set[int] = set()
        self._h = hashlib.sha256()
        self._chained = None

    # ============================================================= wiring

    def attach(self) -> "CommitOracle":
        """Chain onto the commit unit's hook; returns self."""
        cu = self.core.commit_unit
        self._chained = cu.commit_hook
        cu.commit_hook = self.on_commit
        self.core.oracle = self
        return self

    # ========================================================== the check

    def on_commit(self, uop: DynUop, cycle: int) -> None:
        """Lockstep check of one retiring uop against the reference walk."""
        mode = self.ra.mode
        if mode != Mode.NORMAL:
            raise OracleViolation(
                "runahead-commit", cycle,
                f"retirement in mode {mode.name}: {uop!r}")
        if uop.runahead:
            raise OracleViolation(
                "runahead-commit", cycle,
                f"runahead instance retired: {uop!r}")
        if uop.wrong_path:
            raise OracleViolation(
                "wrong-path-commit", cycle,
                f"wrong-path instance retired: {uop!r}")
        if uop.squashed:
            raise OracleViolation(
                "double-retire", cycle,
                f"squashed instance retired: {uop!r}")
        if uop.seq in self._retired_seqs:
            raise OracleViolation(
                "double-retire", cycle,
                f"instance retired twice: {uop!r}")
        if cycle < self.last_commit_cycle:
            raise OracleViolation(
                "commit-order", cycle,
                f"commit at cycle {cycle} after one at "
                f"{self.last_commit_cycle}")

        st = uop.static
        if st.idx != self.next_idx:
            raise OracleViolation(
                "idx-sequence", cycle,
                f"committed trace idx {st.idx}, reference walk expects "
                f"{self.next_idx}")
        ref = self.trace.get(self.next_idx)
        if ref is None:
            raise OracleViolation(
                "idx-sequence", cycle,
                f"commit past the end of the stream: idx {st.idx} "
                f"(trace ends at {len(self.trace)})")
        if st.pc != ref.pc or st.cls != ref.cls or st.addr != ref.addr:
            raise OracleViolation(
                "uop-mismatch", cycle,
                f"idx {st.idx}: committed (pc={st.pc:#x}, cls={st.cls}, "
                f"addr={st.addr}) but the trace records (pc={ref.pc:#x}, "
                f"cls={ref.cls}, addr={ref.addr})")
        if not uop.completed:
            raise OracleViolation(
                "uop-mismatch", cycle,
                f"idx {st.idx} retired without completing execution")
        if st.cls == _BRANCH:
            if st.taken != ref.taken or st.target != ref.target:
                raise OracleViolation(
                    "branch-outcome", cycle,
                    f"idx {st.idx}: committed branch (taken={st.taken}, "
                    f"target={st.target:#x}) but the trace records "
                    f"(taken={ref.taken}, target={ref.target:#x})")
            self.branches += 1
            if ref.taken:
                self.taken_branches += 1
        if st.is_load and not uop.in_lq:
            raise OracleViolation(
                "lsq-reconcile", cycle,
                f"idx {st.idx}: load retiring without its LQ entry")
        if st.is_store and not uop.in_sq:
            raise OracleViolation(
                "lsq-reconcile", cycle,
                f"idx {st.idx}: store retiring without its SQ entry")
        if st.is_load and self.lsq.lq_used <= 0:
            raise OracleViolation(
                "lsq-reconcile", cycle,
                f"idx {st.idx}: load retiring with lq_used="
                f"{self.lsq.lq_used}")
        if st.is_store and self.lsq.sq_used <= 0:
            raise OracleViolation(
                "lsq-reconcile", cycle,
                f"idx {st.idx}: store retiring with sq_used="
                f"{self.lsq.sq_used}")

        # Advance the reference walk, following the embedded outcome.
        self._retired_seqs.add(uop.seq)
        self.next_idx += 1
        self.commits += 1
        self.last_commit_cycle = cycle
        self._h.update(
            b"%d,%d,%d,%d,%d,%d;"
            % (ref.idx, ref.pc, ref.cls, ref.addr,
               1 if ref.taken else 0, ref.target))
        if self._chained is not None:
            self._chained(uop, cycle)

    # ============================================================ summary

    def open_window(self) -> None:
        """Restart the commit digest at the start of the measured window;
        the lockstep checks and their counters carry on unchanged."""
        self._h = hashlib.sha256()

    def digest(self) -> str:
        """Order-sensitive hash over the architectural fields (idx, pc,
        class, addr, branch direction/target) of every uop retired since
        attach or the last :meth:`open_window`."""
        return self._h.hexdigest()

    def final_check(self, expect_drained: bool = False) -> None:
        """Whole-run oracle checks, called once after the run completes.

        With ``expect_drained=True`` (a finite trace whose stream ended
        the run) the oracle additionally asserts a clean terminal
        commit: the reference walk consumed the whole stream and the
        window retired everything — a truncated tail means the core
        dropped architectural instructions on the floor.
        """
        cycle = self.core.cycle
        if self.commits != self.next_idx - self.start_idx:
            raise OracleViolation(
                "idx-sequence", cycle,
                f"{self.commits} commits but the reference walk moved "
                f"{self.next_idx - self.start_idx} steps")
        if expect_drained:
            tail = self.trace.get(self.next_idx)
            if tail is not None:
                raise OracleViolation(
                    "terminal-commit", cycle,
                    f"stream truncated: walk stopped at idx "
                    f"{self.next_idx} but the trace continues "
                    f"({tail!r})")
            if len(self.core.rob) != 0:
                raise OracleViolation(
                    "terminal-commit", cycle,
                    f"stream drained but {len(self.core.rob)} uop(s) "
                    f"remain in the window")

    def summary(self) -> dict:
        """Oracle effort counters (for reports and tests)."""
        return {
            "commits": self.commits,
            "branches": self.branches,
            "taken_branches": self.taken_branches,
            "next_idx": self.next_idx,
            "digest": self.digest(),
        }


def attach_oracle(core) -> CommitOracle:
    """Construct a :class:`CommitOracle` against ``core`` and attach it."""
    return CommitOracle(core).attach()
