"""Functional fast-warmup: train long-lived state without the pipeline.

Warmup exists to charge the structures whose state outlives any single
instruction — cache tags/LRU at every level (plus the prefetcher's
stream table), the TAGE tables and folded histories, the BTB, and the
SST — before measurement begins. The detailed core pays full
out-of-order cost for that region: ROB allocation, issue-queue wakeup,
FU scheduling, the event heap. :func:`functional_warmup` walks the
trace in program order instead, one static uop at a time, applying only
the state updates the detailed pipeline would make to those long-lived
structures:

- **branches** train through the front end's own
  :meth:`~repro.core.components.FrontEndStage.train_branch`
  (``predictor.observe`` → ``btb.lookup`` → ``btb.update``), so TAGE
  tables, folded histories and the BTB end up trained on the same
  correct-path stream;
- **loads** probe the memory hierarchy (``mem.access``), which moves
  tags/LRU at L1/L2/L3, trains the stride prefetcher, and allocates
  MSHRs against a nominal one-uop-per-cycle clock; an MSHR-full
  rejection jumps the clock to the next completion, mirroring the
  detailed retry loop; dram-level loads train the SST with their
  backward slice exactly as writeback does;
- **stores** write-allocate (``mem.access(is_write=True)``) as the
  commit unit would.

What is *deliberately not* modelled, and why it is safe (validated by
``repro warmval``, documented in docs/performance.md):

- **no wrong-path fetch**: the wrong-path source's RNG is not advanced
  and no wrong-path pollution enters the caches. Wrong-path state is
  short-lived by construction.
- **no runahead episodes**: a fast warmup under a runahead policy
  trains the same structures as under OOO; runahead's extra prefetches
  during *warmup* are a second-order effect on measured-region IPC.
- **compressed timing**: the nominal clock advances one cycle per uop,
  so miss overlap and DRAM bank state differ from detailed warmup.
  Tags, LRU order and predictor tables — the state that matters — see
  the same access sequence.
- **cold pipeline at the boundary**: the functional walk leaves an
  empty ROB/IQ/LSQ (the detailed warmup hands over a full window).

The short-lived state the walk skips is recency-dominated: the pipeline
window, the runahead controller's PRDQ/interval state, and the runahead
prefetches covering the first few hundred measured instructions. Fast
mode therefore finishes with a **detailed tail** — the last
``warmup // DETAILED_TAIL_DIVISOR`` instructions run on the full core
(the functional-warming + detailed-warmup-window split of SMARTS-style
sampled simulation). The tail restores the boundary state the measured
region actually feels, while the functional walk still covers ~90% of
the region, keeping the warmup-phase speedup above the 5x target.

Because the walk mutates the structures of a real
:class:`~repro.core.core.OutOfOrderCore` in place,
:meth:`~repro.checkpoint.Checkpoint.capture` snapshots a fast-warmed
core through the identical code path as a detailed one — the blob
schema, ``fork()`` semantics, farm workers and the
:class:`~repro.checkpoint.CheckpointCache` are shared by construction.
Results measured from a fast checkpoint are still an approximation and
are cache-tagged with a ``wm:fast`` variant (see
:func:`repro.analysis.experiments._variant`) so they never mix with
exact runs.
"""

from repro.common.enums import UopClass

__all__ = ["WARMUP_MODES", "DEFAULT_WARMUP_MODE", "DETAILED_TAIL_DIVISOR",
           "detailed_tail", "functional_warmup", "validate_warmup_mode"]

#: Recognised warmup modes: ``detailed`` runs the full core over the
#: warmup region (exact, the default); ``fast`` runs this module's
#: functional walk (approximate, validated by ``repro warmval``).
WARMUP_MODES = ("detailed", "fast")
DEFAULT_WARMUP_MODE = "detailed"

_LOAD = int(UopClass.LOAD)
_STORE = int(UopClass.STORE)
_BRANCH = int(UopClass.BRANCH)


#: In fast mode the last ``warmup // DETAILED_TAIL_DIVISOR``
#: instructions run on the detailed core (see module docstring). At the
#: measured detailed/functional KIPS ratio a one-twentieth tail keeps
#: the end-to-end warmup speedup above the 5x target while still
#: covering the recency-dominated boundary state (pipeline fill is
#: ~2 x ROB; runahead's prefetch horizon is a few hundred uops).
DETAILED_TAIL_DIVISOR = 20


def detailed_tail(warmup: int) -> int:
    """Detailed-core instructions at the end of a fast warmup region."""
    return warmup // DETAILED_TAIL_DIVISOR


def validate_warmup_mode(mode: str) -> str:
    if mode not in WARMUP_MODES:
        raise ValueError(
            f"unknown warmup_mode {mode!r}; expected one of {WARMUP_MODES}")
    return mode


def functional_warmup(core, warmup: int) -> int:
    """Warm ``core`` over trace[0:warmup] functionally; returns uops seen.

    The core must be freshly constructed (nothing fetched yet). On
    return the core sits at the same architectural boundary a detailed
    warmup reaches — fetch/dispatch cursors and the committed counter
    all at ``warmup`` — with trained caches/predictor/BTB/SST but an
    empty pipeline window. :class:`~repro.core.engine.SimEngine.run`
    targets ``stats.committed + n``, and measurement is delta-based
    (:func:`repro.sim._snapshot`), so the measured region runs
    unchanged from this state.
    """
    if core.stats.committed or core.frontend_stage.fetch_idx:
        raise ValueError("functional_warmup needs a freshly built core")
    trace = core.trace
    mem = core.mem
    ra = core.runahead_ctl
    access = mem.access
    train_branch = core.frontend_stage.train_branch
    cycle = 0
    idx = 0
    while idx < warmup:
        st = trace.get(idx)
        if st is None:
            break  # trace shorter than the warmup region
        cls = st.cls
        if cls == _BRANCH:
            train_branch(st)
        elif cls == _LOAD:
            result = access(st.addr, cycle, pc=st.pc)
            while result is None:  # MSHRs full: jump to next completion
                cycle = max(cycle + 1, mem._mshr_min)
                result = access(st.addr, cycle, pc=st.pc)
            if result.level == "dram":
                ra.train_sst(idx, st.pc)
        elif cls == _STORE:
            # Write-allocate as commit would; an MSHR-full rejection
            # drops the allocation, same as the detailed commit path
            # (which ignores the access result).
            access(st.addr, cycle, is_write=True, pc=st.pc)
        idx += 1
        cycle += 1
    # Land the core on the post-warmup architectural boundary.
    core.frontend_stage.fetch_idx = idx
    core.frontend_stage._seq = idx
    core.backend.next_dispatch_idx = idx
    core.stats.committed = idx
    core.stats.cycles = cycle
    core.engine.cycle = cycle
    return idx
