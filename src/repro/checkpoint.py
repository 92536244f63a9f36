"""Warm-state checkpointing: capture a warmed core once, fork N runs.

Every figure in the paper compares several policies on the *same*
workload with identical warmup. :func:`warm_checkpoint` runs the one
warmup sequence (:func:`repro.sim.warm_core`) once and captures the
complete mutable state of the core — memory hierarchy contents, branch
predictor tables, SST, ACE accounting, every pipeline component's
registers and the in-flight window — into a :class:`Checkpoint`.
:meth:`Checkpoint.fork` restores that state into a freshly constructed
core, which :func:`repro.sim.measure` then measures. A checkpoint is
built only where a warmup is shared: ``run_matrix(share_warmup=True)``,
which ``sweep --share-warmup`` and the golden tier's fork leg run.

Bit-identity contract: forking a checkpoint warmed under policy P and
measuring under the same policy P is **bit-identical** to measuring
:func:`~repro.sim.warm_core`'s core with the same seed, warmup and
warmup mode (the regression tests assert this for every policy).
Measuring a *different* policy than the one that
warmed the checkpoint is an explicit approximation — warmup behaviour
(runahead prefetches, predictor training) differs per policy — used by
``ExperimentRunner.run_matrix(share_warmup=True)``, which tags cached
results accordingly.

Implementation notes (see docs/architecture.md for the full story):

- Capture is one ``copy.deepcopy`` of all structures + component states
  with a single shared memo, so cross-structure references (the same
  ``DynUop`` sitting in the ROB, the IQ and the event heap; the PRDQ's
  register-file pointer; ACE's bound ``FuPool.exec_cycles`` method)
  stay consistent inside the blob.
- The trace, machine and policy are *seeded into the memo* and shared,
  not copied: ``Trace`` lazily buffers a generator (not copyable, and
  append-only deterministic, so sharing is safe in-process) and the
  params are frozen dataclasses.
- Restore never replaces a structure object: each live structure's
  ``__dict__`` is cleared and refilled in place, with the fork's memo
  pre-seeded ``{id(blob_structure): live_structure}`` so references
  between structures resolve to the live objects. In-place restore is
  what keeps the components' cached references and the stats registry's
  bound getters valid — the registry is never copied; a fresh core's
  registry reads the restored objects.
"""

import copy
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

from repro.common.params import DEFAULT_WARMUP, MachineParams
from repro.core.core import OutOfOrderCore
from repro.core.fastfwd import DEFAULT_WARMUP_MODE, validate_warmup_mode
from repro.core.runahead import OOO, RunaheadPolicy, get_policy
from repro.isa.trace import Trace
from repro.sim import warm_core
from repro.workloads.base import WorkloadSpec
from repro.workloads.catalog import get_workload

__all__ = ["Checkpoint", "CheckpointCache", "process_checkpoint_cache",
           "warm_checkpoint"]

#: Core attributes holding the shared hardware structures whose full
#: ``__dict__`` is captured and restored in place.
CORE_STRUCTURES = (
    "mem", "predictor", "btb", "frontend", "wrong_path_src", "rob", "iq",
    "lsq", "regs", "fus", "sst", "prdq", "ace",
)


@dataclass
class Checkpoint:
    """Deep-copied image of a warmed core, forkable into many runs.

    Holds everything :meth:`fork` needs to reconstruct the
    moment right after warmup: the run coordinates (workload/machine/
    policy/warmup/seed), the shared trace, and the state blob. The blob
    is private — each fork deep-copies it again, so one checkpoint can
    seed any number of runs without cross-contamination.

    Not picklable (the trace buffers a generator): multiprocess sweeps
    create checkpoints inside each worker rather than shipping them.
    """

    workload: str
    machine: MachineParams
    policy: RunaheadPolicy          # the policy warmup ran under
    warmup: int
    seed: Optional[int]
    trace: Trace                    # shared, append-only — never copied
    warmup_mode: str = DEFAULT_WARMUP_MODE  # how warmup was produced
    _blob: Dict[str, Any] = field(repr=False, default_factory=dict)

    @classmethod
    def capture(cls, core: OutOfOrderCore, workload: str, warmup: int,
                seed: Optional[int],
                warmup_mode: str = DEFAULT_WARMUP_MODE) -> "Checkpoint":
        """Snapshot a live core's complete mutable state."""
        raw = {
            "structures": {name: getattr(core, name)
                           for name in CORE_STRUCTURES},
            "components": {comp.name: comp.snapshot_state()
                           for comp in core.components},
            "stats": core.stats.snapshot(),
        }
        memo: Dict[int, Any] = {
            id(core.trace): core.trace,
            id(core.machine): core.machine,
            id(core.policy): core.policy,
        }
        # Observer hooks are wiring, not state: never capture them.
        if core.mem.observer is not None:
            memo[id(core.mem.observer)] = None
        if core.observer is not None:
            memo[id(core.observer)] = None
        blob = copy.deepcopy(raw, memo)
        return cls(workload=workload, machine=core.machine,
                   policy=core.policy, warmup=warmup, seed=seed,
                   trace=core.trace,
                   warmup_mode=validate_warmup_mode(warmup_mode),
                   _blob=blob)

    def restore_into(self, core: OutOfOrderCore) -> None:
        """Load this checkpoint's state into a freshly built core.

        The core must have been constructed with this checkpoint's
        machine and trace. All structure objects are mutated in place so
        the core's component bindings and registry getters stay valid.
        """
        blob = self._blob
        # One memo per fork: every blob-side object maps to the live
        # object that is being refilled, so any reference from one
        # structure into another (prdq._regs, DynUops shared between
        # ROB / IQ / event heap) lands on the
        # live instance — and shared DynUop identity survives the fork.
        memo: Dict[int, Any] = {
            id(self.trace): self.trace,
            id(self.machine): self.machine,
            id(self.policy): self.policy,
        }
        for name in CORE_STRUCTURES:
            memo[id(blob["structures"][name])] = getattr(core, name)

        for name in CORE_STRUCTURES:
            live = getattr(core, name)
            state = {k: copy.deepcopy(v, memo)
                     for k, v in blob["structures"][name].__dict__.items()}
            live.__dict__.clear()
            live.__dict__.update(state)
        for comp in core.components:
            comp.restore_state(copy.deepcopy(blob["components"][comp.name],
                                             memo))
        for attr, value in blob["stats"].items():
            setattr(core.stats, attr, value)

    def fork(self, policy: Union[RunaheadPolicy, str, None] = None,
             validate: bool = False,
             oracle: bool = False) -> OutOfOrderCore:
        """A fresh core carrying this checkpoint's warmed state.

        The core is constructed normally (so its registry binds to the
        live structures) and then overwritten in place with the blob.
        ``validate`` enables the invariant sanitizer on the fork — the
        checker is wiring, not state, so it is orthogonal to whether the
        checkpoint itself was captured from a sanitized core. ``oracle``
        likewise attaches the commit-stream oracle to the fork; it is
        attached *after* the restore, so its reference walk resumes at
        the restored window's oldest in-flight instruction.
        """
        if policy is None:
            policy = self.policy
        elif isinstance(policy, str):
            policy = get_policy(policy)
        core_seed = 0 if self.seed is None else self.seed
        core = OutOfOrderCore(self.machine, self.trace, policy,
                              seed=core_seed, validate=validate)
        self.restore_into(core)
        if oracle:
            from repro.validate.oracle import attach_oracle
            attach_oracle(core)
        return core


def warm_checkpoint(
    workload: Union[WorkloadSpec, str],
    machine: MachineParams,
    policy: Union[RunaheadPolicy, str] = OOO,
    warmup: int = DEFAULT_WARMUP,
    seed: Optional[int] = None,
    validate: bool = False,
    ledger=None,
    warmup_mode: str = DEFAULT_WARMUP_MODE,
) -> Checkpoint:
    """:func:`repro.sim.warm_core` once, captured for sharing.

    ``validate`` sanitizes the warmup run itself (under fast mode only
    the detailed tail steps the engine, so only the tail is checked);
    it does not mark the checkpoint (forks opt in separately).
    ``ledger`` (a :class:`~repro.obs.ledger.RunLedger` or path) records
    a ``warmup_shared`` event with the mode and the wall time of build,
    warmup and capture — purely observational, the captured state is
    bit-identical either way.
    """
    import time

    t0 = time.perf_counter()
    core, name = warm_core(workload, machine, policy, warmup, seed,
                           validate=validate, warmup_mode=warmup_mode)
    checkpoint = Checkpoint.capture(core, name, warmup, seed,
                                    warmup_mode=warmup_mode)
    if ledger is not None:
        if isinstance(ledger, str):
            from repro.obs.ledger import RunLedger
            ledger = RunLedger(ledger)
        ledger.warmup_shared(workload=name, machine=machine.name,
                             policy=core.policy.name, warmup=warmup,
                             mode=warmup_mode,
                             wall_s=time.perf_counter() - t0)
    return checkpoint


class CheckpointCache:
    """Process-local bounded LRU of warmed checkpoints.

    Shared-warmup sweeps (``run_matrix(share_warmup=True)``) warm
    through the process's instance, so two sweeps in one process
    touching the same workload share a single warmup instead of paying
    it twice, and farm workers forked from that process start with its
    entries. Sharing is safe because
    :meth:`Checkpoint.fork` deep-copies the state blob per run — a
    cached checkpoint seeds any number of measurements bit-identically
    to a freshly warmed one (the checkpoint contract).

    The key pins everything the warmed state depends on: the workload's
    name and content (:func:`~repro.analysis.experiments.workload_digest`,
    so a same-named workload with another seed, phase schedule or trace
    file never gets this one's state), the *full* machine configuration
    (via the params digest, so two machines sharing a display name never
    collide), the policy warmup ran under, the warmup length and the
    trace seed. ``validate`` rides
    along too — a sanitized warmup is bit-identical, but keeping the
    slots separate means a cache hit never silently changes whether the
    warmup itself was checked.
    """

    def __init__(self, capacity: int = 4):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Tuple, Checkpoint]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _key(spec, machine: MachineParams, policy_name: str,
             warmup: int, seed: Optional[int], validate: bool,
             warmup_mode: str = DEFAULT_WARMUP_MODE) -> Tuple:
        from repro.analysis.experiments import RunKey, workload_digest
        return (spec.name, workload_digest(spec), RunKey.digest(machine),
                policy_name, warmup, seed, validate, warmup_mode)

    def get_or_warm(
        self,
        workload: Union[WorkloadSpec, str],
        machine: MachineParams,
        policy: Union[RunaheadPolicy, str] = OOO,
        warmup: int = DEFAULT_WARMUP,
        seed: Optional[int] = None,
        validate: bool = False,
        ledger=None,
        warmup_mode: str = DEFAULT_WARMUP_MODE,
    ) -> Checkpoint:
        """A warmed checkpoint for the point, warming at most once.

        On a miss this is exactly :func:`warm_checkpoint` (the ledger's
        ``warmup_shared`` event fires); a hit returns the cached object
        and emits nothing — the ledger records warmups actually run.
        ``warmup_mode`` is part of the key: fast- and detailed-warmed
        checkpoints occupy separate slots and never alias.
        """
        spec = get_workload(workload) if isinstance(workload, str) \
            else workload
        pol = get_policy(policy) if isinstance(policy, str) else policy
        key = self._key(spec, machine, pol.name, warmup, seed,
                        validate, warmup_mode)
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return cached
        checkpoint = warm_checkpoint(spec, machine, pol, warmup=warmup,
                                     seed=seed, validate=validate,
                                     ledger=ledger,
                                     warmup_mode=warmup_mode)
        self.misses += 1
        self._entries[key] = checkpoint
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return checkpoint

    def clear(self) -> None:
        self._entries.clear()


#: One cache per process: pool/farm workers and the serial sweep path
#: all funnel through it, so a long-lived worker shares warmups across
#: every request it serves.
_PROCESS_CACHE: Optional[CheckpointCache] = None


def process_checkpoint_cache() -> CheckpointCache:
    """The process-wide :class:`CheckpointCache` (created on first use)."""
    global _PROCESS_CACHE
    if _PROCESS_CACHE is None:
        _PROCESS_CACHE = CheckpointCache()
    return _PROCESS_CACHE
