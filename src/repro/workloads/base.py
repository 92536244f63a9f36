"""Workload specification and trace generation.

A workload is described by a *loop body*: a short list of :class:`SlotSpec`
entries (one per static instruction) that the generator unrolls into an
infinite dynamic trace. Slots keep the same PC across iterations, so branch
predictors and the Stalling Slice Table see learnable, program-like PC
streams; addresses and branch outcomes vary per iteration according to the
slot's pattern/branch specification.

Dependencies are expressed as ``(iteration_delta, slot_index)`` pairs and
resolved to absolute trace indices during unrolling. Loads drawn from a
*dependent* address pattern (pointer chasing) additionally gain a dynamic
dependence on the previous load of the same pattern — that is what makes
chase misses serialise and makes runahead unable to prefetch them.
"""

import random
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.enums import UopClass
from repro.isa.trace import Trace
from repro.isa.uop import NO_ADDR, StaticUop
from repro.workloads.patterns import AddressPattern, PatternSpec


#: slot plan kinds (see :meth:`WorkloadSpec._compile`)
_PLAIN, _MEM, _LOOP, _BIASED, _DATA = range(5)
_BRANCH_KINDS = {"loop": _LOOP, "biased": _BIASED, "data": _DATA}
_LOAD = int(UopClass.LOAD)
_BRANCH = int(UopClass.BRANCH)


@dataclass(frozen=True)
class BranchSpec:
    """Behaviour of one static branch slot.

    kinds:
        ``loop``   — taken except every ``period``-th iteration (back-edge).
        ``biased`` — independently taken with probability ``bias``.
        ``data``   — taken with probability ``bias`` *and* data-dependent on
                     the most recent load, so it is unpredictable noise to
                     the predictor and INV in runahead when that load is in
                     the blocking load's shadow.
    """

    kind: str = "loop"
    bias: float = 0.5
    period: int = 64


@dataclass(frozen=True)
class SlotSpec:
    """One static instruction of the loop body."""

    cls: int
    #: producer references as (iteration_delta, slot_index); delta 0 means
    #: "earlier in the same iteration", 1 means "previous iteration", ...
    srcs: Tuple[Tuple[int, int], ...] = ()
    #: pattern id (key into WorkloadSpec.patterns) for loads/stores
    pattern: Optional[str] = None
    branch: Optional[BranchSpec] = None


def _shift_base(spec: PatternSpec, offset: int) -> PatternSpec:
    """A copy of ``spec`` with every region base shifted by ``offset``.

    Mix parts shift recursively; residency hints are dropped because a
    drifting region is by definition not in cache steady state (and a
    stale preload would be actively misleading)."""
    if offset == 0:
        return spec
    parts = tuple((w, _shift_base(s, offset)) for w, s in spec.mix_parts)
    return replace(spec, base=spec.base + offset, mix_parts=parts,
                   resident="")


@dataclass(frozen=True)
class PhaseSpec:
    """One segment of a piecewise phase schedule.

    A phased workload cycles through its ``phases`` tuple; each segment
    lasts ``duration`` loop iterations and *overrides* some of the
    workload's patterns while it is active (an empty override set means
    "run the base patterns"). This expresses the three canonical
    non-stationary behaviours (cf. the dynamic/oscillating trace
    generator exemplar, SNIPPETS.md §3):

    - **abrupt phase swap** — consecutive segments override the same
      pattern id with different kinds (chase ↔ stream);
    - **oscillating hot/scan** — alternate a hot-dominated mix with a
      scanning stream;
    - **hot-set drift** — ``drift`` bytes are added to the overriding
      patterns' bases on every full pass through the schedule, so the
      "hot" region migrates and previously-warmed lines go cold.

    Overridden patterns get a *fresh* engine at each segment entry
    (cursors reset — a new program phase does not resume the old
    phase's stream positions); non-overridden patterns keep their state
    across segments.
    """

    duration: int
    patterns: Tuple[Tuple[str, PatternSpec], ...] = ()
    drift: int = 0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("phase duration must be positive")


@dataclass
class WorkloadSpec:
    """A named synthetic workload.

    Attributes:
        name: benchmark name (e.g. ``"mcf"``).
        memory_intensive: which evaluation set the workload belongs to.
        body: the loop body (slots).
        patterns: address-pattern specs keyed by the ids slots reference.
        pc_base: base address for slot PCs.
        seed: default RNG seed; traces are reproducible given (name, seed).
        description: one-line characterisation (for docs/reports).
        phases: optional cyclic phase schedule (:class:`PhaseSpec`); empty
            means stationary behaviour (every pre-phase workload).
    """

    name: str
    memory_intensive: bool
    body: Tuple[SlotSpec, ...]
    patterns: Dict[str, PatternSpec] = field(default_factory=dict)
    pc_base: int = 0x400000
    seed: int = 12345
    description: str = ""
    phases: Tuple[PhaseSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("workload body must not be empty")
        for slot in self.body:
            if UopClass(slot.cls).is_mem and slot.pattern not in self.patterns:
                raise ValueError(
                    f"{self.name}: mem slot references unknown pattern "
                    f"{slot.pattern!r}"
                )
        for phase in self.phases:
            for pid, _ in phase.patterns:
                if pid not in self.patterns:
                    raise ValueError(
                        f"{self.name}: phase overrides unknown pattern "
                        f"{pid!r}"
                    )

    def build_trace(self, seed: Optional[int] = None) -> Trace:
        """Materialise a fresh, rewindable trace for this workload."""
        trace = Trace(
            self._generate(self.seed if seed is None else seed), name=self.name
        )
        if self.phases:
            trace.set_phase_fn(self._phase_fn())
        return trace

    def _phase_fn(self):
        """Map a trace index to its phase id (segment index in the
        cyclic schedule) — O(log #phases), no trace materialisation."""
        from bisect import bisect_right

        nslots = len(self.body)
        bounds: List[int] = []
        acc = 0
        for p in self.phases:
            acc += p.duration
            bounds.append(acc)
        cycle = acc

        def fn(idx: int) -> int:
            return bisect_right(bounds, (idx // nslots) % cycle)

        return fn

    def resident_regions(self) -> List[Tuple[str, int, int]]:
        """(level, base, size) regions that are cache-resident in steady
        state — the simulator preloads these instead of simulating the
        hundreds of thousands of warmup instructions they would need."""
        out: List[Tuple[str, int, int]] = []
        seen = set()

        def walk(spec: PatternSpec) -> None:
            if spec.resident and (spec.base, spec.working_set) not in seen:
                seen.add((spec.base, spec.working_set))
                out.append((spec.resident, spec.base, spec.working_set))
            for _, sub in spec.mix_parts:
                walk(sub)

        for spec in self.patterns.values():
            walk(spec)
        return out

    def _compile(self) -> List[tuple]:
        """The loop body as one plan row per slot, resolved once per trace.

        A row is ``(pc, cls, deltas, offs, steady, kind, pattern, is_load,
        bias, period)``. Producer references become offsets from the
        iteration's first trace index (``offs``, with the iteration
        ``deltas`` they came from); references that could never precede
        the slot are dropped here, and from iteration ``steady`` on every
        remaining producer exists. ``kind`` says how the slot draws its
        dynamic fields: a memory pattern, one of the :class:`BranchSpec`
        kinds, or nothing.
        """
        nslots = len(self.body)
        plan = []
        for s, slot in enumerate(self.body):
            refs = [(delta, prod_slot - delta * nslots)
                    for delta, prod_slot in slot.srcs
                    if prod_slot - delta * nslots < s]
            cls = int(slot.cls)
            kind, bias, period = _PLAIN, 0.0, 0
            if slot.pattern is not None:
                kind = _MEM
            elif cls == _BRANCH:
                spec = slot.branch or BranchSpec()
                if spec.kind not in _BRANCH_KINDS:
                    raise ValueError(f"unknown branch kind {spec.kind!r}")
                kind, bias, period = (_BRANCH_KINDS[spec.kind], spec.bias,
                                      spec.period)
            plan.append((
                self.pc_base + s * 4, cls,
                tuple(delta for delta, _ in refs),
                tuple(off for _, off in refs),
                max((delta for delta, _ in refs), default=0),
                kind, slot.pattern, cls == _LOAD, bias, period,
            ))
        return plan

    def _generate(self, seed: int) -> Iterator[StaticUop]:
        plan = self._compile()
        rng = random.Random(seed)
        nslots = len(plan)
        pc_base = self.pc_base
        engines: Dict[str, AddressPattern] = {
            pid: spec.build() for pid, spec in self.patterns.items()
        }
        # Cyclic phase schedule: segment k of pass p starts at a known
        # iteration; on entry its overrides get fresh (possibly
        # base-drifted) engines and the previous segment's overrides
        # revert to the base patterns.
        phases = self.phases
        phase_k = -1
        pass_num = 0
        next_switch_t = 0
        overridden: set = set()
        # Dynamic state threaded across iterations:
        last_load_by_pattern: Dict[str, int] = {}
        last_load_idx = -1
        t = 0
        while True:
            if phases and t == next_switch_t:
                phase_k += 1
                if phase_k == len(phases):
                    phase_k = 0
                    pass_num += 1
                phase = phases[phase_k]
                next_switch_t = t + phase.duration
                now = {pid for pid, _ in phase.patterns}
                for pid in overridden - now:
                    engines[pid] = self.patterns[pid].build()
                for pid, pspec in phase.patterns:
                    engines[pid] = _shift_base(
                        pspec, pass_num * phase.drift).build()
                overridden = now
            idx = base_idx = t * nslots
            for (pc, cls, deltas, offs, steady, kind, pid, is_load, bias,
                 period) in plan:
                if t >= steady:
                    srcs = [base_idx + off for off in offs]
                else:  # early iterations: producers before the trace start
                    srcs = [base_idx + off for delta, off in zip(deltas, offs)
                            if t >= delta]
                addr = NO_ADDR
                taken = False
                target = 0
                if kind == _MEM:
                    engine = engines[pid]
                    addr = engine.next_addr(rng)
                    if engine.dependent:
                        prev = last_load_by_pattern.get(pid, -1)
                        if prev >= 0:
                            srcs.append(prev)
                    if is_load:
                        last_load_by_pattern[pid] = idx
                        last_load_idx = idx
                elif kind != _PLAIN:
                    if kind == _LOOP:
                        taken = (t % period) != period - 1
                    else:
                        taken = rng.random() < bias
                        if kind == _DATA and last_load_idx >= 0:
                            srcs.append(last_load_idx)
                    target = pc_base if taken else pc + 4
                yield StaticUop(idx, pc, cls, tuple(srcs), addr, taken, target)
                idx += 1
            t += 1


def make_body(
    rng: random.Random,
    n_slots: int = 64,
    load_frac: float = 0.22,
    store_frac: float = 0.08,
    branch_frac: float = 0.12,
    fp_frac: float = 0.0,
    nop_frac: float = 0.01,
    chain: float = 0.3,
    hard_branch_frac: float = 0.0,
    load_consume: float = 0.35,
    data_bias: float = 0.5,
    pattern_weights: Optional[Dict[str, float]] = None,
) -> Tuple[SlotSpec, ...]:
    """Build a randomised loop body with the requested characteristics.

    Args:
        rng: seeded RNG (body structure is deterministic given the seed).
        n_slots: static instructions per loop iteration.
        load_frac/store_frac/branch_frac/fp_frac/nop_frac: class mix; the
            remainder are integer ALU ops.
        chain: probability an ALU op extends the most recent dependence
            chain instead of reading a distant producer — higher values
            mean deeper chains and lower ILP (lbm-like IQ pressure).
        hard_branch_frac: fraction of branches that are data-dependent
            noise (mcf/gcc-like mispredicts in the miss shadow).
        load_consume: probability an ALU/FP op reads the latest load's
            value. This controls what fraction of the window becomes
            (transitively) miss-dependent — the knob that decides whether
            a blocked LLC miss turns into a full-ROB stall (independent
            work drains, the ROB fills) or an IQ-full stall (dependent
            work piles up in the issue queue first).
        data_bias: taken-probability of the data-dependent noise
            branches. ``hard_branch_frac`` quantises to whole slots
            (steps of ~1/n_branches); ``data_bias`` is the *continuous*
            branch-miss dial the auto-tuner searches — the predictor
            learns the bias direction, so each hard branch mispredicts
            at roughly ``min(data_bias, 1-data_bias)``.
        pattern_weights: pattern-id → weight; each memory slot is assigned
            a pattern id drawn from this distribution (default: all "main").
    """
    if pattern_weights is None:
        pattern_weights = {"main": 1.0}
    pattern_ids = list(pattern_weights)
    weights = [pattern_weights[p] for p in pattern_ids]

    def pick_pattern() -> str:
        return rng.choices(pattern_ids, weights=weights)[0]

    slots: List[SlotSpec] = []
    #: earlier slots producing register values, split so that address
    #: computation can stay independent of loaded data
    alu_producers: List[int] = []   # int ALU results (never loads)
    load_producers: List[int] = []  # load results
    fp_producers: List[int] = []

    def pick_producer(pool: List[int], s: int,
                      may_consume_load: bool = False
                      ) -> Tuple[Tuple[int, int], ...]:
        """One or two producers; same iteration when possible, else prior."""
        picks: List[Tuple[int, int]] = []
        if may_consume_load and load_producers and rng.random() < load_consume:
            prod = load_producers[-1]
            picks.append((0, prod) if prod < s else (1, prod))
        n = 1 if rng.random() < 0.6 else 2
        while len(picks) < n and pool:
            if rng.random() < chain:
                prod = pool[-1]
            else:
                prod = pool[rng.randrange(len(pool))]
            # A slot can only read same-iteration values produced earlier.
            picks.append((0, prod) if prod < s else (1, prod))
        return tuple(picks)

    n_loads = max(1, round(n_slots * load_frac))
    n_stores = round(n_slots * store_frac)
    n_branches = max(1, round(n_slots * branch_frac))
    n_fp = round(n_slots * fp_frac)
    n_nops = round(n_slots * nop_frac)
    classes: List[int] = (
        [int(UopClass.LOAD)] * n_loads
        + [int(UopClass.STORE)] * n_stores
        + [int(UopClass.BRANCH)] * (n_branches - 1)
        + [int(UopClass.NOP)] * n_nops
    )
    # Divides are rare in real code (~0.5%); one every ~25 FP / ~50 int ops
    # keeps the single non-pipelined divider from dominating runtime.
    fp_classes = ([UopClass.FP_ADD] * 14 + [UopClass.FP_MUL] * 10
                  + [UopClass.FP_DIV])
    for i in range(n_fp):
        classes.append(int(fp_classes[i % len(fp_classes)]))
    # Dest-less compares/tests keep integer dest density ≈ 62-66% of the
    # window, so the 192-entry ROB fills *before* the 136 free renaming
    # registers run out — PRE's premise that free registers exist at a
    # full-window stall (otherwise lean runahead cannot allocate slices).
    int_classes = [UopClass.INT_ADD] * 24 + [UopClass.INT_CMP] * 16 \
        + [UopClass.INT_MUL] * 9 + [UopClass.INT_DIV]
    i = 0
    while len(classes) < n_slots - 1:
        classes.append(int(int_classes[i % len(int_classes)]))
        i += 1
    classes = classes[: n_slots - 1]
    rng.shuffle(classes)

    n_hard = round(n_branches * hard_branch_frac)
    branch_specs: List[BranchSpec] = [
        BranchSpec(kind="data", bias=data_bias) for _ in range(n_hard)
    ]
    while len(branch_specs) < n_branches - 1:
        branch_specs.append(BranchSpec(kind="biased", bias=0.9))
    rng.shuffle(branch_specs)
    branch_iter = iter(branch_specs)

    for s, cls in enumerate(classes):
        if cls == UopClass.LOAD:
            # Address generation reads ALU results only: streaming/strided
            # loads issue independently of earlier loads' data (pointer
            # chasing adds its data dependence dynamically, per pattern).
            slots.append(
                SlotSpec(cls=cls, srcs=pick_producer(alu_producers, s)[:1],
                         pattern=pick_pattern())
            )
            load_producers.append(s)
        elif cls == UopClass.STORE:
            slots.append(
                SlotSpec(cls=cls,
                         srcs=pick_producer(alu_producers, s,
                                            may_consume_load=True),
                         pattern=pick_pattern())
            )
        elif cls == UopClass.BRANCH:
            slots.append(SlotSpec(cls=cls, srcs=(), branch=next(branch_iter)))
        elif cls == UopClass.NOP:
            slots.append(SlotSpec(cls=cls))
        elif UopClass(cls).is_fp:
            slots.append(SlotSpec(cls=cls,
                                  srcs=pick_producer(fp_producers, s,
                                                     may_consume_load=True)))
            fp_producers.append(s)
        elif cls == UopClass.INT_CMP:
            slots.append(SlotSpec(cls=cls,
                                  srcs=pick_producer(alu_producers, s,
                                                     may_consume_load=True)))
        else:
            slots.append(SlotSpec(cls=cls,
                                  srcs=pick_producer(alu_producers, s,
                                                     may_consume_load=True)))
            alu_producers.append(s)
    # Loop back-edge: a highly predictable taken branch closes the body.
    slots.append(SlotSpec(cls=int(UopClass.BRANCH), srcs=(),
                          branch=BranchSpec(kind="loop", period=256)))
    return tuple(slots)
