"""Monte-Carlo fault injection over recorded ACE intervals.

The paper's footnote 1 notes that an "elaborate fault injection campaign"
is the classical alternative to ACE analysis. This module implements that
campaign over the simulator's recorded vulnerability intervals: strike a
uniformly random (structure bit, cycle) and ask whether the struck bit was
architecturally required at that instant — i.e. whether it falls inside a
recorded ACE interval of that structure.

Because strikes sample the same (bits × time) space the AVF equation
normalises over, the empirical hit rate converges to the analytical
AVF = ABC / (N × T) by construction. The injector is a usable
fault-injection API and a check of the AVF *arithmetic* over the
recorded intervals (exercised by the test suite and the
``fault_injection`` example). It is not an independent check of the
accounting: the intervals it samples are the accountant's own, so a
bit the accountant misclassifies as ACE or un-ACE is misclassified here
too.

Structure-level resolution: a strike lands in structure *s* with
probability bits(s)/N and hits ACE state with probability
live_ACE_bits(s, cycle)/bits(s); entry-level placement within a structure
is uniform, matching the paper's assumption that any occupied entry's bits
are equally vulnerable.
"""

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.common.params import BIT_BUDGET
from repro.reliability.ace import STRUCTURES


def structure_bits(core_params) -> Dict[str, int]:
    """Unprotected bits per structure for a CoreParams (FUs excluded from
    the AVF denominator in the paper's N; we follow that)."""
    return {
        "rob": core_params.rob_size * BIT_BUDGET["rob"],
        "iq": core_params.iq_size * BIT_BUDGET["iq"],
        "lq": core_params.lq_size * BIT_BUDGET["lq"],
        "sq": core_params.sq_size * BIT_BUDGET["sq"],
        "rf": (core_params.int_regs * BIT_BUDGET["int_reg"]
               + core_params.fp_regs * BIT_BUDGET["fp_reg"]),
        "fu": 0,
    }


class _LiveBits:
    """live(c) = Σ bits of intervals covering cycle c, via prefix sums."""

    def __init__(self, intervals: Iterable[Tuple[int, int, int]]):
        deltas: Dict[int, int] = {}
        for start, end, bits in intervals:
            deltas[start] = deltas.get(start, 0) + bits
            deltas[end] = deltas.get(end, 0) - bits
        self.cycles: List[int] = sorted(deltas)
        self.levels: List[int] = []
        acc = 0
        for c in self.cycles:
            acc += deltas[c]
            self.levels.append(acc)

    def live(self, cycle: int) -> int:
        idx = bisect_right(self.cycles, cycle) - 1
        if idx < 0:
            return 0
        return self.levels[idx]


@dataclass
class InjectionResult:
    """Outcome of one fault-injection campaign."""

    trials: int
    hits: int
    #: struck-and-ACE counts per structure
    hits_by_structure: Dict[str, int] = field(default_factory=dict)
    trials_by_structure: Dict[str, int] = field(default_factory=dict)

    @property
    def empirical_avf(self) -> float:
        return self.hits / self.trials if self.trials else 0.0

    def structure_avf(self, structure: str) -> float:
        t = self.trials_by_structure.get(structure, 0)
        return self.hits_by_structure.get(structure, 0) / t if t else 0.0


class FaultInjector:
    """Samples random bit strikes against one simulation's ACE record.

    Args:
        intervals: the accountant's recorded (structure, start, end, bits)
            tuples (``OutOfOrderCore(..., record_ace_intervals=True)``).
        core_params: sizing used to weight strikes across structures.
        cycles: simulated duration T (strikes sample cycle ∈ [0, T)).
        seed: RNG seed for reproducible campaigns.
    """

    def __init__(self, intervals, core_params, cycles: int, seed: int = 1):
        if cycles <= 0:
            raise ValueError("cycles must be positive")
        self.cycles = cycles
        self.bits = structure_bits(core_params)
        self._rng = random.Random(seed)
        per_struct: Dict[str, List[Tuple[int, int, int]]] = {
            s: [] for s in STRUCTURES
        }
        for structure, start, end, bits in intervals:
            per_struct[structure].append((start, end, bits))
        self._live = {s: _LiveBits(v) for s, v in per_struct.items()}
        total = sum(self.bits.values())
        if total <= 0:
            raise ValueError("no unprotected bits to strike")
        self._weights = [(s, self.bits[s] / total) for s in STRUCTURES
                         if self.bits[s] > 0]

    def _pick_structure(self) -> str:
        x = self._rng.random()
        acc = 0.0
        for s, w in self._weights:
            acc += w
            if x < acc:
                return s
        return self._weights[-1][0]

    def strike(self) -> Tuple[str, bool]:
        """One random strike; returns (structure, was_ACE)."""
        s = self._pick_structure()
        cycle = self._rng.randrange(self.cycles)
        live = self._live[s].live(cycle)
        hit = self._rng.random() < live / self.bits[s]
        return s, hit

    def run(self, trials: int = 10_000) -> InjectionResult:
        """A campaign of ``trials`` independent strikes."""
        if trials <= 0:
            raise ValueError("trials must be positive")
        result = InjectionResult(trials=trials, hits=0)
        for _ in range(trials):
            s, hit = self.strike()
            result.trials_by_structure[s] = \
                result.trials_by_structure.get(s, 0) + 1
            if hit:
                result.hits += 1
                result.hits_by_structure[s] = \
                    result.hits_by_structure.get(s, 0) + 1
        return result
