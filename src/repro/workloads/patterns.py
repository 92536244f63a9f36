"""Address-pattern engines for synthetic workloads.

Each engine produces a deterministic stream of byte addresses given a
seeded :class:`random.Random`. Engines model the canonical SPEC memory
behaviours the paper's benchmarks exhibit:

- :class:`StreamPattern` — sequential unit- or large-stride streams
  (libquantum, lbm, fotonik): independent misses, high MLP potential,
  stride-prefetchable when the stride is regular.
- :class:`PointerChasePattern` — dependent loads walking a randomised
  linked structure (mcf, omnetpp): one outstanding miss at a time,
  prefetch-hostile.
- :class:`RandomPattern` — uniform random over a working set (gcc-, astar-
  like irregular accesses).
- :class:`MixPattern` — weighted combination, with a ``hot`` fraction
  directed at a cache-resident region to dial in the target MPKI.
"""

import random
from dataclasses import dataclass, field
from typing import List, Tuple

LINE = 64


class AddressPattern:
    """Base class: a stateful deterministic address stream."""

    #: True when consecutive addresses are data-dependent (the next address
    #: is computed from the previous load's value, as in pointer chasing).
    dependent = False

    def next_addr(self, rng: random.Random) -> int:
        raise NotImplementedError


class StreamPattern(AddressPattern):
    """Round-robin sequential streams over a large region.

    Args:
        working_set: bytes per stream region.
        streams: number of concurrent streams (round-robin).
        stride: bytes between consecutive accesses of one stream.
        base: base address of the region.
    """

    dependent = False

    def __init__(self, working_set: int, streams: int = 4, stride: int = LINE,
                 base: int = 0x1000_0000):
        if streams < 1:
            raise ValueError("streams must be >= 1")
        self.working_set = working_set
        self.streams = streams
        self.stride = stride
        self.base = base
        self._cursors = [base + i * working_set for i in range(streams)]
        self._which = 0

    def next_addr(self, rng: random.Random) -> int:
        i = self._which
        self._which = (i + 1) % self.streams
        addr = self._cursors[i]
        nxt = addr + self.stride
        region_start = self.base + i * self.working_set
        if nxt >= region_start + self.working_set:
            nxt = region_start
        self._cursors[i] = nxt
        return addr


class PointerChasePattern(AddressPattern):
    """Random walk over a large region; each address depends on the last.

    The walk is a pseudo-random permutation step: the next node is drawn
    uniformly from the region, which defeats both caches (when the region
    exceeds the LLC) and stride prefetchers, and — because ``dependent`` is
    True — the workload generator makes the next chase load's address
    *data-dependent* on the previous chase load.
    """

    dependent = True

    def __init__(self, working_set: int, node_size: int = LINE,
                 base: int = 0x4000_0000):
        self.working_set = working_set
        self.node_size = node_size
        self.base = base
        self._nodes = max(1, working_set // node_size)

    def next_addr(self, rng: random.Random) -> int:
        return self.base + rng.randrange(self._nodes) * self.node_size


class RandomPattern(AddressPattern):
    """Uniform random line-granular accesses over a working set."""

    dependent = False

    def __init__(self, working_set: int, base: int = 0x7000_0000):
        self.working_set = working_set
        self.base = base
        self._lines = max(1, working_set // LINE)

    def next_addr(self, rng: random.Random) -> int:
        return self.base + rng.randrange(self._lines) * LINE


class HotPattern(AddressPattern):
    """Small cache-resident region (stack/locals): (almost) always hits."""

    dependent = False

    def __init__(self, working_set: int = 16 * 1024, base: int = 0x0001_0000):
        self.working_set = working_set
        self.base = base
        self._lines = max(1, working_set // LINE)

    def next_addr(self, rng: random.Random) -> int:
        return self.base + rng.randrange(self._lines) * LINE


class MixPattern(AddressPattern):
    """Weighted mixture of sub-patterns.

    ``dependent`` reflects the pattern chosen for the *current* address, so
    the generator queries :attr:`last_dependent` after each draw.
    """

    def __init__(self, parts: List[Tuple[float, AddressPattern]]):
        if not parts:
            raise ValueError("MixPattern needs at least one part")
        total = sum(w for w, _ in parts)
        if total <= 0:
            raise ValueError("MixPattern weights must sum to > 0")
        self._parts = [(w / total, p) for w, p in parts]
        self.last_dependent = False

    @property
    def dependent(self) -> bool:  # type: ignore[override]
        return self.last_dependent

    def next_addr(self, rng: random.Random) -> int:
        x = rng.random()
        acc = 0.0
        part = self._parts[-1][1]
        for w, p in self._parts:
            acc += w
            if x < acc:
                part = p
                break
        self.last_dependent = part.dependent
        return part.next_addr(rng)


@dataclass(frozen=True)
class PatternSpec:
    """Declarative, hashable description of an address pattern.

    ``kind`` is one of ``stream``, ``chase``, ``random``, ``hot`` or
    ``mix``; ``mix_parts`` holds (weight, PatternSpec) pairs for mixes.
    """

    kind: str
    working_set: int = 16 * 1024 * 1024
    streams: int = 4
    stride: int = LINE
    base: int = 0x1000_0000
    mix_parts: Tuple[Tuple[float, "PatternSpec"], ...] = field(default=())
    #: steady-state cache residency hint: "" (none), "l1" or "l3". Regions
    #: whose reuse distance keeps them resident take hundreds of thousands
    #: of instructions to warm naturally; the simulator preloads them
    #: instead (see MemoryHierarchy.preload), which is equivalent to a
    #: long warmup at a fraction of the cost.
    resident: str = ""

    def build(self) -> AddressPattern:
        return build_pattern(self)


def build_pattern(spec: PatternSpec) -> AddressPattern:
    """Instantiate a fresh stateful engine from a :class:`PatternSpec`."""
    if spec.kind == "stream":
        return StreamPattern(spec.working_set, spec.streams, spec.stride, spec.base)
    if spec.kind == "chase":
        return PointerChasePattern(spec.working_set, base=spec.base)
    if spec.kind == "random":
        return RandomPattern(spec.working_set, base=spec.base)
    if spec.kind == "hot":
        return HotPattern(spec.working_set, base=spec.base)
    if spec.kind == "mix":
        return MixPattern([(w, build_pattern(s)) for w, s in spec.mix_parts])
    raise ValueError(f"unknown pattern kind: {spec.kind!r}")


def hot_mix(cold: PatternSpec, hot_fraction: float,
            hot_ws: int = 16 * 1024,
            warm_fraction: float = 0.16,
            warm_ws: int = 448 * 1024) -> PatternSpec:
    """Three-tier mixture: hot (L1), warm (L2/L3) and cold accesses.

    ``hot_fraction`` is the MPKI dial: raising it lowers the miss rate
    without changing the cold pattern's character. ``warm_fraction`` is
    carved out of the hot share and directed at an L3-resident region
    (larger than the private L2, far smaller than the LLC's
    eviction-cycling footprint) —
    those loads stall the head for tens of cycles without being LLC misses,
    which is where the paper's ~30% of *non*-miss-shadow vulnerable state
    comes from (Figure 5). The warm region must stay small enough that its
    LRU retouch interval beats the cold stream's eviction cycling, or it
    degenerates into extra LLC misses.
    """
    if not 0.0 <= hot_fraction < 1.0:
        raise ValueError("hot_fraction must be in [0, 1)")
    warm = min(warm_fraction, hot_fraction)
    # Region layout is disjoint by construction: hot at 64 KB, warm at
    # 128 MB, streams at 256 MB+, chase at 1 GB, cold randoms at ~1.8 GB.
    return PatternSpec(
        kind="mix",
        mix_parts=(
            (hot_fraction - warm, PatternSpec(kind="hot", working_set=hot_ws,
                                              base=0x0001_0000,
                                              resident="l1")),
            (warm, PatternSpec(kind="random", working_set=warm_ws,
                               base=0x0800_0000, resident="l3")),
            (1.0 - hot_fraction, cold),
        ),
    )
