"""Set-associative, tag-only cache model with LRU replacement.

Timing lives in the hierarchy; this class tracks contents (hit/miss,
insertion, eviction, dirty lines) only. Each set is a small list with the
MRU tag at the end — associativities are ≤ 16, so list operations beat
fancier structures in CPython.
"""

from typing import Dict, List, Optional, Tuple

from repro.common.params import CacheParams


class Cache:
    """One cache level.

    Args:
        params: geometry and latency.
        name: level name used in results ("l1", "l2", "l3").
    """

    def __init__(self, params: CacheParams, name: str = "cache"):
        if params.num_sets < 1:
            raise ValueError(f"{name}: size/assoc/line_size give zero sets")
        if params.num_sets & (params.num_sets - 1):
            raise ValueError(f"{name}: number of sets must be a power of two")
        self.params = params
        self.name = name
        self._set_mask = params.num_sets - 1
        self._line_shift = params.line_size.bit_length() - 1
        #: bits of the line number consumed by the set index; the tag is
        #: the remainder (shared by _index and _reconstruct, which must
        #: stay exact inverses of each other)
        self._tag_shift = params.num_sets.bit_length() - 1
        #: set index -> list of tags, MRU last
        self._sets: Dict[int, List[int]] = {}
        #: dirty lines, keyed by (set, tag)
        self._dirty: set = set()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    def _index(self, addr: int) -> Tuple[int, int]:
        line = addr >> self._line_shift
        return line & self._set_mask, line >> self._tag_shift

    def lookup(self, addr: int, update_lru: bool = True) -> bool:
        """Check presence; promotes to MRU on hit when ``update_lru``."""
        line = addr >> self._line_shift
        set_idx = line & self._set_mask
        tag = line >> self._tag_shift
        ways = self._sets.get(set_idx)
        if ways is None or tag not in ways:
            self.misses += 1
            return False
        self.hits += 1
        if update_lru and ways[-1] != tag:
            ways.remove(tag)
            ways.append(tag)
        return True

    def contains(self, addr: int) -> bool:
        """Presence check with no statistics or LRU side effects."""
        set_idx, tag = self._index(addr)
        ways = self._sets.get(set_idx)
        return ways is not None and tag in ways

    def insert(self, addr: int, dirty: bool = False
               ) -> Optional[Tuple[int, bool]]:
        """Fill a line; returns (evicted_line_address, was_dirty) or None.

        Dirty victims must be written back to the next level — the
        hierarchy propagates them (and books DRAM bandwidth for LLC
        victims).
        """
        line = addr >> self._line_shift
        set_idx = line & self._set_mask
        tag = line >> self._tag_shift
        ways = self._sets.setdefault(set_idx, [])
        victim: Optional[Tuple[int, bool]] = None
        if tag in ways:
            ways.remove(tag)
        elif len(ways) >= self.params.assoc:
            victim_tag = ways.pop(0)
            self.evictions += 1
            was_dirty = (set_idx, victim_tag) in self._dirty
            if was_dirty:
                self._dirty.discard((set_idx, victim_tag))
                self.writebacks += 1
            victim = (self._reconstruct(set_idx, victim_tag), was_dirty)
        ways.append(tag)
        if dirty:
            self._dirty.add((set_idx, tag))
        return victim

    def mark_dirty(self, addr: int) -> None:
        set_idx, tag = self._index(addr)
        ways = self._sets.get(set_idx)
        if ways is not None and tag in ways:
            self._dirty.add((set_idx, tag))

    def _reconstruct(self, set_idx: int, tag: int) -> int:
        return ((tag << self._tag_shift) | set_idx) << self._line_shift

    @property
    def accesses(self) -> int:
        return self.hits + self.misses
