"""Branch target buffer.

Direct-mapped, tag-checked. A taken branch whose target is absent from the
BTB costs a front-end redirect exactly like a direction mispredict (the
fetch unit cannot follow an unknown target). Catalog workloads are small
loops, so the BTB warms quickly — its effect shows only in the first
iterations and in very large bodies.
"""

from typing import List


class Btb:
    #: attributes holding flat lists of ints, which a checkpoint restore
    #: copies by slice (see ``Checkpoint.restore_into``)
    flat_lists = ("_tags", "_targets")

    def __init__(self, entries: int = 4096):
        if entries & (entries - 1):
            raise ValueError("BTB entries must be a power of two")
        self._mask = entries - 1
        self._tags: List[int] = [-1] * entries
        self._targets: List[int] = [0] * entries
        self.hits = 0
        self.misses = 0

    def lookup(self, pc: int) -> int:
        """Return the predicted target, or -1 on a BTB miss."""
        idx = pc & self._mask
        if self._tags[idx] == pc:
            self.hits += 1
            return self._targets[idx]
        self.misses += 1
        return -1

    def update(self, pc: int, target: int) -> None:
        idx = pc & self._mask
        self._tags[idx] = pc
        self._targets[idx] = target
