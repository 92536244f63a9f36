"""Memory-hierarchy substrate: caches, DRAM and prefetching."""

from repro.memory.cache import Cache
from repro.memory.dram import (
    DRAM_PRESETS,
    Dram,
    DramController,
    DramProtocol,
    dram_preset,
)
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.prefetcher import StridePrefetcher

__all__ = [
    "Cache",
    "DRAM_PRESETS",
    "Dram",
    "DramController",
    "DramProtocol",
    "MemoryHierarchy",
    "StridePrefetcher",
    "dram_preset",
]
