"""Dirty-victim writeback propagation through the hierarchy."""

from dataclasses import replace

from repro.common.params import BASELINE
from repro.memory.hierarchy import MemoryHierarchy


def tiny_hierarchy():
    """Small caches so evictions happen quickly."""
    machine = replace(
        BASELINE,
        l1d=replace(BASELINE.l1d, size=4 * 1024, mshrs=0),
        l2=replace(BASELINE.l2, size=8 * 1024),
        l3=replace(BASELINE.l3, size=16 * 1024),
        name="tiny-mem",
    )
    return MemoryHierarchy(machine)


class TestWritebackPropagation:
    def test_dirty_l1_victim_lands_in_l2(self):
        m = tiny_hierarchy()
        t = m.access(0x5000_0000, 0, is_write=True)[0] + 1
        # Evict the dirty line from L1 with same-set fills.
        span = m.l1d.params.num_sets * 64
        for i in range(1, 10):
            t = m.access(0x5000_0000 + i * span, t)[0] + 1
        assert not m.l1d.contains(0x5000_0000)
        assert m.l2.contains(0x5000_0000)

    def test_llc_victims_reach_dram(self):
        m = tiny_hierarchy()
        t = 0
        # Write far more dirty lines than the 16KB LLC holds.
        for i in range(600):
            done, _, _ = m.access(0x5000_0000 + i * 64, t, is_write=True)
            t = done + 1
        assert m.writebacks_to_dram > 0
        # Writebacks consume DRAM accesses beyond the demand fills.
        assert m.dram.accesses > 600

    def test_clean_traffic_never_writes_back(self):
        m = tiny_hierarchy()
        t = 0
        for i in range(600):
            done, _, _ = m.access(0x5000_0000 + i * 64, t)  # reads only
            t = done + 1
        assert m.writebacks_to_dram == 0

    def test_per_level_writeback_counters(self):
        m = tiny_hierarchy()
        t = 0
        for i in range(600):
            done, _, _ = m.access(0x5000_0000 + i * 64, t, is_write=True)
            t = done + 1
        assert m.writebacks_to_l2 > 0
        assert m.writebacks_to_l3 > 0
        assert m.writebacks_to_dram > 0

    def test_dram_traffic_split_by_kind(self):
        """The controller attributes every request to demand, writeback
        or prefetch — the sum must equal total accesses."""
        m = tiny_hierarchy()
        t = 0
        for i in range(600):
            done, _, _ = m.access(0x5000_0000 + i * 64, t, is_write=True)
            t = done + 1
        d = m.dram
        assert d.demand_requests > 0
        assert d.writeback_requests == m.writebacks_to_dram
        assert (d.demand_requests + d.writeback_requests
                + d.prefetch_requests) == d.accesses
