"""Composed memory hierarchy: levels, MSHRs, merging, preload, prefetch."""

import pytest

from repro.common.params import BASELINE, PrefetcherParams
from repro.memory.hierarchy import MemoryHierarchy


def hierarchy(machine=BASELINE):
    return MemoryHierarchy(machine)


class TestLevels:
    def test_cold_access_goes_to_dram(self):
        m = hierarchy()
        done, level, _ = m.access(0x5000_0000, 0)
        assert level == "dram"
        assert done > 40

    def test_second_access_hits_l1(self):
        m = hierarchy()
        first_done, _, _ = m.access(0x5000_0000, 0)
        done, level, _ = m.access(0x5000_0000, first_done + 1)
        assert level == "l1"
        assert done == first_done + 1 + BASELINE.l1d.latency

    def test_l1_eviction_leaves_l2(self):
        m = hierarchy()
        base = 0x5000_0000
        done = m.access(base, 0)[0]
        # Fill enough same-set lines to evict base from L1 (8-way).
        l1_span = BASELINE.l1d.num_sets * 64
        t = done + 1
        for i in range(1, 12):
            t = max(t, m.access(base + i * l1_span, t)[0]) + 1
        _, level, _ = m.access(base, t + 1)
        assert level in ("l2", "l3")

    def test_probe_level_no_side_effects(self):
        m = hierarchy()
        assert m.probe_level(0x5000_0000) == "dram"
        m.access(0x5000_0000, 0)
        assert m.probe_level(0x5000_0000) in ("l1", "dram")
        assert m.demand_accesses == 1


class TestMshr:
    def test_limit_enforced(self):
        m = hierarchy()
        rejected = 0
        for i in range(25):
            if m.access(0x5000_0000 + i * 64, 0) is None:
                rejected += 1
        assert rejected == 25 - BASELINE.l1d.mshrs
        assert m.rejected_mshr_full == rejected

    def test_mshrs_free_after_completion(self):
        m = hierarchy()
        results = [m.access(0x5000_0000 + i * 64, 0) for i in range(20)]
        last_done = max(done for done, _, _ in results)
        assert m.access(0x6000_0000, last_done + 1) is not None

    def test_merge_does_not_consume_mshr(self):
        m = hierarchy()
        m.access(0x5000_0000, 0)
        in_use = m.mshr_in_use(1)
        _, _, merged = m.access(0x5000_0010, 1)  # same line: merge
        assert merged
        assert m.mshr_in_use(1) == in_use

    def test_merge_returns_original_timing(self):
        m = hierarchy()
        first_done, _, _ = m.access(0x5000_0000, 0)
        done, level, merged = m.access(0x5000_0000, 5)
        assert merged
        assert done == first_done
        assert level == "dram"


class TestPreload:
    def test_l3_preload(self):
        m = hierarchy()
        m.preload(0x0800_0000, 64 * 1024, "l3")
        _, level, _ = m.access(0x0800_0000, 0)
        assert level == "l3"

    def test_l1_preload(self):
        m = hierarchy()
        m.preload(0x0001_0000, 16 * 1024, "l1")
        _, level, _ = m.access(0x0001_0000, 0)
        assert level == "l1"

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            hierarchy().preload(0, 64, "l2")


class TestPrefetcher:
    def _machine(self, levels):
        return BASELINE.with_prefetcher(
            PrefetcherParams(levels=levels), name="pf")

    def test_l3_prefetch_after_stride_training(self):
        m = hierarchy(self._machine(("l3",)))
        t = 0
        for i in range(6):
            done, _, _ = m.access(0x5000_0000 + i * 64, t, pc=0x400)
            t = done + 1
        assert m.prefetches_issued > 0

    def test_prefetched_line_serviced_early(self):
        m = hierarchy(self._machine(("l1", "l2", "l3")))
        t = 0
        for i in range(8):
            done, _, _ = m.access(0x5000_0000 + i * 64, t, pc=0x400)
            t = done + 1
        # Far-ahead line should now be covered (outstanding or resident).
        probe = m.probe_level(0x5000_0000 + 11 * 64)
        cold = m.probe_level(0x6000_0000)
        assert cold == "dram"
        assert m.prefetches_issued > 0

    def test_no_prefetcher_attribute_without_config(self):
        assert hierarchy().prefetcher is None

    def test_l3_promotion_recorded_as_l3_not_dram(self):
        """A prefetch that promotes an L3-resident line must record the
        fill as level "l3": a demand access merging with it is an L3
        hit, not an LLC miss — and no DRAM request is made."""
        m = hierarchy(self._machine(("l1", "l2", "l3")))
        m.preload(0x5000_0000, 64 * 1024, "l3")
        t = 0
        seen = set()
        for i in range(8):
            done, _, _ = m.access(0x5000_0000 + i * 64, t, pc=0x400)
            seen.update(lvl for _, lvl in m._outstanding.values())
            t = done + 1
        assert m.prefetches_issued > 0
        assert m.dram.prefetch_requests == 0
        assert seen and "dram" not in seen

    def test_prefetch_queue_size_comes_from_params(self):
        deep = hierarchy(BASELINE.with_prefetcher(
            PrefetcherParams(levels=("l3",)), name="pf"))
        shallow = hierarchy(BASELINE.with_prefetcher(
            PrefetcherParams(levels=("l3",), queue=1), name="pf1"))
        assert deep._pf_queue == PrefetcherParams.queue == 16
        assert shallow._pf_queue == 1

    def test_shallow_queue_throttles_prefetches(self):
        def issued(queue):
            m = hierarchy(BASELINE.with_prefetcher(
                PrefetcherParams(levels=("l3",), queue=queue), name="pf"))
            # Many streams training at once: every stream wants a slot.
            for i in range(6):
                for s in range(8):
                    m.access(0x5000_0000 + s * 0x10_0000 + i * 64,
                             i, pc=0x400 + s * 4)
            return m.prefetches_issued

        assert issued(1) < issued(16)
