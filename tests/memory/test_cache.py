"""Set-associative cache model."""

import pytest

from repro.common.params import CacheParams
from repro.memory.cache import Cache


def cache(size=4096, assoc=4, line=64):
    return Cache(CacheParams(size=size, assoc=assoc, latency=1,
                             line_size=line), "t")


class TestLookupInsert:
    def test_cold_miss_then_hit(self):
        c = cache()
        assert not c.lookup(0x1000)
        c.insert(0x1000)
        assert c.lookup(0x1000)

    def test_same_line_aliases(self):
        c = cache()
        c.insert(0x1000)
        assert c.lookup(0x1004)
        assert c.lookup(0x103F)
        assert not c.lookup(0x1040)

    def test_contains_no_side_effects(self):
        c = cache()
        c.insert(0x1000)
        h, m = c.hits, c.misses
        assert c.contains(0x1000)
        assert not c.contains(0x2000)
        assert (c.hits, c.misses) == (h, m)

    def test_stats(self):
        c = cache()
        c.lookup(0x0)
        c.insert(0x0)
        c.lookup(0x0)
        assert c.misses == 1 and c.hits == 1
        assert c.accesses == 2


class TestLru:
    def test_eviction_order(self):
        c = cache(size=256, assoc=4, line=64)  # 1 set, 4 ways
        for i in range(4):
            c.insert(i * 64 * 1)  # all map to set 0? line i -> set i%1=0
        # Touch line 0 to promote it, then insert a 5th line.
        c.lookup(0)
        c.insert(4 * 64)
        assert c.contains(0)          # promoted, survives
        assert not c.contains(64)     # LRU victim
        assert c.evictions == 1

    def test_victim_address_reconstruction(self):
        c = cache(size=256, assoc=1, line=64)  # 1 set, direct... 4 sets
        # size 256, assoc 1, line 64 -> 4 sets
        c.insert(0x0)
        victim = c.insert(0x0 + 4 * 64)  # same set 0
        assert victim == (0x0, False)

    def test_reinsert_not_eviction(self):
        c = cache(size=256, assoc=4, line=64)
        c.insert(0x0)
        assert c.insert(0x0) is None
        assert c.evictions == 0


class TestDirty:
    def test_dirty_writeback_counted(self):
        c = cache(size=256, assoc=1, line=64)
        c.insert(0x0, dirty=True)
        c.insert(4 * 64)  # evicts set-0 line
        assert c.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        c = cache(size=256, assoc=1, line=64)
        c.insert(0x0)
        c.insert(4 * 64)
        assert c.writebacks == 0

    def test_mark_dirty_later(self):
        c = cache(size=256, assoc=1, line=64)
        c.insert(0x0)
        c.mark_dirty(0x0)
        c.insert(4 * 64)
        assert c.writebacks == 1


class TestValidation:
    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ValueError):
            Cache(CacheParams(size=3 * 64, assoc=1, latency=1), "bad")

    def test_zero_sets_rejected(self):
        with pytest.raises(ValueError):
            Cache(CacheParams(size=64, assoc=4, latency=1), "bad")


class TestIndexReconstruct:
    """_reconstruct must invert _index for every geometry (the victim
    address handed back to the hierarchy is rebuilt from (set, tag))."""

    GEOMETRIES = (
        (4096, 4, 64),    # typical set-associative
        (4096, 1, 64),    # direct-mapped (single way)
        (256, 4, 64),     # num_sets == 1 (fully associative, tag shift 0)
        (64, 1, 64),      # one set, one way
        (32768, 8, 64),   # L1-like
        (2048, 2, 128),   # wider lines
    )

    def test_reconstruct_inverts_index(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        geometries = self.GEOMETRIES

        @settings(max_examples=300, deadline=None)
        @given(addr=st.integers(min_value=0, max_value=(1 << 44) - 1),
               geo=st.sampled_from(geometries))
        def check(addr, geo):
            size, assoc, line = geo
            c = cache(size=size, assoc=assoc, line=line)
            set_idx, tag = c._index(addr)
            assert 0 <= set_idx < c.params.num_sets
            recon = c._reconstruct(set_idx, tag)
            assert recon == addr & ~(line - 1)  # line-aligned round trip
            assert c._index(recon) == (set_idx, tag)

        check()

    def test_single_set_uses_whole_line_as_tag(self):
        c = cache(size=256, assoc=4, line=64)  # num_sets == 1
        assert c.params.num_sets == 1
        set_idx, tag = c._index(0xDEADBEEF00)
        assert set_idx == 0
        assert tag == 0xDEADBEEF00 >> 6

    def test_victim_reconstruction_direct_mapped(self):
        c = cache(size=128, assoc=1, line=64)  # 2 sets, 1 way
        c.insert(0x0)
        victim = c.insert(0x80)  # same set (set 0), evicts 0x0
        assert victim == (0x0, False)
