"""PRE machinery: Stalling Slice Table and PRDQ."""

from repro.core.prdq import Prdq
from repro.core.regfile import RegisterFiles
from repro.core.sst import StallingSliceTable


class TestSst:
    def test_lookup_after_insert(self):
        sst = StallingSliceTable(size=4)
        assert not sst.lookup(0x400)
        sst.insert(0x400)
        assert sst.lookup(0x400)
        assert 0x400 in sst

    def test_lru_eviction(self):
        sst = StallingSliceTable(size=2)
        sst.insert(0x1)
        sst.insert(0x2)
        sst.lookup(0x1)      # promote
        sst.insert(0x3)      # evicts 0x2
        assert 0x1 in sst and 0x3 in sst and 0x2 not in sst

    def test_reinsert_promotes(self):
        sst = StallingSliceTable(size=2)
        sst.insert(0x1)
        sst.insert(0x2)
        sst.insert(0x1)      # promote, no growth
        sst.insert(0x3)      # evicts 0x2
        assert 0x1 in sst and 0x2 not in sst
        assert len(sst) == 2

    def test_train_slice(self):
        sst = StallingSliceTable(size=8)
        sst.train_slice([0x10, 0x20, 0x30])
        assert all(pc in sst for pc in (0x10, 0x20, 0x30))

    def test_hit_stats(self):
        sst = StallingSliceTable(size=4)
        sst.insert(0x1)
        sst.lookup(0x1)
        sst.lookup(0x2)
        assert sst.hits == 1 and sst.lookups == 2


class TestPrdq:
    def regs(self):
        return RegisterFiles(40, 40, arch_regs=32)

    def test_allocate_borrows_register(self):
        r = self.regs()
        q = Prdq(size=4, regs=r)
        assert q.try_allocate(fp=False, release_cycle=10)
        assert r.int_free == 7 and r.runahead_int == 1
        assert len(q) == 1 and q.allocations == 1

    def test_drain_releases_in_time_order(self):
        r = self.regs()
        q = Prdq(size=8, regs=r)
        # Out-of-order release cycles: a FIFO would head-of-line block.
        assert q.try_allocate(fp=False, release_cycle=100)
        assert q.try_allocate(fp=False, release_cycle=5)
        assert q.try_allocate(fp=True, release_cycle=6)
        assert q.drain(10) == 2
        assert r.int_free == 7 and r.fp_free == 8
        assert q.drain(100) == 1
        assert r.int_free == 8

    def test_capacity(self):
        r = self.regs()
        q = Prdq(size=2, regs=r)
        assert q.try_allocate(fp=False, release_cycle=1)
        assert q.try_allocate(fp=True, release_cycle=2)
        # Full queue: refused although both classes have free registers,
        # and nothing is borrowed or counted.
        assert not q.try_allocate(fp=False, release_cycle=3)
        assert not q.try_allocate(fp=True, release_cycle=3)
        assert len(q) == 2 and q.allocations == 2
        assert r.int_free == 7 and r.fp_free == 7
        assert r.runahead_int == 1 and r.runahead_fp == 1

    def test_can_allocate_requires_free_register(self):
        r = RegisterFiles(33, 40, arch_regs=32)
        q = Prdq(size=8, regs=r)
        assert q.try_allocate(fp=False, release_cycle=1)
        # Int register file empty: refused with nothing changed.
        assert not q.try_allocate(fp=False, release_cycle=2)
        assert len(q) == 1 and q.allocations == 1
        assert r.int_free == 0 and r.runahead_int == 1
        assert q.try_allocate(fp=True, release_cycle=2)

    def test_flush_returns_everything(self):
        r = self.regs()
        q = Prdq(size=8, regs=r)
        for i in range(5):
            assert q.try_allocate(fp=bool(i % 2), release_cycle=1000 + i)
        q.flush()
        assert len(q) == 0
        assert r.int_free == 8 and r.fp_free == 8

    def test_next_release(self):
        r = self.regs()
        q = Prdq(size=8, regs=r)
        assert q.next_release() is None
        assert q.try_allocate(fp=False, release_cycle=42)
        assert q.try_allocate(fp=False, release_cycle=7)
        assert q.next_release() == 7
