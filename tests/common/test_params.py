"""Tables I, II and III must be encoded exactly as the paper specifies."""


from repro.common.params import (
    BASELINE,
    BIT_BUDGET,
    CORE1,
    CORE2,
    CORE3,
    CORE4,
    SCALED_MACHINES,
    CacheParams,
    CoreParams,
    DramParams,
    PrefetcherParams,
)


class TestTable2Baseline:
    def test_rob_size(self):
        assert BASELINE.core.rob_size == 192

    def test_issue_queue(self):
        assert BASELINE.core.iq_size == 92

    def test_load_store_queues(self):
        assert BASELINE.core.lq_size == 64
        assert BASELINE.core.sq_size == 64

    def test_width_and_depth(self):
        assert BASELINE.core.width == 4
        assert BASELINE.core.frontend_depth == 8

    def test_registers(self):
        assert BASELINE.core.int_regs == 168
        assert BASELINE.core.fp_regs == 168

    def test_sst_and_prdq(self):
        assert BASELINE.core.sst_size == 128
        assert BASELINE.core.prdq_size == 192

    def test_caches(self):
        assert BASELINE.l1i.size == 32 * 1024 and BASELINE.l1i.assoc == 4
        assert BASELINE.l1d.size == 32 * 1024 and BASELINE.l1d.assoc == 8
        assert BASELINE.l1d.latency == 4 and BASELINE.l1d.mshrs == 20
        assert BASELINE.l2.size == 256 * 1024 and BASELINE.l2.latency == 8
        assert BASELINE.l3.size == 1024 * 1024 and BASELINE.l3.assoc == 16
        assert BASELINE.l3.latency == 30

    def test_fu_latencies(self):
        fus = BASELINE.core.fu_params()
        from repro.common.enums import UopClass
        assert fus[int(UopClass.INT_ADD)].count == 3
        assert fus[int(UopClass.INT_ADD)].latency == 1
        assert fus[int(UopClass.INT_MUL)].latency == 3
        assert fus[int(UopClass.INT_DIV)].latency == 18
        assert not fus[int(UopClass.INT_DIV)].pipelined
        assert fus[int(UopClass.FP_ADD)].latency == 3
        assert fus[int(UopClass.FP_MUL)].latency == 5
        assert fus[int(UopClass.FP_DIV)].latency == 6

    def test_no_prefetcher_by_default(self):
        assert BASELINE.prefetcher is None


class TestTable1Scaling:
    def test_four_generations(self):
        robs = [m.core.rob_size for m in SCALED_MACHINES]
        assert robs == [128, 192, 224, 352]

    def test_core1(self):
        c = CORE1.core
        assert (c.iq_size, c.lq_size, c.sq_size) == (36, 48, 32)
        assert c.int_regs == c.fp_regs == 120

    def test_core4(self):
        c = CORE4.core
        assert (c.iq_size, c.lq_size, c.sq_size) == (128, 128, 72)
        assert c.int_regs == 256

    def test_baseline_is_core2(self):
        assert BASELINE.core == CORE2.core

    def test_total_bits_grow_monotonically(self):
        bits = [m.core.total_bits for m in SCALED_MACHINES]
        assert bits == sorted(bits)
        # Core-4 exposes substantially more unprotected state than Core-1
        # (the premise of Figure 4).
        assert bits[-1] / bits[0] > 1.8

    def test_core3_matches_table(self):
        c = CORE3.core
        assert (c.rob_size, c.iq_size, c.lq_size, c.sq_size) == (224, 97, 64, 60)


class TestTable3BitBudgets:
    def test_entry_bits(self):
        assert BIT_BUDGET["rob"] == 120
        assert BIT_BUDGET["iq"] == 80
        assert BIT_BUDGET["lq"] == 120
        assert BIT_BUDGET["sq"] == 184

    def test_register_bits(self):
        assert BIT_BUDGET["int_reg"] == 64
        assert BIT_BUDGET["fp_reg"] == 128

    def test_fu_widths(self):
        assert BIT_BUDGET["int_fu"] == 64
        assert BIT_BUDGET["fp_fu"] == 128

    def test_total_bits_formula(self):
        c = CoreParams()
        expected = (192 * 120 + 92 * 80 + 64 * 120 + 64 * 184
                    + 168 * 64 + 168 * 128)
        assert c.total_bits == expected


class TestStructureBits:
    def test_matches_total(self):
        bits = BASELINE.core.structure_bits
        assert sum(bits.values()) == BASELINE.core.total_bits
        assert bits["rob"] == 192 * 120
        assert bits["rf"] == 168 * 64 + 168 * 128
        assert bits["fu"] == 0  # FUs are not in the AVF denominator


class TestCacheParams:
    def test_num_sets(self):
        p = CacheParams(size=32 * 1024, assoc=8, latency=4)
        assert p.num_sets == 64

    def test_machine_with_core_replaces_name(self):
        m = BASELINE.with_core(CORE1.core, name="shrunk")
        assert m.name == "shrunk"
        assert m.core.rob_size == 128
        assert m.l3 == BASELINE.l3

    def test_with_prefetcher(self):
        m = BASELINE.with_prefetcher(PrefetcherParams(levels=("l3",)),
                                     name="pf")
        assert m.prefetcher is not None
        assert m.prefetcher.levels == ("l3",)
        assert BASELINE.prefetcher is None  # original untouched


class TestDramParams:
    def test_row_latencies(self):
        d = DramParams()
        assert d.row_hit_latency == d.controller_latency + d.t_cl
        assert d.row_miss_latency == (
            d.controller_latency + d.t_rp + d.t_rcd + d.t_cl)
        assert d.row_miss_latency > d.row_hit_latency

    def test_bank_count(self):
        d = DramParams(ranks=4, banks_per_rank=8)
        assert d.num_banks == 32

    def test_protocol_defaults_preserve_seed_model(self):
        """The new protocol knobs must default to the legacy behaviour:
        one channel, no refresh, fcfs, row-interleaved mapping."""
        d = DramParams()
        assert d.protocol == "ddr3-1600"
        assert d.channels == 1
        assert d.t_refi == 0 and d.t_rfc == 0
        assert d.scheduler == "fcfs"
        assert d.mapping == "row"

    def test_total_banks_spans_channels(self):
        d = DramParams(channels=4, ranks=1, banks_per_rank=8)
        assert d.num_banks == 8       # per channel
        assert d.total_banks == 32    # across channels

    def test_peak_bandwidth_scales_with_channels(self):
        one = DramParams(channels=1, bus_cycles_per_access=4)
        four = DramParams(channels=4, bus_cycles_per_access=4)
        assert one.peak_bandwidth == 16.0
        assert four.peak_bandwidth == 64.0

    def test_with_dram_replaces_only_dram(self):
        from repro.memory.dram import dram_preset
        m = BASELINE.with_dram(dram_preset("hbm2"), name="hbm")
        assert m.name == "hbm"
        assert m.dram.protocol == "hbm2"
        assert m.core == BASELINE.core
        assert BASELINE.dram.protocol == "ddr3-1600"  # original untouched

    def test_machines_hashable(self):
        {BASELINE: 1, CORE1: 2}  # usable as cache keys
