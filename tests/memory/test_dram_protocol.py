"""Protocol presets, address mapping, FR-FCFS, refresh, and checkpointing."""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.common.params import BASELINE, DramParams
from repro.checkpoint import warm_checkpoint
from repro.memory.dram import (
    DRAM_PRESETS,
    AddressMapping,
    DramController,
    FrfcfsScheduler,
    MAPPING_POLICIES,
    PRESET_NAMES,
    dram_preset,
    make_scheduler,
)

# ------------------------------------------------------------------ presets


class TestPresets:
    def test_default_preset_is_exact_legacy_params(self):
        """ddr3-1600 must resolve to DramParams() bit-for-bit — this is
        the parameter-level face of the golden bit-identity contract."""
        assert dram_preset("ddr3-1600") == DramParams()

    def test_all_presets_resolve(self):
        for name in PRESET_NAMES:
            p = dram_preset(name)
            assert p.protocol == name
            assert p.row_hit_latency > p.controller_latency
            assert p.row_miss_latency > p.row_hit_latency
            assert p.peak_bandwidth > 0

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError):
            dram_preset("ddr5-9999")

    def test_core_cycle_conversion(self):
        proto = DRAM_PRESETS["ddr4-3200"]
        # 22 memory cycles at 1600 MHz on a 2660 MHz core.
        assert proto.core_cycles(proto.t_cl) == (22 * 2660) // 1600

    def test_refresh_mask(self):
        live = dram_preset("ddr4-3200")
        masked = dram_preset("ddr4-3200", refresh=False)
        assert live.t_refi > 0 and live.t_rfc > 0
        assert masked.t_refi == 0 and masked.t_rfc == 0
        assert masked.row_hit_latency == live.row_hit_latency

    def test_bandwidth_ordering_is_structural(self):
        bw = {n: dram_preset(n).peak_bandwidth for n in PRESET_NAMES}
        assert bw["hbm2"] > bw["ddr4-3200"] > bw["ddr3-1600"]

    def test_hbm2_is_wide_not_fast(self):
        """HBM's shape: many channels, modest per-channel bandwidth."""
        hbm = dram_preset("hbm2")
        ddr4 = dram_preset("ddr4-3200")
        assert hbm.channels > ddr4.channels
        per_chan = hbm.peak_bandwidth / hbm.channels
        assert per_chan < ddr4.peak_bandwidth / ddr4.channels

    def test_scheduler_and_mapping_pass_through(self):
        p = dram_preset("hbm2", scheduler="frfcfs", mapping="xor",
                        frfcfs_cap=64)
        assert (p.scheduler, p.mapping, p.frfcfs_cap) == ("frfcfs", "xor", 64)


# ------------------------------------------------------------------ mapping


@st.composite
def geometry(draw):
    return DramParams(
        channels=draw(st.sampled_from([1, 2, 4, 8])),
        ranks=draw(st.sampled_from([1, 2, 4])),
        banks_per_rank=draw(st.sampled_from([1, 4, 8, 16])),
        row_size=draw(st.sampled_from([1024, 2048, 4096])),
        mapping=draw(st.sampled_from(MAPPING_POLICIES)),
    )


class TestMappingProperties:
    @given(geometry(), st.integers(0, (1 << 40) - 1))
    @settings(max_examples=200, deadline=None)
    def test_unmap_inverts_map(self, params, addr):
        m = AddressMapping(params)
        assert m.unmap(*m.map(addr)) == addr - (addr % params.row_size)

    @given(geometry(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_map_inverts_unmap(self, params, data):
        m = AddressMapping(params)
        c = data.draw(st.integers(0, params.channels - 1))
        b = data.draw(st.integers(0, params.num_banks - 1))
        r = data.draw(st.integers(0, (1 << 16) - 1))
        assert m.map(m.unmap(c, b, r)) == (c, b, r)

    @given(geometry(), st.integers(0, (1 << 40) - 1))
    @settings(max_examples=100, deadline=None)
    def test_coordinates_in_range(self, params, addr):
        c, b, r = AddressMapping(params).map(addr)
        assert 0 <= c < params.channels
        assert 0 <= b < params.num_banks
        assert r >= 0

    def test_xor_spreads_row_strided_stream(self):
        """A stream striding by one full bank sweep camps on bank 0 under
        row-interleaving; xor spreads it across all banks."""
        base = DramParams(channels=1, ranks=1, banks_per_rank=8)
        stride = base.row_size * base.num_banks
        addrs = [i * stride for i in range(64)]
        row_banks = {AddressMapping(base).map(a)[1] for a in addrs}
        xor_banks = {
            AddressMapping(DramParams(
                channels=1, ranks=1, banks_per_rank=8,
                mapping="xor")).map(a)[1]
            for a in addrs}
        assert row_banks == {0}
        assert len(xor_banks) == base.num_banks

    def test_non_power_of_two_geometry_rejected(self):
        with pytest.raises(ValueError):
            AddressMapping(DramParams(channels=3))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            AddressMapping(DramParams(mapping="hash"))


# --------------------------------------------------------------- saturation


class TestBankConflictSaturation:
    def test_conflicting_rows_serialise_through_precharge(self):
        """All-conflict traffic to one bank piles up: each request waits
        the full precharge+activate of every request ahead of it."""
        d = DramController(DramParams())
        p = d.params
        stride = p.row_size * p.num_banks  # same bank, new row each time
        times = [d.access(i * stride, 0) for i in range(16)]
        busy = p.t_rp + p.t_rcd + p.bus_cycles_per_access
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g >= busy for g in gaps)
        assert d.row_conflicts == 16 and d.row_hits == 0

    def test_queue_depth_tracks_pileup(self):
        d = DramController(DramParams())
        stride = d.params.row_size * d.params.num_banks
        times = [d.access(i * stride, 0) for i in range(16)]
        assert d.queue_depth(0) == 16
        assert d.queue_depth(max(times)) == 0
        assert d.busy_banks(times[0]) >= 1

    def test_frfcfs_sustains_higher_bandwidth_under_refresh(self):
        """FR-FCFS's signature at saturation: scheduling around refresh
        windows (gap-fill + backfill) sustains more bandwidth than FCFS,
        which serialises behind every window it collides with."""
        from repro.workloads.microbench import measure_stream_bandwidth

        bw = {}
        for sched in ("fcfs", "frfcfs"):
            bw[sched], ctrl = measure_stream_bandwidth(
                dram_preset("ddr4-3200", scheduler=sched))
            assert ctrl.refresh_stall_cycles > 0
        assert bw["frfcfs"] > bw["fcfs"]


# ------------------------------------------------------------------ refresh


def _refresh_params(**kw):
    kw.setdefault("channels", 1)
    kw.setdefault("ranks", 1)
    kw.setdefault("banks_per_rank", 4)
    kw.setdefault("t_refi", 1000)
    kw.setdefault("t_rfc", 100)
    return DramParams(**kw)


class TestRefreshCollisions:
    def test_request_inside_window_waits_it_out(self):
        d = DramController(_refresh_params())
        # Bank 0's first window is [0, 100): a request arriving mid-window
        # stalls to the window end.
        done = d.access(0, 50)
        assert done == 100 + d.params.row_miss_latency
        assert d.refresh_stall_cycles == 50

    def test_window_while_idle_closes_row_buffer(self):
        d = DramController(_refresh_params())
        d.access(0, 150)            # open row 0 after the first window
        hit = d.access(64, 300)     # still open: row hit
        assert hit - 300 == d.params.row_hit_latency
        # The cycle-1000 window passes while the bank is idle; the row
        # buffer is closed when the next request arrives.
        miss = d.access(128, 1500)
        assert miss - 1500 == d.params.row_miss_latency

    def test_window_colliding_with_inflight_activate_is_absorbed(self):
        """FCFS defers a window that lands on a busy bank: a request whose
        activate is already in flight when the window opens completes at
        its nominal time (the controller postpones refresh under load)."""
        d = DramController(_refresh_params())
        done = d.access(0, 990)  # activate spans the cycle-1000 window
        assert done == 990 + d.params.row_miss_latency
        assert d.refresh_stall_cycles == 0

    def test_frfcfs_materialises_windows_and_stalls(self):
        d = DramController(_refresh_params(scheduler="frfcfs"))
        done = d.access(0, 10)  # arrives inside bank 0's [0, 100) window
        assert done == 100 + d.params.row_miss_latency
        assert d.refresh_stall_cycles == 90
        ops = d.scheduler._ops[0]
        assert ops[0][2] == FrfcfsScheduler._REFRESH_ROW

    def test_frfcfs_backfills_gap_before_booked_window(self):
        """A request that fits entirely before a booked future window is
        serviced in the idle gap instead of queueing behind the window."""
        d = DramController(_refresh_params(scheduler="frfcfs"))
        d.access(0, 150)                      # past window 0; row 0 open
        done = d.access(64, 800)              # hit, fits before cycle 1000
        assert done - 800 == d.params.row_hit_latency

    def test_refresh_degrades_saturated_bandwidth(self):
        def makespan(t_refi, t_rfc):
            d = DramController(_refresh_params(t_refi=t_refi, t_rfc=t_rfc))
            return max(d.access(i * 64, 0) for i in range(512))

        assert makespan(1000, 100) > makespan(0, 0)


# ------------------------------------------------------- FR-FCFS scheduling


class TestFrfcfs:
    def _gap_controller(self, **preset_kw):
        """Bank 0 with row 0 open, a far-future booked op, and an idle
        gap in between."""
        d = DramController(dram_preset("ddr3-1600", scheduler="frfcfs",
                                       **preset_kw))
        d.access(0, 0)          # row 0: [0, busy)
        d.access(64, 20000)     # row 0 again, far later: leaves a gap
        return d

    def test_row_hit_fills_idle_gap(self):
        d = self._gap_controller()
        done = d.access(128, 200)  # row 0 hit, lands in the gap
        assert done - 200 == d.params.row_hit_latency
        assert d.scheduler.bypasses == 1

    def _starved_controller(self, cap):
        """Bank 0 with row 0 open, an idle gap, and a queued request
        (row 9, arrived at cycle 300) that a far-future burst has pushed
        behind the gap — by the time a hit shows up, that request has
        been waiting far longer than any reasonable cap."""
        d = DramController(dram_preset("ddr3-1600", scheduler="frfcfs",
                                       frfcfs_cap=cap))
        stride = d.params.row_size * d.params.num_banks
        d.access(0, 0)                          # row 0: opens the gap
        for r in range(1, 9):                   # backlog around cycle 10000
            d.access(r * stride, 10000)
        d.access(9 * stride, 300)               # old request, queued last
        return d

    def test_starvation_cap_denies_stale_bypass(self):
        """A hit must not overtake a request that has already waited
        more than frfcfs_cap cycles."""
        d = self._starved_controller(cap=512)
        done = d.access(64, 900)  # row-0 hit; the row-9 op is 600 old
        assert d.scheduler.bypass_denied_age == 1
        assert d.scheduler.bypasses == 0
        # Serviced in order, behind the whole backlog — not in the gap.
        assert done - 900 > d.params.row_miss_latency

    def test_large_cap_allows_same_bypass(self):
        d = self._starved_controller(cap=10**9)
        done = d.access(64, 900)
        assert d.scheduler.bypasses == 1
        assert d.scheduler.bypass_denied_age == 0
        assert done - 900 == d.params.row_hit_latency

    def test_matches_fcfs_on_serial_traffic(self):
        """With one request in flight at a time there is nothing to
        reorder: both schedulers give identical timings."""
        a = DramController(dram_preset("ddr3-1600"))
        b = DramController(dram_preset("ddr3-1600", scheduler="frfcfs"))
        t_a = t_b = 0
        for i in range(64):
            addr = (i * 7919 * 64) & ((1 << 30) - 1)
            t_a = a.access(addr, t_a)
            t_b = b.access(addr, t_b)
            assert t_a == t_b

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            make_scheduler(DramParams(scheduler="round-robin"))


# --------------------------------------------------------------- checkpoint


class TestCheckpointing:
    def _drive(self, ctrl, n, seed_off=0):
        out = []
        for i in range(n):
            addr = ((i + seed_off) * 4651 * 64) & ((1 << 28) - 1)
            out.append(ctrl.access(addr, 40 * i, kind="demand"))
        return out

    @pytest.mark.parametrize("scheduler", ["fcfs", "frfcfs"])
    def test_forked_controller_replays_identically(self, scheduler):
        """Deep-copy a controller mid-burst; the fork and the original
        must time every subsequent access identically."""
        d = DramController(dram_preset("ddr4-3200", scheduler=scheduler))
        self._drive(d, 100)
        fork = copy.deepcopy(d)
        assert self._drive(d, 100, seed_off=100) == \
            self._drive(fork, 100, seed_off=100)
        assert (d.accesses, d.row_hits, d.refresh_stall_cycles) == \
            (fork.accesses, fork.row_hits, fork.refresh_stall_cycles)

    def test_fork_is_isolated(self):
        d = DramController(dram_preset("ddr4-3200", scheduler="frfcfs"))
        self._drive(d, 50)
        fork = copy.deepcopy(d)
        self._drive(d, 50, seed_off=50)
        assert fork.accesses == 50  # untouched by the original's traffic

    def test_sim_checkpoint_bit_identity_nondefault_protocol(self):
        """The full checkpoint path with a live FR-FCFS + refresh
        controller: fork from a warm checkpoint must equal a cold run."""
        machine = BASELINE.with_dram(
            dram_preset("ddr4-3200", scheduler="frfcfs"),
            name="ck-ddr4-frfcfs")
        from repro.sim import measure, simulate
        cold = simulate("mcf", machine, "RAR", instructions=800,
                        warmup=400, seed=11)
        ck = warm_checkpoint("mcf", machine, "RAR", warmup=400, seed=11)
        assert measure(ck.fork(), 800, "mcf") == cold
