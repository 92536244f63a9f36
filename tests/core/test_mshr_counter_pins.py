"""Pinned memory counters on MSHR-saturated points.

While every L1 MSHR is busy, rejected loads are parked instead of being
re-probed each cycle, and runahead retries before the first MSHR release
skip the probe; both charge the per-probe counters in bulk. These pins
were computed with the retry-every-cycle loop (4000 warmup + 4000
measured instructions, default seed, resident regions preloaded) and
must not move: the counters keep their per-probe meaning. The runs go
through the invariant sanitizer, whose ``mshr-parked`` check proves
each skipped probe would have been rejected.

The runahead cursor's counters (SST lookups and hits, PRDQ allocations
and releases, uops examined and executed) are pinned on the same points,
and one plain observer checks that the cursor's ``sst_hit`` events fire.
"""

import pytest

from repro.common.params import BASELINE
from repro.core.core import OutOfOrderCore
from repro.core.runahead import get_policy
from repro.workloads.catalog import get_workload

PINS = {
    ("mcf", "OOO"): dict(cycles=36890, demand_accesses=79970,
                         rejected_mshr_full=69936, l1_hits=1103,
                         l1_misses=78867, runahead_prefetches=0),
    ("mcf", "RAR"): dict(cycles=26210, demand_accesses=34101,
                         rejected_mshr_full=23999, l1_hits=5187,
                         l1_misses=28914, runahead_prefetches=2997),
    ("lbm", "PRE"): dict(cycles=17919, demand_accesses=42807,
                         rejected_mshr_full=29026, l1_hits=12606,
                         l1_misses=30201, runahead_prefetches=11004),
    ("libquantum", "RAR"): dict(cycles=20394, demand_accesses=34988,
                                rejected_mshr_full=20732, l1_hits=13057,
                                l1_misses=21931, runahead_prefetches=10080),
}

RUNAHEAD_PINS = {
    ("mcf", "OOO"): dict(sst_lookups=328, sst_hits=315, prdq_allocations=0,
                         prdq_releases=0, runahead_uops_examined=0,
                         runahead_uops_executed=0),
    ("mcf", "RAR"): dict(sst_lookups=12651, sst_hits=7302,
                         prdq_allocations=6952, prdq_releases=5233,
                         runahead_uops_examined=14887,
                         runahead_uops_executed=6952),
    ("lbm", "PRE"): dict(sst_lookups=55819, sst_hits=19821,
                         prdq_allocations=18789, prdq_releases=17982,
                         runahead_uops_examined=56226,
                         runahead_uops_executed=18789),
    ("libquantum", "RAR"): dict(sst_lookups=42014, sst_hits=23095,
                                prdq_allocations=21047, prdq_releases=20645,
                                runahead_uops_examined=45591,
                                runahead_uops_executed=21047),
}

#: ``sst_hit`` events fired by the lbm/PRE point: one per SST hit of the
#: cursor (the hits of SST training and of runahead prefetches fire none).
LBM_PRE_SST_HIT_EVENTS = 19376


def run_point(workload, policy, validate=False, observer=None):
    spec = get_workload(workload)
    core = OutOfOrderCore(BASELINE, spec.build_trace(), get_policy(policy),
                          validate=validate, observer=observer)
    for level, base, size in spec.resident_regions():
        core.mem.preload(base, size, level)
    core.run(4000)
    core.run(4000)
    return core


def memory_counters(core):
    mem = core.mem
    return dict(cycles=core.cycle, demand_accesses=mem.demand_accesses,
                rejected_mshr_full=mem.rejected_mshr_full,
                l1_hits=mem.l1d.hits, l1_misses=mem.l1d.misses,
                runahead_prefetches=core.stats.runahead_prefetches)


def runahead_counters(core):
    stats = core.stats
    return dict(sst_lookups=core.sst.lookups, sst_hits=core.sst.hits,
                prdq_allocations=core.prdq.allocations,
                prdq_releases=core.prdq.releases,
                runahead_uops_examined=stats.runahead_uops_examined,
                runahead_uops_executed=stats.runahead_uops_executed)


@pytest.mark.parametrize("workload,policy", sorted(PINS))
def test_counters_pinned(workload, policy):
    core = run_point(workload, policy, validate=True)
    core.checker.final_check()
    assert memory_counters(core) == PINS[workload, policy]
    assert runahead_counters(core) == RUNAHEAD_PINS[workload, policy]


def test_sst_hit_events_fire_with_observer():
    hits = []

    def observer(event, cycle, **data):
        if event == "sst_hit":
            hits.append(data["pc"])

    core = run_point("lbm", "PRE", observer=observer)
    assert len(hits) == LBM_PRE_SST_HIT_EVENTS
    assert memory_counters(core) == PINS["lbm", "PRE"]
    assert runahead_counters(core) == RUNAHEAD_PINS["lbm", "PRE"]
