"""Pinned memory counters on MSHR-saturated points.

While every L1 MSHR is busy, rejected loads are parked instead of being
re-probed each cycle, and runahead retries before the first MSHR release
skip the probe; both charge the per-probe counters in bulk. These pins
were computed with the retry-every-cycle loop (4000 warmup + 4000
measured instructions, default seed, resident regions preloaded) and
must not move: the counters keep their per-probe meaning. The runs go
through the invariant sanitizer, whose ``mshr-parked`` check proves
each skipped probe would have been rejected.
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


@pytest.mark.parametrize("workload,policy", sorted(PINS))
def test_counters_pinned(workload, policy):
    spec = get_workload(workload)
    core = OutOfOrderCore(BASELINE, spec.build_trace(), get_policy(policy),
                          validate=True)
    for level, base, size in spec.resident_regions():
        core.mem.preload(base, size, level)
    core.run(4000)
    core.run(4000)
    core.checker.final_check()
    mem = core.mem
    got = dict(cycles=core.cycle, demand_accesses=mem.demand_accesses,
               rejected_mshr_full=mem.rejected_mshr_full,
               l1_hits=mem.l1d.hits, l1_misses=mem.l1d.misses,
               runahead_prefetches=core.stats.runahead_prefetches)
    assert got == PINS[workload, policy]
