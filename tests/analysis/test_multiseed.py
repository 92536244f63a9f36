"""Multi-seed statistics: realisation noise vs. mechanism effect."""

import statistics

from repro.common.params import BASELINE
from repro.sim import simulate


class TestRunSeeds:
    def test_seeds_yield_distinct_but_similar_runs(self):
        results = [simulate("libquantum", BASELINE, "OOO", instructions=1200,
                            warmup=1500, seed=s) for s in (1, 2, 3)]
        ipcs = [r.ipc for r in results]
        # Different realisations -> not bit-identical...
        assert len(set(ipcs)) > 1
        # ...but statistically the same workload: spread is bounded.
        assert statistics.stdev(ipcs) / statistics.mean(ipcs) < 0.35

    def test_mechanism_effect_exceeds_seed_noise(self):
        """RAR's ABC reduction must dwarf realisation noise — the core
        scientific-validity check for a synthetic-workload study."""
        seeds = [11, 22, 33]

        def abc_per_instruction(policy):
            return [r.abc_total / r.instructions for r in (
                simulate("libquantum", BASELINE, policy, instructions=1500,
                         warmup=2500, seed=s) for s in seeds)]

        base_abc = abc_per_instruction("OOO")
        rar_abc = abc_per_instruction("RAR")
        gap = statistics.mean(base_abc) - statistics.mean(rar_abc)
        noise = statistics.stdev(base_abc) + statistics.stdev(rar_abc)
        assert gap > 3 * noise
