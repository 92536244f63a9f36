"""Interval timeline sampling.

Every ``interval`` cycles the sampler snapshots the live pipeline — IPC
over the elapsed interval, ROB/IQ/LQ/SQ occupancy, outstanding LLC
misses, the controller mode (normal / runahead / flush-stall), and the
ACE-bit accumulation rate — into an append-only timeline. Because the
core fast-forwards idle stretches, a single wakeup can cross several
interval boundaries; one row is emitted per crossed boundary (pipeline
state is constant across a fast-forwarded span by construction, so the
repeated occupancies are exact, and per-interval rates are pro-rated).

The timeline exports as JSONL (one object per row) or CSV, and also rides
along inside the ``--stats-out`` JSON.
"""

import csv
import json
from typing import Any, Dict, List

__all__ = ["IntervalSampler", "TIMELINE_FIELDS"]

TIMELINE_FIELDS = (
    "cycle", "committed", "ipc", "rob_occ", "iq_occ", "lq_occ", "sq_occ",
    "outstanding_misses", "dram_q", "dram_banks", "mode", "runahead_frac",
    "abc_rate", "phase",
)


class IntervalSampler:
    """Fixed-interval pipeline snapshots over a run."""

    def __init__(self, interval: int = 1000):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.rows: List[Dict[str, Any]] = []
        self.next_cycle = interval
        self._last_cycle = 0
        self._last_committed = 0
        self._last_abc = 0
        self._last_ra_cycles = 0

    def reset(self, core) -> None:
        """Restart the timeline at the core's current state (post-warmup).

        Boundaries align to the global cycle grid (multiples of
        ``interval``) so timelines from different runs line up.
        """
        self.rows = []
        self._last_cycle = core.cycle
        self._last_committed = core.stats.committed
        self._last_abc = core.ace.total
        self._last_ra_cycles = core.stats.runahead_cycles
        self.next_cycle = (core.cycle // self.interval + 1) * self.interval

    def sample(self, core) -> None:
        """Emit one row per interval boundary crossed since the last call."""
        cycle = core.cycle
        if cycle < self.next_cycle:
            return
        s = core.stats
        committed, abc = s.committed, core.ace.total
        ra_cycles = s.runahead_cycles
        span = cycle - self._last_cycle
        d_committed = committed - self._last_committed
        d_abc = abc - self._last_abc
        d_ra = ra_cycles - self._last_ra_cycles
        ipc = d_committed / span if span else 0.0
        abc_rate = d_abc / span if span else 0.0
        ra_frac = min(1.0, d_ra / span) if span else 0.0
        dram = core.mem.dram
        occ = {
            "rob_occ": len(core.rob),
            "iq_occ": len(core.iq),
            "lq_occ": core.lsq.lq_used,
            "sq_occ": core.lsq.sq_used,
            "outstanding_misses": core.backend._out_misses,
            "dram_q": dram.queue_depth(cycle),
            "dram_banks": dram.busy_banks(cycle),
            "mode": core.mode.name,
            # Workload phase at the fetch frontier (0 for stationary
            # workloads): an approximation of "the phase being executed"
            # — commit lags fetch by at most the window, far below the
            # thousands of instructions a phase segment spans.
            "phase": core.trace.phase_of(core.frontend_stage.fetch_idx),
        }
        rows = self.rows
        while self.next_cycle <= cycle:
            row = {"cycle": self.next_cycle,
                   "committed": committed,
                   "ipc": ipc,
                   "abc_rate": abc_rate,
                   "runahead_frac": ra_frac}
            row.update(occ)
            rows.append(row)
            self.next_cycle += self.interval
        self._last_cycle = cycle
        self._last_committed = committed
        self._last_abc = abc
        self._last_ra_cycles = ra_cycles

    # ---------------------------------------------------------- exporting

    def to_jsonl(self, path: str) -> int:
        with open(path, "w") as f:
            for row in self.rows:
                f.write(json.dumps(row) + "\n")
        return len(self.rows)

    def to_csv(self, path: str) -> int:
        with open(path, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(TIMELINE_FIELDS))
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)
        return len(self.rows)

    def write(self, path: str) -> int:
        """Dispatch on extension: ``.csv`` → CSV, anything else → JSONL."""
        if path.endswith(".csv"):
            return self.to_csv(path)
        return self.to_jsonl(path)
