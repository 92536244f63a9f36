"""Host-side (wall-clock) profiling of the simulator itself.

- **Throughput**: simulated KIPS (committed kilo-instructions per wall
  second) and cycles/second over a measured region.
- **Heartbeat**: a periodic one-line progress report for long runs
  (cycle, committed, live KIPS), throttled by wall time. Routed through
  the central logging layer (:mod:`repro.obs.log`) so ``--quiet``
  silences it and ``--log-json`` structures it; when logging was never
  configured (bare library use) it falls back to a plain stderr line.
"""

import sys
import time
from typing import Any, Dict, Optional

from repro.obs import log as obs_log

__all__ = ["HostProfiler"]

_log = obs_log.get_logger("profiler")


class HostProfiler:
    """Wall-clock throughput and heartbeat."""

    def __init__(self, heartbeat_s: float = 0.0):
        self.heartbeat_s = heartbeat_s
        self.wall_seconds = 0.0
        self.instructions = 0
        self.cycles = 0
        self._t0: Optional[float] = None
        self._start_committed = 0
        self._start_cycle = 0
        self._hb_next = 0.0
        self._hb_calls = 0
        self.heartbeats = 0

    # ------------------------------------------------------------ region

    def reset(self) -> None:
        """Zero accumulated throughput totals."""
        self.wall_seconds = 0.0
        self.instructions = 0
        self.cycles = 0
        self._t0 = None

    def start(self, core) -> None:
        """Begin the measured region (idempotent per region)."""
        self._start_committed = core.stats.committed
        self._start_cycle = core.cycle
        self._t0 = time.perf_counter()
        self._hb_next = self._t0 + self.heartbeat_s

    def stop(self, core) -> None:
        if self._t0 is None:
            return
        self.wall_seconds += time.perf_counter() - self._t0
        self.instructions += core.stats.committed - self._start_committed
        self.cycles += core.cycle - self._start_cycle
        self._t0 = None

    @property
    def kips(self) -> float:
        """Simulated kilo-instructions committed per wall second."""
        if not self.wall_seconds:
            return 0.0
        return self.instructions / self.wall_seconds / 1000.0

    @property
    def cycles_per_second(self) -> float:
        return self.cycles / self.wall_seconds if self.wall_seconds else 0.0

    # --------------------------------------------------------- heartbeat

    def maybe_heartbeat(self, core) -> None:
        """Called from the run loop; prints at most once per period.

        ``perf_counter`` is only consulted every 256 calls so the check
        is nearly free on the simulation hot path.
        """
        if not self.heartbeat_s:
            return
        self._hb_calls += 1
        if self._hb_calls & 255:
            return
        now = time.perf_counter()
        if now < self._hb_next or self._t0 is None:
            return
        self._hb_next = now + self.heartbeat_s
        elapsed = now - self._t0
        done = core.stats.committed - self._start_committed
        kips = done / elapsed / 1000.0 if elapsed else 0.0
        self.heartbeats += 1
        if obs_log.is_configured():
            _log.info("heartbeat", extra={"data": {
                "cycle": core.cycle, "committed": core.stats.committed,
                "kips": round(kips, 1)}})
        else:
            # Library use with no logging configured: keep the legacy
            # plain stderr line rather than swallowing the progress.
            print(f"[repro] cycle {core.cycle} committed "
                  f"{core.stats.committed} ({kips:.1f} KIPS)",
                  file=sys.stderr)

    # ------------------------------------------------------------ report

    def to_dict(self) -> Dict[str, Any]:
        return {
            "wall_seconds": self.wall_seconds,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "kips": self.kips,
            "cycles_per_second": self.cycles_per_second,
        }
