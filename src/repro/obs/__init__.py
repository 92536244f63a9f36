"""Observability: stats registry, interval timelines, event tracing.

Three pillars (see ``docs/metrics.md`` for the naming scheme):

- :class:`~repro.obs.registry.StatsRegistry` — hierarchical named
  counters, distributions and formulas, one per core.
- :class:`~repro.obs.sampler.IntervalSampler` — per-N-cycle pipeline
  snapshots exportable as JSONL/CSV.
- :class:`~repro.obs.tracer.EventTracer` — bounded ring buffer of typed
  pipeline events with a Chrome trace-event (Perfetto) exporter.

Plus :class:`~repro.obs.profiler.HostProfiler` for host-side wall-clock
profiling, all bundled by :class:`~repro.obs.telemetry.Telemetry`.

The sweep/orchestration layer (see ``docs/observability.md``) adds:

- :class:`~repro.obs.ledger.RunLedger` — append-only JSONL event
  stream recording a sweep's full life cycle, one terminal event per
  point, tailable live with ``repro top``.
- :mod:`~repro.obs.manifest` — provenance manifests (git SHA, params
  digest, versions, host) embedded in stats/cache/ledger artifacts.
- :mod:`~repro.obs.log` — the central stdlib-logging layer behind
  ``--log-json`` / ``--quiet`` / ``--verbose``, multiprocessing-safe.
"""

from repro.obs import log
from repro.obs.ledger import RunLedger, SweepStatus, read_ledger, summarize
from repro.obs.manifest import host_manifest, point_manifest
from repro.obs.profiler import HostProfiler
from repro.obs.registry import (
    Distribution,
    Formula,
    Scalar,
    StatsRegistry,
    flatten_tree,
)
from repro.obs.report import load_stats, render_report
from repro.obs.sampler import IntervalSampler
from repro.obs.telemetry import Telemetry
from repro.obs.tracer import EventTracer, TraceEvent, validate_chrome_trace

__all__ = [
    "Telemetry",
    "StatsRegistry",
    "Scalar",
    "Distribution",
    "Formula",
    "IntervalSampler",
    "EventTracer",
    "TraceEvent",
    "HostProfiler",
    "RunLedger",
    "SweepStatus",
    "flatten_tree",
    "host_manifest",
    "load_stats",
    "log",
    "point_manifest",
    "read_ledger",
    "render_report",
    "summarize",
    "validate_chrome_trace",
]
