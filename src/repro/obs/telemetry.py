"""The telemetry facade: one object bundling all observability pillars.

A :class:`Telemetry` instance is handed to :func:`repro.sim.simulate` (or
directly to :class:`~repro.core.core.OutOfOrderCore`) and wires itself
into the core's observer hook, the memory hierarchy's miss hook, and the
run loop's tick. Everything is a cheap no-op when a pillar is disabled;
a core built without telemetry pays a single ``is not None`` test per
run-loop iteration and per observer site.

Usage::

    from repro import simulate, BASELINE, RAR
    from repro.obs import Telemetry

    tele = Telemetry(interval=1000, trace=True, profile=True)
    result = simulate("mcf", BASELINE, RAR, telemetry=tele)
    tele.write_stats("stats.json", result)
    tele.write_trace("trace.json")        # open in ui.perfetto.dev
    print(tele.profiler.kips, "KIPS")
"""

from typing import Any, Dict, Optional

from repro.common.io import atomic_write_json
from repro.obs.profiler import HostProfiler
from repro.obs.sampler import IntervalSampler
from repro.obs.tracer import EventTracer

__all__ = ["Telemetry"]


class Telemetry:
    """Bundles the stats registry view, sampler, tracer and profiler.

    Args:
        interval: interval-sampler period in cycles; 0 disables sampling.
        trace: enable the pipeline event tracer (a ring buffer of the
            tracer's default capacity).
        profile: enable host-side throughput profiling.
        heartbeat_s: print a progress line every this many wall seconds
            (0 disables).
    """

    def __init__(self, interval: int = 0, trace: bool = False,
                 profile: bool = False, heartbeat_s: float = 0.0):
        self.sampler = IntervalSampler(interval) if interval else None
        self.tracer = EventTracer() if trace else None
        self.profiler = None
        if profile or heartbeat_s:
            self.profiler = HostProfiler(heartbeat_s=heartbeat_s)
        self.registry = None
        self.core = None
        self.result = None
        self._chained_observer = None
        self._occ_dists = ()
        self._miss_latency = None

    # ------------------------------------------------------------ wiring

    def attach(self, core) -> None:
        """Bind to a core: registry, observer chain, hierarchy hook."""
        self.core = core
        self.registry = core.registry
        self._chained_observer = core.observer
        core.observer = self._on_event
        core.telemetry = self
        core.mem.observer = self._on_mem_event
        reg = self.registry
        self._miss_latency = reg.get("mem.llc.miss_latency")
        self._occ_dists = (
            (reg.get("core.rob.occupancy"), "rob_occ"),
            (reg.get("core.iq.occupancy"), "iq_occ"),
            (reg.get("core.lq.occupancy"), "lq_occ"),
            (reg.get("core.sq.occupancy"), "sq_occ"),
            (reg.get("mem.dram.queue_occupancy"), "dram_q"),
            (reg.get("mem.dram.bank_occupancy"), "dram_banks"),
        )
        if self.sampler is not None:
            self.sampler.reset(core)
        if self.profiler is not None:
            self.profiler.start(core)

    def begin_measurement(self, core) -> None:
        """Start the measured window (post-warmup): mark the registry and
        reset every pillar so dumps cover exactly the window."""
        core.registry.mark()
        for dist, _ in self._occ_dists:
            dist.clear()
        if self._miss_latency is not None:
            self._miss_latency.clear()
        if self.sampler is not None:
            self.sampler.reset(core)
        if self.tracer is not None:
            self.tracer.clear()
        if self.profiler is not None:
            self.profiler.reset()      # discard warmup from throughput
            self.profiler.start(core)

    def end_measurement(self, core, result=None) -> None:
        self.result = result
        if self.profiler is not None:
            self.profiler.stop(core)
        if self.tracer is not None:
            self.tracer.close_open_spans(core.cycle)

    # ----------------------------------------------------- run-loop tick

    def tick(self, core) -> None:
        """Called once per run-loop iteration by the core."""
        sampler = self.sampler
        if sampler is not None and core.cycle >= sampler.next_cycle:
            before = len(sampler.rows)
            sampler.sample(core)
            emitted = len(sampler.rows) - before
            row = sampler.rows[-1]
            for dist, key in self._occ_dists:
                dist.record(row[key], weight=emitted)
        if self.profiler is not None:
            self.profiler.maybe_heartbeat(core)

    # ------------------------------------------------------ event sinks

    def _on_event(self, event: str, cycle: int, **data) -> None:
        tracer = self.tracer
        if tracer is not None:
            if event == "runahead_enter":
                blocking = data.get("blocking")
                tracer.begin_span(
                    "runahead", cycle,
                    pc=getattr(getattr(blocking, "static", None), "pc", -1))
            elif event == "runahead_exit":
                tracer.end_span("runahead", cycle)
            elif event == "flush_enter":
                blocking = data.get("blocking")
                tracer.begin_span(
                    "flush_stall", cycle,
                    pc=getattr(getattr(blocking, "static", None), "pc", -1))
            elif event == "flush_exit":
                tracer.end_span("flush_stall", cycle)
            elif event == "mispredict":
                branch = data.get("branch")
                tracer.emit(
                    "mispredict", cycle,
                    pc=getattr(getattr(branch, "static", None), "pc", -1))
            elif event == "squash":
                tracer.emit("squash", cycle, count=len(data.get("uops", ())),
                            cause=str(data.get("cause")))
            elif event in ("sst_hit", "sst_train", "runahead_prefetch"):
                tracer.emit(event, cycle, **{
                    k: v for k, v in data.items()
                    if isinstance(v, (int, float, str, bool))})
        if self._chained_observer is not None:
            self._chained_observer(event, cycle, **data)

    def _on_mem_event(self, event: str, cycle: int, **data) -> None:
        if event == "llc_miss":
            done = data.get("done", cycle)
            if self._miss_latency is not None:
                self._miss_latency.record(done - cycle)
            if self.tracer is not None:
                self.tracer.emit("llc_miss", cycle, dur=done - cycle,
                                 addr=data.get("addr", -1),
                                 pc=data.get("pc", -1))

    # ---------------------------------------------------------- reports

    def stats_dict(self, result=None, manifest=None) -> Dict[str, Any]:
        """The full ``--stats-out`` payload: registry tree + extras.

        Every stats artifact carries a provenance ``manifest`` (git
        SHA/dirty flag, versions, hostname, timestamp — see
        :mod:`repro.obs.manifest`); ``manifest`` adds the caller's
        per-point record (run-key coordinates, params digest, seed)
        under its ``point`` key.
        """
        from repro.obs.manifest import host_manifest
        result = result if result is not None else self.result
        out: Dict[str, Any] = {"schema": "repro-stats-v1"}
        out["manifest"] = host_manifest(
            extra={"point": manifest} if manifest else None)
        if result is not None:
            out["result"] = _result_dict(result)
        if self.registry is not None:
            out["stats"] = self.registry.dump()
        if self.sampler is not None:
            out["timeline"] = {
                "interval": self.sampler.interval,
                "samples": self.sampler.rows,
            }
        if self.tracer is not None:
            out["trace_summary"] = {
                "emitted": self.tracer.emitted,
                "dropped": self.tracer.dropped,
                "counts": self.tracer.summary(),
            }
        if self.profiler is not None:
            out["host_profile"] = self.profiler.to_dict()
        return out

    def write_stats(self, path: str, result=None, manifest=None) -> None:
        """Write :meth:`stats_dict` to ``path`` atomically: a reader
        never sees a torn file, even if the writer dies mid-write."""
        atomic_write_json(path, self.stats_dict(result, manifest=manifest),
                          indent=1)

    def write_trace(self, path: str, label: Optional[str] = None) -> None:
        if self.tracer is None:
            raise RuntimeError("tracer not enabled (Telemetry(trace=True))")
        if label is None:
            label = "repro"
            if self.result is not None:
                label = (f"repro {self.result.workload}/"
                         f"{self.result.policy}")
        self.tracer.write_chrome(path, label)

    def write_timeline(self, path: str) -> int:
        if self.sampler is None:
            raise RuntimeError(
                "sampler not enabled (Telemetry(interval=N))")
        return self.sampler.write(path)


def _result_dict(result) -> Dict[str, Any]:
    d = {k: getattr(result, k) for k in (
        "workload", "machine", "policy", "instructions", "cycles", "ipc",
        "mlp", "mpki", "abc_total", "total_bits", "abc_head_blocked",
        "abc_full_stall", "runahead_triggers", "runahead_cycles",
        "runahead_prefetches", "flush_triggers", "branch_mispredicts",
        "demand_llc_misses")}
    d["abc"] = dict(result.abc)
    d["avf"] = result.avf
    return d
