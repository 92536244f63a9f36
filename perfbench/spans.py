"""Per-layer spans recorded from outside the simulator.

The traced run wraps each layer's public boundary functions (the table
below) with a span that counts calls and accumulates self time: the
span's duration minus the part of it covered by nested spans. Nothing
inside ``src/`` changes, and the simulator's own ``Telemetry`` and
``HostProfiler`` are never attached: attaching telemetry switches
``SimEngine.run`` from its inlined loop to the ``step()`` loop, which
would time a different program.

Wrappers are installed on the classes before any core is built, so the
bound methods the components cache in ``bind()`` and the engine's event
handlers resolve to the wrappers too. Code that a layer inlined instead
of calling a boundary (the L1 hit path inside ``MemoryHierarchy.access``,
the ROB head timer inside ``CommitUnit.step``) is charged to the caller.

Alongside the spans, ``SimEngine.run`` takes counter deltas on the core
it drives, so each layer's useful-work ratio is measured at the same
boundary as its time. The functional fast-warmup walk is not a pipeline
run and takes no deltas, so its cache and MSHR traffic stays out of the
back-end and memory ratios.
"""

import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

#: layer -> (boundary functions as ``module:Qualname``, the end-to-end
#: metric and workload a change to the layer should move).
LAYERS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "frontend": ((
        "repro.core.components:FrontEndStage.step",
        "repro.frontend.tage:TageScL.observe",
        "repro.frontend.btb:Btb.lookup",
        "repro.frontend.btb:Btb.update",
        "repro.frontend.fetch:WrongPathSource.next_uop",
    ), "kips on mcf-rar"),
    "core.backend": ((
        "repro.core.components:WindowBackEnd.step",
        "repro.core.components:WindowBackEnd.writeback",
    ), "kips on mcf-rar and namd-ooo"),
    "core.commit": ((
        "repro.core.components:CommitUnit.step",
    ), "kips on namd-ooo"),
    "reliability": ((
        "repro.reliability.ace:AceAccountant.charge_commit",
    ), "kips on namd-ooo"),
    "core.runahead": ((
        "repro.core.components:RunaheadController.step",
        "repro.core.components:RunaheadController.ra_memory_issue",
    ), "kips on sweep-stream; no change on namd-ooo"),
    "core.engine": ((
        "repro.core.engine:SimEngine.run",
        "repro.core.engine:SimEngine.process_events",
        "repro.core.engine:SimEngine.fast_forward",
    ), "kips on mcf-rar and sweep-stream"),
    "memory": ((
        "repro.memory.hierarchy:MemoryHierarchy.access",
        "repro.memory.cache:Cache.lookup",
        "repro.memory.cache:Cache.insert",
        "repro.memory.prefetcher:StridePrefetcher.train",
    ), "kips on mcf-rar (chase) and sweep-stream (stream)"),
    "memory.dram": ((
        "repro.memory.dram.controller:DramController.access",
    ), "measured only; no workload is built around it"),
    "workloads": ((
        "repro.isa.trace:Trace.get",
    ), "kips on namd-ooo, or setup_s if the work moves to import time"),
    "core.fastfwd": ((
        "repro.core.fastfwd:functional_warmup",
    ), "warmup_s and kips on sweep-stream; 0 calls elsewhere"),
    "checkpoint": ((
        "repro.checkpoint:Checkpoint.capture",
        "repro.checkpoint:Checkpoint.restore_into",
    ), "warmup_s and kips on sweep-stream; 0 calls elsewhere"),
}

#: Layers read from the untraced run's ledger instead of spans.
LEDGER_LAYERS = {
    "analysis.farm": "kips on sweep-stream",
}


def _engine_counters(engine) -> Dict[str, int]:
    """The counters behind the per-layer ratios, read from ``engine``'s
    core; ``SimEngine.run`` sums their deltas."""
    s = engine.core.stats
    mem = engine.core.mem
    return {
        "cycles": engine.cycle,
        "fast_forwarded_cycles": s.fast_forwarded_cycles,
        "branch_resolved": s.branch_resolved,
        "branch_mispredicted": s.branch_mispredicted,
        "runahead_prefetches": s.runahead_prefetches,
        "runahead_uops_executed": s.runahead_uops_executed,
        "demand_accesses": mem.demand_accesses,
        "rejected_mshr_full": mem.rejected_mshr_full,
        "l1_hits": mem.l1d.hits,
        "l1_misses": mem.l1d.misses,
        "dram_accesses": mem.dram.accesses,
        "dram_row_hits": mem.dram.row_hits,
    }


#: boundary -> counter reader applied to the call's first argument.
_PROBES: Dict[str, Callable[[Any], Dict[str, int]]] = {
    "repro.core.engine:SimEngine.run": _engine_counters,
}


def _resolve(boundary: str):
    module_name, qualname = boundary.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Installs the boundary wrappers; use as a context manager.

    ``calls[layer]`` counts entries into the layer's boundaries,
    ``self_s[layer]`` sums their self time, and ``counters`` sums the
    probe deltas. Recursion into the same layer (``MemoryHierarchy.access``
    calling ``Cache.insert``) counts both calls and charges each its own
    self time.
    """

    def __init__(self):
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.counters: Dict[str, int] = {}
        # Child-time accumulator of each open span; [0] is the root.
        self._stack: List[float] = [0.0]
        self._undo: List[Tuple[Any, str, Any]] = []

    def _span(self, layer: str, fn: Callable) -> Callable:
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_s[layer] += dur - stack.pop()
                stack[-1] += dur
                calls[layer] += 1
        span.__wrapped__ = fn
        return span

    def _probed(self, inner: Callable, read: Callable) -> Callable:
        totals = self.counters

        def probed(*args, **kwargs):
            before = read(args[0])
            try:
                return inner(*args, **kwargs)
            finally:
                for key, value in read(args[0]).items():
                    totals[key] = totals.get(key, 0) + value - before[key]
        return probed

    def _wrap(self, boundary: str, layer: str) -> None:
        owner, attr = _resolve(boundary)
        raw = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        wrapper = self._span(layer, fn)
        if boundary in _PROBES:
            wrapper = self._probed(wrapper, _PROBES[boundary])
        new = classmethod(wrapper) if isinstance(raw, classmethod) \
            else wrapper
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)
        if not isinstance(owner, type):
            # A module-level function is also called through the names
            # other modules imported it under; rebind those too.
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name.startswith("repro") and mod is not owner \
                        and getattr(mod, attr, None) is raw:
                    self._undo.append((mod, attr, raw))
                    setattr(mod, attr, new)

    def __enter__(self) -> "Tracer":
        try:
            for layer, (boundaries, _) in LAYERS.items():
                for boundary in boundaries:
                    self._wrap(boundary, layer)
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def _uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    @property
    def attributed_s(self) -> float:
        """Time inside any span (the root's accumulated child time)."""
        return self._stack[0]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counter_ratios(c: Dict[str, int]) -> Dict[str, float]:
    """The per-layer useful-work ratios from summed probe deltas."""
    g = c.get
    return {
        "frontend.mispredict_ratio":
            ratio(g("branch_mispredicted", 0), g("branch_resolved", 0)),
        "core.backend.mshr_reject_ratio":
            ratio(g("rejected_mshr_full", 0), g("demand_accesses", 0)),
        "core.runahead.useful_ratio":
            ratio(g("runahead_prefetches", 0),
                  g("runahead_uops_executed", 0)),
        "core.engine.ff_cycle_ratio":
            ratio(g("fast_forwarded_cycles", 0), g("cycles", 0)),
        "memory.l1_hit_ratio":
            ratio(g("l1_hits", 0), g("l1_hits", 0) + g("l1_misses", 0)),
        "memory.dram.row_hit_ratio":
            ratio(g("dram_row_hits", 0), g("dram_accesses", 0)),
    }
