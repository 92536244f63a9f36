"""Trace-backed workloads: saved/imported trace files as first-class
workloads.

``get_workload("trace:/path/to/file.trc")`` resolves to a
:class:`TraceWorkload`, so every surface that accepts a workload name —
``repro run``, ``sweep``, ``warmval``, the farm, checkpoint
warming — drives the core from an on-disk trace instead of a synthetic
generator. The object quacks like :class:`WorkloadSpec` where the
simulator cares (``name``, ``memory_intensive``, ``build_trace``,
``resident_regions``, ``description``) and is picklable by path, so the
farm ships it to workers the same way it ships catalog specs.

Trace-backed runs are *finite*: when the file ends, the engine drains
and stops at end-of-stream exactly like the oracle-validated EOS path
(PR 5). ``seed`` is accepted and ignored — a recorded trace has one
behaviour.
"""

import hashlib
import os
from typing import List, Optional, Tuple

from repro.isa.trace import Trace
from repro.isa.uop import StaticUop

__all__ = ["MaterializedTraceWorkload", "TRACE_PREFIX", "TraceWorkload",
           "is_trace_name", "resolve_trace_workload"]

TRACE_PREFIX = "trace:"

#: (path, mtime_ns, size) -> sha256 hex digest
_SHA_CACHE: dict = {}


def is_trace_name(name: str) -> bool:
    return name.startswith(TRACE_PREFIX)


class TraceWorkload:
    """A workload backed by a saved trace file (v1 or v2, plain or .gz).

    Cheap to construct (header-only read) and to pickle (the path
    travels; workers re-open the file). ``build_trace`` returns a
    streaming :class:`Trace`, so memory scales with the simulated
    prefix, not the file.
    """

    #: trace-backed runs exercise the memory hierarchy as recorded;
    #: classify with the memory set so sweeps over memory_only grids
    #: include them.
    memory_intensive = True

    def __init__(self, path: str, name: str = ""):
        from repro.isa.tracefile import trace_info
        if not os.path.exists(path):
            raise FileNotFoundError(f"trace file not found: {path}")
        info = trace_info(path, scan=False)
        self.path = path
        self.name = name or f"{TRACE_PREFIX}{path}"
        self.trace_name = info["name"]
        self.version = info["version"]
        self.meta = info["meta"]
        self.description = (f"trace-backed workload from {path} "
                            f"(v{self.version}, {self.trace_name!r})")

    def build_trace(self, seed: Optional[int] = None) -> Trace:
        from repro.isa.tracefile import stream_trace
        trace = stream_trace(self.path)
        trace.name = self.name
        return trace

    def resident_regions(self) -> List[Tuple[str, int, int]]:
        """Recorded traces carry no residency hints: the warmup window
        does the cache warming, as on real-trace simulators."""
        return []

    def file_sha256(self) -> str:
        """Content hash of the backing file (for provenance manifests).
        Cached per (path, mtime, size) so per-point manifests don't
        re-hash a large trace for every sweep point."""
        st = os.stat(self.path)
        key = (self.path, st.st_mtime_ns, st.st_size)
        cached = _SHA_CACHE.get(key)
        if cached is not None:
            return cached
        h = hashlib.sha256()
        with open(self.path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
        _SHA_CACHE[key] = h.hexdigest()
        return _SHA_CACHE[key]

    def __repr__(self) -> str:
        return f"TraceWorkload({self.path!r})"


class MaterializedTraceWorkload:
    """A workload over an in-memory uop list (no backing file).

    Used where a trace must be embedded rather than referenced — golden
    fixtures import their raw inputs at measure time and pin the result
    here, so fingerprints cannot drift with importer-path file layout.
    Each ``build_trace`` call returns a *fresh* rewindable Trace over
    the shared immutable uops.
    """

    memory_intensive = True

    def __init__(self, uops: List[StaticUop], name: str,
                 description: str = ""):
        self.uops = list(uops)
        self.name = name
        self.description = description or f"materialized trace {name!r}"

    def build_trace(self, seed: Optional[int] = None) -> Trace:
        return Trace.from_list(self.uops, name=self.name)

    def resident_regions(self) -> List[Tuple[str, int, int]]:
        return []

    def __repr__(self) -> str:
        return (f"MaterializedTraceWorkload({self.name!r}, "
                f"{len(self.uops)} uops)")


def resolve_trace_workload(name: str) -> TraceWorkload:
    """Resolve a ``trace:<path>`` workload name."""
    path = name[len(TRACE_PREFIX):]
    if not path:
        raise KeyError(f"empty path in trace workload name {name!r}")
    try:
        return TraceWorkload(path, name=name)
    except FileNotFoundError as e:
        raise KeyError(str(e)) from None
