"""Render a ``--stats-out`` JSON file as human-readable tables.

Backs the ``repro report`` CLI command. Accepts the ``repro-stats-v1``
schema written by :meth:`repro.obs.telemetry.Telemetry.write_stats` and
degrades gracefully on partial files (stats only, no timeline, ...).
"""

import json
from typing import Any, Dict, List

from repro.analysis.tables import format_table
from repro.obs.registry import flatten_tree

__all__ = ["load_stats", "render_report"]


def load_stats(path: str) -> Dict[str, Any]:
    """Read a stats file; a truncated or non-JSON file raises
    ``ValueError`` naming ``path``."""
    with open(path) as f:
        try:
            obj = json.load(f)
        except ValueError as e:
            raise ValueError(f"{path}: not a JSON stats file ({e})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: not a stats object")
    return obj


def _render_counters(tree: Dict[str, Any]) -> str:
    flat = flatten_tree(tree)
    rows: List[List] = []
    dists: List[List] = []
    for name in sorted(flat):
        v = flat[name]
        if isinstance(v, dict) and v.get("kind") == "distribution":
            dists.append([name, v.get("count", 0), v.get("mean", 0.0),
                          v.get("min") or 0, v.get("max") or 0])
        else:
            rows.append([name, v])
    out = [format_table(["stat", "value"], rows, precision=4)]
    if dists:
        out.append("")
        out.append(format_table(
            ["distribution", "count", "mean", "min", "max"], dists,
            precision=2))
    return "\n".join(out)


def _render_timeline(timeline: Dict[str, Any], max_rows: int = 20) -> str:
    samples = timeline.get("samples", [])
    if not samples:
        return "timeline: no samples"
    headers = list(samples[0].keys())
    step = max(1, len(samples) // max_rows)
    shown = samples[::step]
    # The stride alone drops the tail of the run whenever the length is
    # not a multiple of step — always show the final sample: the end
    # state of a run is exactly what a reader scans the timeline for.
    if shown[-1] is not samples[-1]:
        shown = shown + [samples[-1]]
    elided = len(samples) - len(shown)
    rows = [[s.get(h, "") for h in headers] for s in shown]
    head = (f"timeline: {len(samples)} samples every "
            f"{timeline.get('interval', '?')} cycles"
            + (f" (showing every {step}th + last, {elided} rows elided)"
               if step > 1 else ""))
    return head + "\n" + format_table(headers, rows, precision=3)


def _render_manifest(mani: Dict[str, Any]) -> str:
    sha = (mani.get("git_sha") or "?")
    line = (f"provenance: git {sha[:12]}"
            f"{'+dirty' if mani.get('git_dirty') else ''} "
            f"repro {mani.get('repro_version', '?')} "
            f"py{mani.get('python', '?')} on {mani.get('hostname', '?')} "
            f"at {mani.get('timestamp', '?')}")
    point = mani.get("point")
    if point:
        line += (f"\n  point: {point.get('workload')}/"
                 f"{point.get('machine')}/{point.get('policy')} "
                 f"n={point.get('instructions')} w={point.get('warmup')} "
                 f"params={point.get('params_digest', '')}"
                 + (f" variant={point['variant']}"
                    if point.get("variant") else ""))
    return line


def render_report(obj: Dict[str, Any]) -> str:
    """Full human-readable report for one stats file."""
    sections: List[str] = []
    result = obj.get("result")
    if result:
        sections.append(
            f"{result.get('workload', '?')} on {result.get('machine', '?')} "
            f"under {result.get('policy', '?')}: "
            f"{result.get('instructions', 0)} instructions, "
            f"{result.get('cycles', 0)} cycles, "
            f"IPC {result.get('ipc', 0.0):.4f}, "
            f"ABC {result.get('abc_total', 0)}, "
            f"AVF {result.get('avf', 0.0):.4f}")
    stats = obj.get("stats")
    if stats:
        sections.append(_render_counters(stats))
    timeline = obj.get("timeline")
    if timeline:
        sections.append(_render_timeline(timeline))
    prof = obj.get("host_profile")
    if prof:
        sections.append(
            f"host: {prof.get('kips', 0.0):.1f} KIPS, "
            f"{prof.get('cycles_per_second', 0.0):.0f} cycles/s over "
            f"{prof.get('wall_seconds', 0.0):.3f}s")
    trace = obj.get("trace_summary")
    if trace:
        counts = " ".join(f"{k}={v}" for k, v in
                          sorted(trace.get("counts", {}).items()))
        sections.append(f"trace: {trace.get('emitted', 0)} events "
                        f"({trace.get('dropped', 0)} dropped) {counts}")
    manifest = obj.get("manifest")
    if manifest:
        sections.append(_render_manifest(manifest))
    if not sections:
        return "empty stats file"
    return "\n\n".join(sections)
