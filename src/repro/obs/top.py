"""``repro top``: a live in-terminal view of a running sweep.

Tails a run ledger (:mod:`repro.obs.ledger`) and redraws a compact
status screen — progress bar, per-worker state, cache-hit rate, KIPS
trajectory and an ETA — every refresh period until the ledger records
``sweep_done`` (or forever with ``--follow``). Rendering is a pure
function of the :class:`~repro.obs.ledger.SweepStatus`, so the view is
testable without a terminal and doubles as the post-mortem summary
behind ``repro report <ledger>``.
"""

import sys
import time
from typing import Any, Dict, List

from repro.obs.ledger import (
    SweepStatus,
    check_complete,
    load_status,
    point_label,
)

__all__ = ["render_status", "render_ledger_report", "run_top"]

#: redraw: move home + clear to end of screen (no full clear: avoids
#: flicker on terminals that repaint slowly)
_ANSI_HOME_CLEAR = "\x1b[H\x1b[J"


def _bar(frac: float, width: int = 30) -> str:
    frac = min(1.0, max(0.0, frac))
    filled = int(round(frac * width))
    return "#" * filled + "-" * (width - filled)


def _dur(seconds: float) -> str:
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    m, s = divmod(int(seconds), 60)
    if m < 60:
        return f"{m}m{s:02d}s"
    h, m = divmod(m, 60)
    return f"{h}h{m:02d}m"


def render_status(st: SweepStatus, now: float = None) -> str:
    """The ``repro top`` screen for one status snapshot (pure text)."""
    now = now if now is not None else time.time()
    lines: List[str] = []
    name = st.path or "<ledger>"
    state = ("done" if st.complete
             else "running" if st.started is not None else "waiting")
    lines.append(f"repro top — {name} [{state}]")

    if st.params:
        ctx = " ".join(f"{k}={v}" for k, v in sorted(st.params.items())
                       if not isinstance(v, (list, dict)))
        if ctx:
            lines.append(f"  sweep: {ctx}")
    mani = st.manifest
    if mani:
        sha = (mani.get("git_sha") or "?")[:12]
        dirty = "+dirty" if mani.get("git_dirty") else ""
        lines.append(f"  provenance: git {sha}{dirty} "
                     f"py{mani.get('python', '?')} "
                     f"host {mani.get('hostname', '?')}")

    total = st.total_points or max(st.terminal, 1)
    frac = st.terminal / total if total else 0.0
    counts = (f"done={st.done} cached={st.cached} errors={st.errors}")
    if st.quarantined:
        counts += f" quarantined={st.quarantined}"
    lines.append(f"  points: [{_bar(frac)}] {st.terminal}/{st.total_points}"
                 f"  {counts}")
    if st.worker_deaths or st.requeued:
        lines.append(f"  crash tolerance: {st.worker_deaths} worker "
                     f"death(s), {st.requeued} point(s) requeued")
    line = (f"  elapsed {_dur(st.elapsed_s)}"
            f"  cache-hit {st.cache_hit_rate:.0%}")
    if st.mean_kips:
        recent = [k for _, k in st.kips_trajectory[-8:]]
        line += (f"  KIPS mean {st.mean_kips:.1f}"
                 f" recent {sum(recent) / len(recent):.1f}")
    eta = st.eta_s()
    if eta is not None:
        line += f"  ETA {_dur(eta)}"
    lines.append(line)

    if st.workers:
        lines.append("  workers:")
        for pid in sorted(st.workers):
            w = st.workers[pid]
            age = max(0.0, now - w.last_ts)
            if w.dead:
                lines.append(f"    {pid:>8}  {w.points_done:>3} done  "
                             f"DEAD (work requeued)  [{_dur(age)} ago]")
                continue
            doing = w.current or f"idle after {w.last_event}"
            stale = "  (stale?)" if not st.complete and age > 60 else ""
            lines.append(f"    {pid:>8}  {w.points_done:>3} done  {doing}"
                         f"  [{_dur(age)} ago]{stale}")
    for label in st.error_points:
        lines.append(f"  ERROR {label} (see point_error in the ledger)")
    return "\n".join(lines)


def render_ledger_report(events: List[Dict[str, Any]],
                         path: str = "") -> str:
    """Post-mortem summary of a (finished) ledger for ``repro report``."""
    from repro.obs.ledger import summarize

    st = summarize(events, path=path)
    sections = [render_status(st, now=st.last_ts)]
    problems = check_complete(events)
    if problems:
        sections.append("ledger audit:")
        sections.extend(f"  {p}" for p in problems)
    else:
        sections.append("ledger audit: every point has exactly one "
                        "terminal event")
    errors = [e for e in events if e.get("ev") == "point_error"]
    for e in errors:
        tb = e.get("traceback", "").rstrip()
        sections.append(f"traceback for {point_label(e)}:\n{tb}")
    return "\n\n".join(sections)


def run_top(path: str, refresh_s: float = 1.0, once: bool = False,
            follow: bool = False, stream=None, max_wait_s: float = 0.0,
            ) -> int:
    """Tail ``path`` and redraw until the sweep completes.

    ``once`` renders a single snapshot (no ANSI control codes) — the CI
    and scripting mode. ``follow`` keeps tailing after ``sweep_done``
    (e.g. a ledger reused across sweeps). ``max_wait_s`` bounds the
    total watch time (0 = unbounded); exits 0 on a completed sweep,
    1 if any point errored or the wait timed out.
    """
    stream = stream if stream is not None else sys.stdout
    deadline = time.monotonic() + max_wait_s if max_wait_s else None
    while True:
        try:
            st = load_status(path)
        except FileNotFoundError:
            st = SweepStatus(path=path)
        if once:
            print(render_status(st), file=stream)
            return 1 if st.errors else 0
        print(_ANSI_HOME_CLEAR + render_status(st), file=stream, flush=True)
        if st.complete and not follow:
            return 1 if st.errors else 0
        if deadline is not None and time.monotonic() >= deadline:
            return 1
        time.sleep(refresh_s)
