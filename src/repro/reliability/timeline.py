"""Windowed AVF timelines from recorded ACE intervals.

Soft-error vulnerability has strong phase behaviour (the paper cites
characterisation work on exactly this): AVF spikes while the back-end
drains long-latency misses and collapses during compute phases. This
module turns an ``AceAccountant``'s recorded intervals into a per-window
AVF series, suitable for plotting or for windowed-vulnerability-bound
style analyses (cf. Soundararajan et al.'s AVF-bounded throttling).
"""

from typing import Iterable, List, Tuple


def avf_timeline(
    intervals: Iterable[Tuple[str, int, int, int]],
    total_bits: int,
    cycles: int,
    window: int = 1000,
) -> List[Tuple[int, float]]:
    """Per-window AVF over the run.

    Args:
        intervals: recorded (structure, start, end, bits) charges
            (``OutOfOrderCore(..., record_ace_intervals=True)``).
        total_bits: the machine's unprotected-bit count N.
        cycles: simulated duration T.
        window: window length in cycles.

    Returns:
        [(window_start_cycle, avf), ...] covering [0, cycles).
    """
    if window <= 0:
        raise ValueError("window must be positive")
    if total_bits <= 0 or cycles <= 0:
        raise ValueError("total_bits and cycles must be positive")
    n_windows = (cycles + window - 1) // window
    acc = [0] * n_windows
    for _structure, start, end, bits in intervals:
        start = max(0, start)
        end = min(end, cycles)
        w = start // window
        while start < end:
            boundary = min(end, (w + 1) * window)
            acc[w] += bits * (boundary - start)
            start = boundary
            w += 1
    out: List[Tuple[int, float]] = []
    for w in range(n_windows):
        span = min(window, cycles - w * window)
        out.append((w * window, acc[w] / (total_bits * span)))
    return out
