"""Arithmetic shared by the benchmark and its proof runs: the tail
percentile rule, the quartile spread of repeated runs, the scaling by
reference times, the tracing overhead and the bound check."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def samples_beyond(n: int, pct: float) -> int:
    """Samples ranked above the nearest-rank ``pct`` percentile of ``n``."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, nearest-rank value) at the highest percentile of
    ``TAIL_LADDER`` with at least ``MIN_BEYOND`` samples beyond it; None
    when no percentile qualifies (fewer than 20 samples)."""
    ordered = sorted(values)
    for pct in TAIL_LADDER:
        if samples_beyond(len(ordered), pct) >= MIN_BEYOND:
            return pct, nearest_rank(ordered, pct)
    return None


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median, with quartiles as ``statistics.quantiles(values, n=4)`` gives
    them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


def worse_by(base: float, new: float, better: str) -> float:
    """Share of ``base`` by which ``new`` is worse; negative when better."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if base == 0:
        return 0.0 if new == base else math.inf
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def within_bound(base_median: float, new_median: float, better: str, bound: float) -> bool:
    """True when the new median is not worse than the base median by more
    than ``bound`` (a share of the base median)."""
    return worse_by(base_median, new_median, better) <= bound


def paired_overhead(untraced: list[float], traced: list[float]) -> dict:
    """Tracing overhead from alternating passes: ``traced[i]`` ran right
    after ``untraced[i]``, on the same inputs. ``seconds`` is the median of
    the paired differences. It is resolved only when it is positive and
    exceeds the untraced passes' own spread (their range), which needs at
    least two of them; otherwise drift in machine speed could account for
    all of it. Tracing adds work, so a negative median is drift too."""
    diffs = [t - u for u, t in zip(untraced, traced)]
    if not diffs:
        raise ValueError("no traced pass follows an untraced one")
    seconds = statistics.median(diffs)
    spread = max(untraced) - min(untraced) if len(untraced) >= 2 else math.inf
    return {"seconds": seconds, "pairs": len(diffs), "untraced_range_s": spread,
            "resolved": seconds > spread}


def scale_factors(refs: list[float], nominal: float) -> list[float]:
    """Factor of each segment of work, for segment ``k`` run between the
    reference times ``refs[k]`` and ``refs[k + 1]``: ``nominal`` over the
    mean of the two, so that a scaled time reads as seconds on a machine
    that runs the reference in ``nominal``."""
    if len(refs) < 2:
        raise ValueError("a segment needs a reference time on each side")
    return [nominal / (0.5 * (a + b)) for a, b in zip(refs, refs[1:])]
