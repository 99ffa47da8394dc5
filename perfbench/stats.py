"""Statistics helpers: medians, percentiles, the tail estimator, self time.

Pure functions with no dependency on the program under test, so the
benchmark's own tests (``perfbench/tests``) can pin their behaviour.
"""

from __future__ import annotations

import statistics
from typing import Sequence

#: percentiles the tail estimator may report, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: a tail percentile needs at least this many samples strictly above it
TAIL_MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (``pct`` in 0..100).

    At ``pct=50`` this is exactly :func:`statistics.median`, so the tail
    estimator and the p50 share one definition and cannot disagree.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    xs = sorted(samples)
    if pct == 50.0:
        return statistics.median(xs)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(samples: Sequence[float],
         min_beyond: int = TAIL_MIN_BEYOND) -> tuple[float, float, int]:
    """The highest percentile of :data:`TAIL_PERCENTILES` that has at
    least ``min_beyond`` samples strictly above it.

    Returns ``(value, percentile, sample count)``.  The candidates end at
    the p50, so the result is never below the median; when not even the
    median has ``min_beyond`` samples beyond it the tail is undefined
    and this raises instead of falling back to some other order
    statistic (such as the minimum).
    """
    xs = sorted(samples)
    for pct in TAIL_PERCENTILES:
        value = percentile(xs, pct)
        if sum(1 for x in xs if x > value) >= min_beyond:
            return value, pct, len(xs)
    raise ValueError(
        f"tail undefined: {len(xs)} samples leave fewer than {min_beyond} "
        f"beyond the median (need at least {2 * min_beyond + 1})")


def union_length(intervals: Sequence[tuple[float, float]],
                 lo: float, hi: float) -> float:
    """Total length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[tuple[str, float, float, int]]) -> list[float]:
    """Self time of every span: its duration minus the part of its
    interval that its children cover.

    ``spans`` are ``(name, start, end, parent)`` with ``parent`` the
    index of the enclosing span or ``-1``.  Children that overlap one
    another are counted once, and a child reaching outside its parent
    only subtracts the part inside it.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_name, start, end, _parent) in enumerate(spans):
        covered = union_length(children.get(i, ()), start, end)
        out.append((end - start) - covered)
    return out
