"""Summary statistics for timing samples."""

from __future__ import annotations

import math

import numpy as np

MIN_BEYOND = 10     # samples a tail percentile needs above it


def has_tail(n: int, pct: float) -> bool:
    """True when ``n`` samples rank at least MIN_BEYOND above the
    nearest-rank ``pct`` percentile, so that percentile may be reported."""
    return n - math.ceil(pct / 100.0 * n) >= MIN_BEYOND


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``pct``
    percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values) -> float:
    if len(values) == 0:
        raise ValueError("median of no samples")
    return float(np.median(values))
