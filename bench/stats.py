"""Order statistics for the benchmark's reports."""

from __future__ import annotations

import math
from fractions import Fraction

PERCENTILES = ("50", "90", "95", "99", "99.9")
MIN_BEYOND = 10


def rank(p: str, n: int) -> int:
    """1-based nearest-rank position of the p-th percentile among n samples."""
    return max(1, math.ceil(Fraction(p) * n / 100))


def beyond(p: str, n: int) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - rank(p, n)


def highest_percentile(n: int, candidates=PERCENTILES, min_beyond: int = MIN_BEYOND):
    """The highest candidate percentile with at least ``min_beyond`` samples
    above it, or None when even the lowest has fewer."""
    eligible = [p for p in candidates if beyond(p, n) >= min_beyond]
    return max(eligible, key=Fraction) if eligible else None


def percentile(values, p: str) -> float:
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]
