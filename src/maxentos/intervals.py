"""Finite unions of disjoint open intervals on the extended real line."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class IntervalSet:
    """Ordered disjoint open intervals (g, d) with g < d.

    Endpoints may be -inf/+inf.  Used for the sets where consecutive
    CDFs are strictly separated, and for their complements.
    """

    intervals: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    def __post_init__(self):
        prev_end = -math.inf
        for g, d in self.intervals:
            if not g < d:
                raise ValueError(f"empty or inverted interval ({g}, {d})")
            if g < prev_end:
                raise ValueError("intervals overlap or are out of order")
            prev_end = d

    def __len__(self):
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def __getitem__(self, i):
        return self.intervals[i]

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def total_length(self) -> float:
        return float(sum(d - g for g, d in self.intervals))

    def locate(self, t: float, tol: float = 0.0) -> int:
        """Index of the interval with t in (g - tol, d + tol), else -1."""
        for j, (g, d) in enumerate(self.intervals):
            if g - tol < t < d + tol:
                return j
        return -1

    def contains_point(self, t: float) -> bool:
        return self.locate(t) >= 0

    def contains_gap(self, a: float, b: float, tol: float = 0.0) -> bool:
        """Whether the open gap (a, b) sits inside one interval.

        Containment is checked with endpoint slack tol; an empty gap
        (a >= b) is contained by convention.
        """
        if a >= b:
            return True
        for g, d in self.intervals:
            if a >= g - tol and b <= d + tol:
                return True
        return False

    def complement(self, lo: float = -math.inf, hi: float = math.inf):
        """Closed intervals [c, e] making up [lo, hi] minus this set.

        Returned as (c, e) pairs, possibly degenerate (c == e) at touching
        endpoints; degenerate pieces are dropped except when the whole
        complement is a single point.
        """
        pieces = []
        cursor = lo
        for g, d in self.intervals:
            if g > cursor:
                pieces.append((cursor, min(g, hi)))
            cursor = max(cursor, d)
            if cursor >= hi:
                break
        if cursor < hi:
            pieces.append((cursor, hi))
        return [(c, e) for c, e in pieces if e >= c]


def merge_closed_intervals(pieces):
    """Union of closed intervals [a, b]; returns merged sorted list."""
    pieces = sorted((a, b) for a, b in pieces if b >= a)
    merged = []
    for a, b in pieces:
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def interval_arrays(iset: "IntervalSet"):
    """Start and end arrays of an interval set, for vectorized lookups."""
    starts = np.array([g for g, _ in iset], dtype=float)
    ends = np.array([d for _, d in iset], dtype=float)
    return starts, ends


def inside_mask(iset: "IntervalSet", t) -> np.ndarray:
    """Boolean mask of points strictly inside some interval of the set."""
    t = np.asarray(t, dtype=float)
    inside = np.zeros(t.shape, dtype=bool)
    for g, d in iset:
        inside |= (t > g) & (t < d)
    return inside


def gap_inside_mask(iset: "IntervalSet", a, b, tol: float) -> np.ndarray:
    """Rows where the open gap (a, b) sits inside one interval of the set.

    Empty gaps (b <= a + tol) are contained by convention; interval
    endpoints get tol slack.  A NaN start counts as past every interval
    start, so only the end decides its row.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lo = a + tol
    contained = b <= lo
    for g, d in iset:
        contained |= ~(lo < g) & (b <= d + tol)
    return contained

