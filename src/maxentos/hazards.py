"""Pair hazards: the conditional intensity between consecutive marginals.

For a stochastically ordered pair (F_prev, F_cur) the hazard

    l(t) = f_cur(t) / (F_prev(t) - F_cur(t))

drives everything downstream: the joint density integrates l between
consecutive coordinates, the copula kernels are the same integrals on the
[0, 1] scale, and the sampler inverts them.  Each PairHazard exposes an
antiderivative ``theta`` of l, valid separately on every separation
interval (an additive constant per interval is arbitrary), the difference
``lambda_between``, and the tail solver used by conditional sampling.
The piecewise and table routes share one segment layout (SegmentHazard).

theta diverges to +inf at the right end of each interval and possibly to
-inf at the left end, so evaluation stays strictly interior.
"""

from __future__ import annotations

import math

import numpy as np

from .cdfs import (MarginalCdf, OrderStatUniformCdf, _cut_ends, _newton_level,
                   _unit_gauss, _unit_rise_matrix)
from .errors import RootBracketFailure
from .intervals import IntervalSet, interval_arrays


def _cdf_gap_terms(fp: MarginalCdf, fc: MarginalCdf, t):
    """(a, b) with F_prev(t) - F_cur(t) = a - b, read from whichever side
    keeps the subtraction away from 1: the CDFs where F_prev <= 1/2, the
    survival functions (F_cur's first) above."""
    Fp = np.asarray(fp.cdf(t), dtype=float)
    left = Fp <= 0.5
    return (np.where(left, Fp, np.asarray(fc.sf(t), dtype=float)),
            np.where(left, np.asarray(fc.cdf(t), dtype=float), np.asarray(fp.sf(t), dtype=float)))


def _cdf_gap(fp: MarginalCdf, fc: MarginalCdf, t) -> np.ndarray:
    """F_prev(t) - F_cur(t) on the exact side (see _cdf_gap_terms)."""
    return np.subtract(*_cdf_gap_terms(fp, fc, t))


def _hazard_ratio(f, gap):
    """f / gap where both are positive, +inf where f > 0 meets a closed gap,
    0 where f is not positive: one masked pass, no gather."""
    f = np.asarray(f, dtype=float)
    pos = f > 0.0
    out = np.where(pos, math.inf, 0.0)
    np.divide(f, gap, out=out, where=pos & (gap > 0.0))
    return out if out.ndim else float(out)


class PairHazard:
    """Base class; subclasses fill in theta on each separation interval."""

    def __init__(self, fp: MarginalCdf, fc: MarginalCdf, psi: IntervalSet):
        self.fp = fp
        self.fc = fc
        self.psi = psi
        self._starts, self._ends = interval_arrays(psi)

    def ell(self, t):
        """Hazard values; +inf where the gap closes under positive density."""
        t = np.asarray(t, dtype=float)
        return _hazard_ratio(self.fc.pdf(t), _cdf_gap(self.fp, self.fc, t))

    def interval_index(self, t):
        """Index of the open interval containing each t, else -1."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.full(t.shape, -1, dtype=int)
        # the intervals are open and disjoint: at most one holds each t
        for j, (g, d) in enumerate(self.psi):
            idx = np.where((t > g) & (t < d), j, idx)
        return idx

    def theta(self, t):
        """Antiderivative of the hazard, per interval; must not be called
        outside the intervals (values there are unspecified)."""
        raise NotImplementedError

    def lambda_between(self, s, t):
        """Integral of the hazard from s to t (requires s <= t pointwise).

        +inf when the path leaves the interval of s; 0 on empty gaps.
        """
        s = np.atleast_1d(np.asarray(s, dtype=float))
        t = np.atleast_1d(np.asarray(t, dtype=float))
        s, t = np.broadcast_arrays(s, t)
        return self._between(s, t, lambda sel: self.theta(t[sel]) - self.theta(s[sel]))

    def _between(self, s, t, diff):
        """lambda_between(s, t) for arrays of one shape, with diff(sel) the
        theta(t) - theta(s) of the points sel selects."""
        same = np.zeros(s.shape, dtype=bool)
        # a tie inside an interval reads theta(t) - theta(s) = 0, as an
        # empty gap does, and keeps a grid with ties on the whole-array path
        for g, d in self.psi:
            same |= (g < s) & (s <= t) & (t < d)
        # theta is elementwise: with every row live it reads s and t whole
        if np.all(same):
            return diff(slice(None))
        out = np.where(t <= s, 0.0, math.inf)
        if np.any(same):
            out[same] = diff(same)
        return out

    def _tail_args(self, s, target):
        """s as an array, target broadcast to it, and the interval of each s.

        This places the conditioning points.  An s on no interval moves
        1e-12 of the width into the nearest interval (a closed end is at
        distance 0; on an unbounded interval, 1e-12 of the slack's scale)
        when within slack of it: 1e-9 times the widest finite interval, or
        1e-9 if none is finite, worked out only when some s strays.  Any
        other s raises RootBracketFailure.
        """
        s = np.array(s, dtype=float, ndmin=1)  # a contiguous copy to snap in
        idx = self.interval_index(s)
        off = idx < 0
        if np.any(off) and len(self.psi):
            g, d = self._starts, self._ends
            width = d - g
            scale = max(width[np.isfinite(width)], default=1.0)
            t = s[off][:, None]
            with np.errstate(invalid="ignore"):  # inf - inf: an infinite s stays off
                dist = np.minimum(np.abs(g - t), np.abs(d - t))
            dist[(t >= g) & (t <= d)] = 0.0
            k = np.argmin(dist, axis=1)
            nudge = 1e-12 * np.where(np.isfinite(width[k]), width[k], scale)
            moved = np.minimum(np.maximum(t[:, 0], g[k] + nudge), d[k] - nudge)
            s[off] = np.where(dist.min(axis=1) <= 1e-9 * scale, moved, t[:, 0])
            idx = self.interval_index(s)
        if np.any(idx < 0):
            raise RootBracketFailure(
                f"conditioning point(s) outside every separation interval, e.g. {s[idx < 0][0]!r}")
        return s, np.broadcast_to(np.asarray(target, dtype=float), s.shape), idx

    def solve_tail(self, s, target):
        """inf{t >= s : theta(t) - theta(s) >= target}, within s's interval."""
        raise NotImplementedError


class ExpPairHazard(PairHazard):
    """Both margins exponential, rate_prev > rate_cur; interval (0, inf).

    theta(t) = rate_cur * t + (rate_cur / drop) * log(1 - exp(-drop * t)),
    with drop = rate_prev - rate_cur; the tail equation inverts in closed
    form through log(1 + exp(.)).  A subclass reuses all of it on another
    scale by supplying the change of variable s(t) and its inverse.
    """

    # rate of a margin, change of variable s(t), its inverse, ds/dt: identity
    rate_of = staticmethod(lambda m: m.rate)
    s_of = t_of = staticmethod(lambda t: t)
    ds_dt = staticmethod(lambda t: 1.0)

    def __init__(self, fp: MarginalCdf, fc: MarginalCdf):
        super().__init__(fp, fc, IntervalSet(((0.0, float(self.t_of(math.inf))),)))
        self.lam = self.rate_of(fc)
        self.drop = self.rate_of(fp) - self.lam
        if self.drop <= 0:
            raise ValueError("exponential pair must have strictly decreasing rates")

    def theta(self, t):
        # log(1 - exp(-z)) needs expm1 below log 2 and log1p above
        with np.errstate(divide="ignore", invalid="ignore"):
            s = self.s_of(np.asarray(t, dtype=float))
            z = self.drop * s
            log_gap = np.where(z < math.log(2.0),
                               np.log(-np.expm1(-z)),
                               np.log1p(-np.exp(-z)))
        return self.lam * s + (self.lam / self.drop) * log_gap

    def ell(self, t):
        # gap = exp(-lam s)(1 - exp(-drop s)), stable deep in both tails
        t = np.asarray(t, dtype=float)
        # one pass over every t; the rows at or below 0 are replaced
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            denom = -np.expm1(-self.drop * self.s_of(t))
            live = self.lam / denom * self.ds_dt(t)
        out = np.where(t > 0.0, live, np.where(t == 0.0, math.inf, 0.0))
        return out if out.ndim else float(out)

    def solve_tail(self, s, target):
        s, target, _ = self._tail_args(s, target)
        y = self.theta(s) + target
        # theta(s) = (lam/drop) log(exp(drop s) - 1)  =>  exact inverse
        z = self.drop * y / self.lam
        return self.t_of(np.logaddexp(0.0, z) / self.drop)


class BetaPairHazard(ExpPairHazard):
    """Both margins beta_1_k, k_prev > k_cur; interval (0, 1).

    BetaOneKCdf(k) is ExponentialCdf(k) in s = -log(1 - t), so this is the
    exponential pair hazard on the s scale: theta(t) = theta_exp(s) and
    ell(t) = ell_exp(s) / (1 - t).
    """

    # s and ds/dt are +inf at and beyond t = 1
    rate_of = staticmethod(lambda m: float(m.k))
    s_of = staticmethod(lambda t: -np.log1p(-np.minimum(t, 1.0)))
    t_of = staticmethod(lambda s: -np.expm1(-s))
    ds_dt = staticmethod(lambda t: 1.0 / np.maximum(1.0 - t, 0.0))


class OrderStatPairHazard(PairHazard):
    """Consecutive order statistics of d iid uniforms; interval (0, 1).

    The hazard collapses to (d - i + 1) / (1 - t), so
    theta(t) = -(d - i + 1) log(1 - t), which inverts exactly.
    """

    def __init__(self, fp: OrderStatUniformCdf, fc: OrderStatUniformCdf):
        super().__init__(fp, fc, IntervalSet(((0.0, 1.0),)))
        if not (fp.d == fc.d and fc.i == fp.i + 1):
            raise ValueError("expected consecutive order statistics")
        self.c = float(fc.d - fc.i + 1)

    def theta(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return -self.c * np.log1p(-t)

    def ell(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            live = self.c / (1.0 - t)
        out = np.where((t > 0.0) & (t < 1.0), live, np.where(t >= 1.0, math.inf, 0.0))
        return out if out.ndim else float(out)

    def solve_tail(self, s, target):
        s, target, _ = self._tail_args(s, target)
        return -np.expm1(np.log1p(-s) - target / self.c)


class SegmentHazard(PairHazard):
    """theta laid out in segments over the separation intervals.

    Flat arrays over all intervals hold each segment's start _x0, theta at
    its start and end (_C, _top), and each interval's first and last
    segment.  A route supplies the rise into segment k, _rise(k, t), and
    its inverse _reach(k, w), the t where that rise reaches w; the tail
    solve finds the first segment whose end value reaches the level.
    """

    def _lay_out(self, parts, n: int):
        """Lay out per-interval n-tuples (starts, start values, end values, *own) flat."""
        sizes = np.array([len(p[0]) for p in parts], dtype=int)
        self._last = np.cumsum(sizes) - 1
        self._first = self._last + 1 - sizes
        self._x0, self._C, self._top, *own = (
            [np.concatenate(col) for col in zip(*parts)] or [np.empty(0)] * n)
        return own

    def _segment(self, t, idx):
        """Segment of each t on interval idx (the interval's first below it)."""
        k = np.searchsorted(self._x0, t, side="right") - 1
        return np.clip(k, self._first[idx], self._last[idx])

    def theta(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if not len(self._x0):
            return np.full(t.shape, np.nan)
        idx = self.interval_index(t)
        k = self._segment(t, idx)
        return np.where(idx >= 0, self._C[k] + self._rise(k, t), np.nan)

    def solve_tail(self, s, target):
        """inf{t >= s : theta(t) - theta(s) >= target}, up to just below the
        right end of s's interval."""
        s, target, idx = self._tail_args(s, target)
        y = self.theta(s) + target
        # the first segment, from s's on, whose end value reaches y
        k = self._segment(s, idx)
        for j, (a, last) in enumerate(zip(self._first, self._last)):
            sel = np.flatnonzero(idx == j)
            if sel.size:
                k[sel] = np.maximum(k[sel], a + np.searchsorted(self._top[a:last], y[sel]))
        with np.errstate(invalid="ignore"):  # inf - inf: no cap on an unbounded interval
            cap = self._ends[idx] - 1e-15 * (self._ends[idx] - s)
        # fmin also maps NaN, from theta(s) = +inf at a gap closed by
        # rounding, to the cap: no root lies below it
        t = np.fmin(np.maximum(self._reach(k, y - self._C[k]), s), cap)
        return np.where(target > 0.0, t, s)


def _segment_rise(u, f, alpha, g0):
    """Increase of theta over a length u >= 0 into a knot segment.

    On the segment the current density f is constant and the gap is
    g0 + alpha u.  Relative to the segment start the increase is
    (f u / g0) L(alpha u / g0) with L(z) = log1p(z) / z and L(0) = 1, which
    needs no test on alpha: slopes equal up to rounding give the parallel
    limit f u / g0.  Only a segment starting on a closed gap (g0 = 0) takes
    the log form (f / alpha) log(alpha u), which is -inf at its start.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        opened = g0 > 0.0
        r = u / np.where(opened, g0, 1.0)
        # z < -1 only by rounding past the zero of a closing gap
        z = np.maximum(alpha * r, -1.0)
        rel = f * r * np.where(z == 0.0, 1.0, np.log1p(z) / z)
        rise = np.where(opened, rel, f / alpha * np.log(alpha * u))
    return np.where(f > 0.0, rise, 0.0)


class PiecewisePairHazard(SegmentHazard):
    """Exact per-segment antiderivative for piecewise-linear margins.

    On a knot segment the current density f is constant and the gap is
    linear, so theta is the segment's start value C plus _segment_rise.
    The start values chain the segment rises across interior breakpoints
    and are anchored mid-interval.  The rise inverts in closed form.
    """

    def __init__(self, fp, fc, psi: IntervalSet):
        super().__init__(fp, fc, psi)
        parts = []
        for g, d in psi:
            edges = np.array(_cut_ends(fp.knots() + fc.knots(), g, d))
            mids = 0.5 * (edges[:-1] + edges[1:])
            f = np.asarray(fc.pdf(mids), dtype=float)
            alpha = np.asarray(fp.pdf(mids), dtype=float) - f
            # a gap below 0 at a start is rounding at a crossing: closed
            g0 = np.maximum(np.asarray(fp.cdf(edges[:-1]), dtype=float)
                            - np.asarray(fc.cdf(edges[:-1]), dtype=float), 0.0)
            rise = _segment_rise(np.diff(edges), f, alpha, g0)
            C = np.concatenate([[0.0], np.cumsum(rise[:-1])])
            m = len(mids) // 2
            C -= C[m] + _segment_rise(mids[m] - edges[m], f[m], alpha[m], g0[m])
            parts.append((edges[:-1], C, C + rise, f, alpha, g0))
        self._f, self._alpha, self._g0 = self._lay_out(parts, 6)

    def _rise(self, k, t):
        return _segment_rise(t - self._x0[k], self._f[k], self._alpha[k], self._g0[k])

    def _reach(self, k, w):
        """x0 + (g0 w / f) E(w alpha / f), E(v) = expm1(v) / v and E(0) = 1,
        or x0 + exp(w alpha / f) / alpha from a closed gap; x0 where f = 0,
        only on s's own segment at target 0, where the root is s."""
        f, alpha, g0 = self._f[k], self._alpha[k], self._g0[k]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            v = w * alpha / f
            rel = g0 * w / f * np.where(v == 0.0, 1.0, np.expm1(v) / v)
            u = np.where(g0 > 0.0, rel, np.exp(v) / alpha)
        return self._x0[k] + np.where(f > 0.0, u, 0.0)


def _graded_nodes(g: float, d: float, knots=()):
    """Strictly interior nodes of (g, d): 40 geometrically packed toward
    each end, 33 even ones across the middle half, and the knots."""
    w = d - g
    fr = np.geomspace(1e-12, 0.5, 40)
    left = g + w * fr
    right = d - w * fr[::-1]
    middle = g + w * np.linspace(0.25, 0.75, 33)
    inner = [float(k) for k in knots if g < k < d]
    nodes = np.unique(np.concatenate([left, middle, right, np.asarray(inner, dtype=float)]))
    return nodes[(nodes > g) & (nodes < d)]


def _legendre_sum(coef, k, z, slope: bool = False):
    """sum_j coef[j, k] P_j(z) elementwise and, with slope, its z-derivative
    (else zeros), by Clenshaw's recurrence over the degrees j: each step
    gathers one coefficient per point, so the work space is z's size."""
    b1 = b2 = d1 = d2 = np.zeros_like(z)
    for j in range(len(coef) - 1, -1, -1):
        # P_{j+1} = alpha z P_j + beta P_{j-1}, with beta of the next degree
        alpha, beta = (2.0 * j + 1.0) / (j + 1.0), -(j + 1.0) / (j + 2.0)
        if slope:
            d1, d2 = alpha * (b1 + z * d1) + beta * d2, d1
        b1, b2 = coef[j][k] + alpha * z * b1 + beta * b2, b1
    return b1, d1


class TableHazard(SegmentHazard):
    """Quadrature-table hazard for pairs without a closed form.

    Built on a pair record (marginals._Pair), whose density_and_gap reads
    f_cur and F_prev - F_cur at one point: on a pair transported to [0, 1]
    an ell call solves G^{-1} once.  The table reads ell only when built,
    at 32 Gauss-Legendre nodes on each panel between graded nodes: their
    weighted sums chain the segments' start and end values (anchored at
    the middle node), and one matrix product turns them into the Legendre
    series of the rise, inverted by Newton with ell's interpolant as slope.
    Unbounded intervals end where both survival functions drop below 1e-14;
    theta clamps to the node range, and a tail level past the last node's
    value answers there.
    """

    def __init__(self, pair):
        fp, fc, psi = pair.fp, pair.fc, pair.psi
        super().__init__(fp, fc, psi)
        self._density_and_gap = pair.density_and_gap
        parts = []
        knots = set(fp.knots()) | set(fc.knots())
        t, w = _unit_gauss(32)
        for g, d in psi:
            g_eff = g if math.isfinite(g) else min(float(fp.ppf(1e-14)), float(fc.ppf(1e-14))) - 1.0
            d_eff = d if math.isfinite(d) else max(float(fp.ppf(1.0 - 1e-14)),
                                                   float(fc.ppf(1.0 - 1e-14)))
            nodes = _graded_nodes(g_eff, d_eff, knots)
            h = np.diff(nodes)
            pts = nodes[:-1, None] + h[:, None] * t
            vals = np.asarray(self.ell(pts.ravel()), dtype=float).reshape(pts.shape)
            cum = np.concatenate([[0.0], np.cumsum((vals @ w) * h)])
            cum -= cum[len(cum) // 2]
            parts.append((nodes[:-1], cum[:-1], cum[1:], nodes[1:], h,
                          (vals @ _unit_rise_matrix(32)) * h[:, None]))
        self._x1, self._h, coef = self._lay_out(parts, 6)
        # one row per degree, so each Clenshaw step gathers from one row
        self._coef = np.ascontiguousarray(coef.T)

    def ell(self, t):
        return _hazard_ratio(*self._density_and_gap(np.asarray(t, dtype=float)))

    def _rise(self, k, t, slope: bool = False):
        """The series' rise into segment k at t, clamped to the segment and
        exactly 0 at its start, and with slope its t-derivative too."""
        z = np.clip(2.0 * (t - self._x0[k]) / self._h[k] - 1.0, -1.0, 1.0)
        rise, dz = _legendre_sum(self._coef, k, z, slope)
        rise = np.where(z > -1.0, rise, 0.0)
        return (rise, dz * (2.0 / self._h[k])) if slope else rise

    def _reach(self, k, w):
        # at or past a segment's end value: its end, as on the last node
        out = self._x1[k]
        inside = np.flatnonzero(w < self._top[k] - self._C[k])
        ki = k[inside]
        # Newton reads x in (start, end] of its segment only
        out[inside] = _newton_level(
            lambda x: self._rise(np.searchsorted(self._x0, x) - 1, x, slope=True),
            w[inside], self._x0[ki], self._x1[ki])
        return out


def pair_hazard(fp: MarginalCdf, fc: MarginalCdf, force_table: bool = False) -> PairHazard:
    """Best PairHazard for the pair, picked by the pair's route;
    force_table picks the quadrature route."""
    from .marginals import _pair  # marginals builds its records on this module
    pair = _pair(fp, fc)
    return TableHazard(pair) if force_table else pair.hazard
