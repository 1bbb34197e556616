"""One-dimensional continuous CDFs and generalized inverses.

Every CDF object is vectorized: ``cdf``, ``sf``, ``pdf`` and ``ppf`` accept
scalars or numpy arrays, and return a float for a scalar.  ``ppf``
implements the generalized inverse

    J^{-1}(t) = inf{s in R : J(s) >= t},   inf(empty) = +inf, inf(R) = -inf,

so ``ppf(t) = -inf`` for t <= 0 (every s satisfies J(s) >= 0) and
``ppf(t) = +inf`` for t > 1 or when the level is never attained.  These
conventions live in ``MarginalCdf`` alone; a family writes ``_cdf``,
``_pdf`` and ``_quantile`` (and ``_sf`` where 1 - cdf cancels) on float
arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InvalidMarginal, RootBracketFailure

_XLOGX_CLIP = 1e-300
#: relative tolerance of the tanh-sinh panel rule behind every 1-D quadrature;
#: its absolute tolerance only lets a panel that reads zero throughout settle
_PANEL_RTOL = 1e-14
_PANEL_ATOL = 5e-324
#: the tanh-sinh rule's levels: the first holds every abscissa up to
#: _TS_MINLEVEL, each later one halves the step, up to _TS_MAXLEVEL; level
#: 0 has _TS_BASE_STEPS steps on each side
_TS_MINLEVEL, _TS_MAXLEVEL, _TS_BASE_STEPS = 2, 10, 8
#: reads _newton_level gives a point before it raises
_NEWTON_READS = 100
#: distinct levels an AverageCdf keeps solved; past it new levels are solved
#: and not kept
_MEMO_LEVELS = 1 << 16
#: rows a density evaluates at once on a plain array or on the CLI's grid,
#: and points per integrand call of the battery's rules: a block of a few
#: arrays of this length stays in a core's L2 cache, and its temporaries
#: reuse the pages of the block before
_BLOCK = 1 << 15


def _per_distinct(fn, x):
    """fn(x) for an elementwise fn, evaluated once per distinct value of x.

    x is flattened and fn reads its sorted distinct values (NaNs as one,
    -0.0 with 0.0), and the results are gathered back into x's shape.  On a
    tensor grid, whose columns repeat a few levels, fn's cost follows the
    number of levels instead of the number of points.
    """
    x = np.asarray(x, dtype=float)
    levels, inverse = np.unique(x.ravel(), return_inverse=True)
    return np.asarray(fn(levels), dtype=float)[inverse].reshape(x.shape)


def _by_row_blocks(fn, x):
    """fn(x) for a density fn that reads each row of x on its own: a plain
    (n, d) array of more than _BLOCK rows goes to fn _BLOCK rows at a time
    and the values are joined, so they keep their bits; a level block, or
    anything smaller, goes whole."""
    if isinstance(x, _LevelBlock) or np.ndim(x) != 2 or len(x) <= _BLOCK:
        return fn(x)
    x = np.asarray(x, dtype=float)
    return np.concatenate([fn(x[k:k + _BLOCK]) for k in range(0, len(x), _BLOCK)])


class _LevelBlock(np.ndarray):
    """An (n, d) block of points that carries, per column j, the pair
    levels[j] = (values, index) with column j equal to values[index].

    A quadrature rule builds it (_level_block), knowing which few values
    each column repeats.  Only that array carries the pairs: its slices,
    copies and arithmetic results read levels as None, so code that
    treats it as a plain array sees one.
    """

    levels = None


def _level_block(levels) -> _LevelBlock:
    """The (n, d) block whose column j is values[index] for the pair
    levels[j] = (values, index), and which carries those pairs."""
    return _Columns(None, tuple(levels)).block()


class _Columns:
    """The columns of a block of points, for the terms of a density that
    each read one coordinate.

    On a plain array a term reads the points of its column.  On a level
    block it reads the column's values once each and gathers them by the
    index: the same bits for an elementwise term, at a cost that follows
    the values, not the points.  Work that reads several coordinates of a
    point (masks, gaps, sums) reads column(j).  Every index is in range,
    so the gathers take mode "clip", which spares them the copy of out
    that mode "raise" buffers.
    """

    def __init__(self, points=None, levels=None):
        # (d, n) columns; on a level block None until a column is asked for
        self._points = points
        self.levels = levels

    @classmethod
    def of(cls, x, rows=None):
        """The columns of the rows of x that the mask rows selects (all
        when None); x is an (n, d) array, a level block or columns."""
        if isinstance(x, cls):
            return x
        levels = x.levels if isinstance(x, _LevelBlock) else None
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if levels is None:
            return cls((x if rows is None else x[rows]).T)
        return cls(x.T, levels) if rows is None else cls(levels=levels).rows(rows)

    def __len__(self):
        return len(self.levels) if self.levels is not None else len(self._points)

    def rows(self, mask):
        """The columns of the points that mask selects."""
        if self.levels is None:
            return _Columns(self._points[:, mask])
        return _Columns(None, tuple((values, index[mask]) for values, index in self.levels))

    def buffers(self, k):
        """k arrays for reads to gather into on a level block, as long as
        a column; Nones on a plain array, whose reads are new arrays."""
        if self.levels is None:
            return (None,) * k
        return tuple(np.empty(len(self.levels[0][1])) for _ in range(k))

    def _gathered(self):
        """The (d, n) points; on a level block gathered on first use."""
        if self._points is None:
            self._points = np.empty((len(self.levels), len(self.levels[0][1])))
            for row, (values, index) in zip(self._points, self.levels):
                np.take(values, index, out=row, mode="clip")
        return self._points

    def column(self, j):
        """Column j at every point."""
        return self._gathered()[j]

    def read(self, j, fn, out=None):
        """fn at every point of column j, for an elementwise fn that
        returns a new array, so the caller may write into the result.  On
        a level block the values are gathered into out when it is given,
        an array as long as the column."""
        if self.levels is None:
            return fn(self._points[j])
        values, index = self.levels[j]
        return np.take(fn(values), index, out=out, mode="clip")

    def map(self, fn):
        """The columns fn(x) for an elementwise fn, from one call on all
        of them: G^{-1} solves the union of their levels once."""
        if self.levels is None:
            return _Columns(fn(self._points))
        values = fn(np.concatenate([v for v, _ in self.levels]))
        ends = np.cumsum([len(v) for v, _ in self.levels])[:-1]
        return _Columns(None, tuple(zip(np.split(values, ends),
                                        (index for _, index in self.levels))))

    def map_each(self, fns):
        """The columns fns[j](column j), for elementwise fns."""
        if self.levels is None:
            out = np.empty(self._points.shape)
            for row, fn, col in zip(out, fns, self._points):
                row[...] = fn(col)
            return _Columns(out)
        return _Columns(None, tuple((fn(values), index)
                                    for fn, (values, index) in zip(fns, self.levels)))

    def between(self, hz, i, out=None):
        """hz.lambda_between(column i - 2, column i - 1), a new array or
        out; theta reads each of the two columns once, on a level block
        each of their levels once."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return hz._between(self.column(i - 2), self.column(i - 1),
                               self.read(i - 1, hz.theta, out=out), self.read(i - 2, hz.theta))

    def block(self, like=None):
        """The points as an (n, d) array: on a level block one that
        carries the levels, else a plain one, laid out like the array
        like when given."""
        if self.levels is not None:
            block = self._gathered().T.view(_LevelBlock)
            block.levels = self.levels
            return block
        if like is None:
            return self._points.T
        out = np.empty_like(like)
        for j, col in enumerate(self._points):
            out[:, j] = col
        return out


@functools.lru_cache(maxsize=None)
def _unit_gauss(q: int):
    """The q-point Gauss-Legendre rule on [0, 1]: nodes 0.5 (x + 1) and
    weights 0.5 w of the rule on [-1, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(q)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    t.flags.writeable = w.flags.writeable = False
    return t, w


@functools.lru_cache(maxsize=None)
def _unit_rise_matrix(q: int):
    """(q, q + 1) matrix, read-only, from a function's values at the nodes of
    the unit rule to the Legendre coefficients, in z = 2 v - 1, of the
    integral from 0 to v of its interpolant, whose own are the rule's sums
    (2 j + 1) sum_i w_i P_j(z_i) f_i."""
    t, w = _unit_gauss(q)
    P = np.polynomial.legendre.legvander(2.0 * t - 1.0, q - 1)
    to_series = P * w[:, None] * (2.0 * np.arange(q) + 1.0)
    # d/dv = 2 d/dz: the z-antiderivative from -1, halved
    m = 0.5 * np.polynomial.legendre.legint(to_series, lbnd=-1.0, axis=1)
    m.flags.writeable = False
    return m


def _cut_ends(cuts, lo: float, hi: float):
    """lo, the cuts strictly inside (lo, hi) in order, and hi."""
    return [lo, *sorted({float(c) for c in cuts if lo < float(c) < hi}), hi]


@functools.lru_cache(maxsize=None)
def _tanh_sinh_levels():
    """The levels of the tanh-sinh rule on [-1, 1], read-only: per level
    its step h, and the complements 1 - x_j and weights w_j of its new
    abscissae x_j = tanh(pi/2 sinh(j h)) in [0, 1), each read at -x_j
    too.  The first level holds every abscissa of levels 0 to
    _TS_MINLEVEL in level order (x_0 = 0 at half weight, since both sides
    read it), each later level its odd j.  Also the counts of level 0's
    abscissae and of levels 0 and 1's, which the first error estimate
    sums over.

    Level 0 takes _TS_BASE_STEPS steps up to the j h at which 1 - x_j
    falls to 4 times the smallest normal float; each level halves h.
    """
    fmin = 4.0 * np.finfo(float).smallest_normal
    h0 = np.float64(math.asinh(math.log(2.0 / fmin - 1.0) / math.pi) / _TS_BASE_STEPS)
    pairs = []
    for k in range(_TS_MAXLEVEL + 1):
        h = h0 / 2**k
        top = _TS_BASE_STEPS * 2**k
        jh = (np.arange(top + 1) if k == 0 else np.arange(1, top + 1, 2)) * h
        u1, u2 = math.pi / 2 * np.cosh(jh), math.pi / 2 * np.sinh(jh)
        with np.errstate(over="ignore"):
            w = u1 / np.cosh(u2)**2
            xc = 1 / (np.exp(u2) * np.cosh(u2))
        if k == 0:
            w[0] = w[0] / 2
        pairs.append((h, xc, w))
    head = pairs[:_TS_MINLEVEL + 1]
    first = (head[-1][0], np.concatenate([p[1] for p in head]),
             np.concatenate([p[2] for p in head]))
    levels = (first, *pairs[_TS_MINLEVEL + 1:])
    for _, xc, w in levels:
        xc.flags.writeable = w.flags.writeable = False
    return levels, pairs[0][1].size, pairs[0][1].size + pairs[1][1].size


def _ts_nearest_end(rec, x, f, w, bad, far, pick, beyond):
    """Update rec, rows (x, f, w) of the node nearest one end, over all
    levels so far, at which fn is finite and the weight nonzero, from one
    level's nodes on that side (one row per panel); pick finds the node
    nearest the end and beyond(x, x0) says it is nearer than x0."""
    x = np.where(bad, far, x)
    at = (np.arange(x.shape[0]), pick(x, axis=1))
    cand = np.array([x[at], f[at], w[at]])
    new = beyond(cand[0], rec[0])
    rec[:, new] = cand[:, new]


def _tanh_sinh(fn, a, b):
    """(integrals, converged) of fn over the panels [a[k], b[k]] by
    tanh-sinh quadrature, for 1-D float arrays a and b.

    This is the algorithm of scipy.integrate.tanhsinh (scipy 1.17) on a
    real integrand at minlevel _TS_MINLEVEL, maxlevel _TS_MAXLEVEL, atol
    _PANEL_ATOL and rtol _PANEL_RTOL, bit for bit: fn is read once at
    every panel's midpoint (next to its finite end on a half-line, at 0
    on the line), where NaN fails the panel, and then once per level on
    the nodes of all panels still open, in one (panels, nodes) array.
    Limits that are equal give 0; reversed ones the negated integral; an
    infinite end is mapped onto a finite one, by x = 1/t - 1 + a on a
    half-line and x = t / (1 - t^2) on the line.  Nodes that round onto
    an end weigh 0.  Each level's Euler-Maclaurin sum replaces the
    non-finite values of fn with its value at the valid node nearest that
    end, and Bailey's error estimate stops a panel on rtol, on atol or on
    a non-finite integral.  A panel still open after the last level
    returns its last estimate, unconverged.
    """
    a, b = a.copy(), b.copy()
    levels, n0, n01 = _tanh_sinh_levels()
    eps = np.finfo(float).eps
    val, ok = np.zeros(a.size), np.zeros(a.size, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        c = (a + b) / 2
        left, right = np.isinf(a), np.isinf(b)
        c[left] = b[left] - 1.0
        c[right] = a[right] + 1.0
        c[left & right] = 0.0
        fc = np.asarray(fn(c), dtype=float)
        # onto finite lo <= hi: equal ends read 0 (NaN at a NaN midpoint);
        # a reversed panel is negated at the end
        same = a == b
        a[same] = b[same] = 1.0
        flip = b < a
        a[flip], b[flip] = b[flip], a[flip]
        both = np.isinf(a) & np.isinf(b)
        a[both], b[both] = -1.0, 1.0
        left = np.isinf(a)
        a[left], b[left] = -b[left], -a[left]
        right = np.isinf(b)
        a0 = a.copy()
        a[right], b[right] = 0.0, 1.0
        nan = np.isnan(a) | np.isnan(b) | np.isnan(fc)
        val[nan] = math.nan
        ok[same] = True
        idx = np.flatnonzero(~same & ~nan)
        lo, hi, a0 = a[idx, None], b[idx, None], a0[idx, None]
        both, right, left = both[idx], right[idx], left[idx]
        # (x, f, w) at the valid node nearest each end, over all levels
        near_hi = np.array([[-math.inf], [math.nan], [0.0]]).repeat(idx.size, axis=1)
        near_lo = np.array([[math.inf], [math.nan], [0.0]]).repeat(idx.size, axis=1)
        prev = prev2 = None
        for h, xc, w in levels:
            if idx.size == 0:
                break
            half = (hi - lo) / 2
            xj = np.concatenate((-half * xc + hi, half * xc + lo), axis=-1)
            wj = w * half
            wj = np.concatenate((wj, wj), axis=-1)
            wj[(xj <= lo) | (xj >= hi)] = 0
            x = xj.copy()
            infinite = both.any() or right.any()
            if infinite:
                x[both] = x[both] / (1 - x[both]**2)
                x[right] = 1 / x[right] - 1 + a0[right]
                x[left] *= -1
            f = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
            if infinite:
                f[both] *= (1 + xj[both]**2) / (1 - xj[both]**2)**2
                f[right] *= xj[right]**-2.
            # Euler-Maclaurin sum: the first half of each row runs toward hi
            m = xc.size
            bad = ~np.isfinite(f) | (wj == 0)
            _ts_nearest_end(near_hi, xj[:, :m], f[:, :m], wj[:, :m], bad[:, :m],
                            -math.inf, np.argmax, np.greater)
            _ts_nearest_end(near_lo, xj[:, m:], f[:, m:], wj[:, m:], bad[:, m:],
                            math.inf, np.argmin, np.less)
            d4 = np.maximum(np.abs(near_lo[1] * near_lo[2]), np.abs(near_hi[1] * near_hi[2]))
            np.copyto(f[:, :m], near_hi[1][:, None], where=bad[:, :m])
            np.copyto(f[:, m:], near_lo[1][:, None], where=bad[:, m:])
            fw = f * wj
            est = np.sum(fw, axis=-1) * h
            if prev is None:
                # the first level holds levels 0 and 1: their estimates
                sides = fw.reshape(idx.size, 2, -1)
                prev = np.sum(sides[:, :, :n01].reshape(idx.size, -1), axis=-1) * (2 * h)
                prev2 = np.sum(sides[:, :, :n0].reshape(idx.size, -1), axis=-1) * (4 * h)
            else:
                est = prev / 2 + est
            # Bailey's error estimate
            d1 = np.abs(est - prev)
            d2 = np.abs(est - prev2)
            d3 = eps * np.max(np.abs(fw), axis=-1)
            d5 = eps * np.abs(est)
            temp = np.where(d1 > 0, d1**(np.log(d1) / np.log(d2)), 0)
            aerr = np.maximum(np.maximum(np.maximum(temp, d1**2), d3), d4)
            aerr = np.minimum(np.maximum(aerr, d5), d1)
            conv = (aerr / np.abs(est) < _PANEL_RTOL) | (aerr < _PANEL_ATOL)
            stop = conv | ~np.isfinite(est)
            if stop.any():
                val[idx[stop]] = est[stop]
                ok[idx[stop]] = conv[stop]
                keep = ~stop
                idx, lo, hi, a0, both, right, left, est, prev = (
                    v[keep] for v in (idx, lo, hi, a0, both, right, left, est, prev))
                near_hi, near_lo = near_hi[:, keep], near_lo[:, keep]
            prev2, prev = prev, est
        if idx.size:
            val[idx] = est
    val[flip] *= -1
    return val, ok


def _panel_integral(fn, a, b):
    """int_{a[k]}^{b[k]} fn(t) dt for every panel k, by one tanh-sinh rule
    (_tanh_sinh) over all panels.

    fn is elementwise and takes a 1-D array of nodes: one call at the
    panels' midpoints, then one per level on the nodes of every panel
    still open.  The rule resolves log endpoint singularities and infinite
    ends; it may read fn at a panel end or, for an infinite end, at +-inf,
    with zero weight there.  A panel with finite ends and a finite value
    on which the rule did not converge is integrated again, once, as its
    two halves, by one more rule over all such halves.  On a panel at most
    4 ulps wide the rule's nodes round onto a few floats, those on an end
    weighted 0, and it returns NaN or a value far off: such a panel, in
    either direction, takes the midpoint rule instead.  A panel with equal
    ends keeps the rule's exact 0, with no further read of fn.
    """
    a, b = np.array(a, dtype=float, ndmin=1), np.array(b, dtype=float, ndmin=1)
    if a.size == 0:
        return np.zeros(0)
    val, ok = _tanh_sinh(fn, a, b)
    redo = ~ok & np.isfinite(val) & np.isfinite(a) & np.isfinite(b)
    if np.any(redo):
        lo, hi = a[redo], b[redo]
        mid = 0.5 * (lo + hi)
        halves = _tanh_sinh(fn, np.concatenate([lo, mid]), np.concatenate([mid, hi]))[0]
        val[redo] = halves[:mid.size] + halves[mid.size:]
    width = np.abs(b - a)
    narrow = np.isfinite(a) & np.isfinite(b) & (width > 0.0) & (
        width <= 4.0 * np.spacing(np.fmax(np.abs(a), np.abs(b))))
    if np.any(narrow):
        lo, hi = a[narrow], b[narrow]
        val[narrow] = (hi - lo) * np.asarray(fn(0.5 * (lo + hi)), dtype=float)
    return val


def xlogx(p):
    """p * log(p) with the 0 log 0 -> 0 convention (clip below 1e-300)."""
    p = np.asarray(p, dtype=float)
    live = p > _XLOGX_CLIP
    # in place on one temporary: p log p where live, 0 elsewhere
    out = np.where(live, p, 1.0)
    np.log(out, out=out)
    out *= p
    out[~live] = 0.0
    return out


def _float_out(out, x):
    """out as a float when the input x was a scalar or 0-d."""
    return float(out) if x.ndim == 0 else out


class MarginalCdf:
    """Base class for continuous one-dimensional CDFs.

    The public methods convert their input to a float array once and
    return a float for a scalar; ``ppf`` owns the generalized inverse's
    ends.  A family implements ``_cdf``, ``_pdf`` and ``_quantile``, the
    last on levels in (0, 1] only, and ``_sf`` where 1 - cdf cancels.
    """

    #: left/right support endpoints (extended reals)
    support: tuple[float, float] = (-math.inf, math.inf)
    is_absolutely_continuous: bool = True

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return _float_out(self._cdf(x), x)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        return _float_out(self._sf(x), x)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return _float_out(self._pdf(x), x)

    def ppf(self, u):
        """-inf at u <= 0, +inf at u > 1, NaN at NaN, the family's quantile
        in between; the family reads only the levels in (0, 1]."""
        u = np.asarray(u, dtype=float)
        live = (u > 0.0) & (u <= 1.0)
        if live.all():
            return _float_out(self._quantile(u), u)
        out = np.where(u > 1.0, math.inf, np.where(u <= 0.0, -math.inf, math.nan))
        out[live] = self._quantile(u[live])
        return _float_out(out, u)

    def _cdf(self, x):
        raise NotImplementedError

    def _sf(self, x):
        """Survival 1 - cdf; overridden wherever the subtraction cancels."""
        return 1.0 - self.cdf(x)

    def _pdf(self, x):
        raise NotImplementedError

    def _quantile(self, u):
        raise NotImplementedError

    def knots(self):
        """Breakpoints useful as quadrature split points (finite only)."""
        return [s for s in self.support if math.isfinite(s)]

    def entropy(self) -> float:
        """Differential entropy -int f log f, by adaptive quadrature."""
        if not self.is_absolutely_continuous:
            return -math.inf
        lo, hi = self.support
        edges = _cut_ends(self.knots(), lo, hi)
        return float(np.sum(_panel_integral(lambda t: -xlogx(self.pdf(t)),
                                            edges[:-1], edges[1:])))

    def to_dict(self) -> dict:
        raise NotImplementedError(f"{type(self).__name__} has no file representation")


@dataclass(frozen=True)
class UniformCdf(MarginalCdf):
    """Uniform distribution on (a, b)."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise InvalidMarginal(f"uniform requires finite a < b, got ({self.a}, {self.b})")

    @property
    def support(self):
        return (self.a, self.b)

    def _cdf(self, x):
        return np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)

    def _pdf(self, x):
        inside = (x > self.a) & (x < self.b)
        return np.where(inside, 1.0 / (self.b - self.a), 0.0)

    def _quantile(self, u):
        return self.a + u * (self.b - self.a)

    def entropy(self) -> float:
        return math.log(self.b - self.a)

    def knots(self):
        return [self.a, self.b]

    def to_dict(self):
        return {"family": "uniform", "a": self.a, "b": self.b}


@dataclass(frozen=True)
class ExponentialCdf(MarginalCdf):
    """Exponential distribution with given rate, support (0, inf)."""

    rate: float

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise InvalidMarginal(f"exponential rate must be positive, got {self.rate}")

    @property
    def support(self):
        return (0.0, math.inf)

    def _cdf(self, x):
        # np.maximum keeps NaN, so NaN reads NaN as in the other families
        return -np.expm1(-self.rate * np.maximum(x, 0.0))

    def _sf(self, x):
        return np.exp(-self.rate * np.maximum(x, 0.0))

    def _pdf(self, x):
        return np.where(x > 0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)), 0.0)

    def _quantile(self, u):
        with np.errstate(divide="ignore"):
            return -np.log1p(-u) / self.rate

    def entropy(self) -> float:
        return 1.0 - math.log(self.rate)

    def knots(self):
        return [0.0]

    def to_dict(self):
        return {"family": "exponential", "rate": self.rate}


@dataclass(frozen=True)
class BetaOneKCdf(MarginalCdf):
    """Distribution with density k (1-t)^(k-1) on (0, 1), integer k >= 1."""

    k: int

    def __post_init__(self):
        if not (isinstance(self.k, (int, np.integer)) and self.k >= 1):
            raise InvalidMarginal(f"beta_1_k requires integer k >= 1, got {self.k}")

    @property
    def support(self):
        return (0.0, 1.0)

    def _cdf(self, x):
        t = np.clip(x, 0.0, 1.0)
        # -expm1(k log1p(-t)) keeps relative accuracy down to subnormal t
        with np.errstate(divide="ignore"):
            return -np.expm1(self.k * np.log1p(-t))

    def _sf(self, x):
        return (1.0 - np.clip(x, 0.0, 1.0)) ** self.k

    def _pdf(self, x):
        inside = (x > 0.0) & (x < 1.0)
        t = np.clip(x, 0.0, 1.0)
        return np.where(inside, self.k * (1.0 - t) ** (self.k - 1), 0.0)

    def _quantile(self, u):
        with np.errstate(divide="ignore"):
            return -np.expm1(np.log1p(-u) / self.k)

    def entropy(self) -> float:
        return (self.k - 1.0) / self.k - math.log(self.k)

    def knots(self):
        return [0.0, 1.0]

    def to_dict(self):
        return {"family": "beta_1_k", "k": int(self.k)}


class PiecewiseLinearCdf(MarginalCdf):
    """CDF linear between knots (x_j, F_j).

    Abscissae must be strictly increasing and the ordinates must run from
    exactly 0 to exactly 1, nondecreasing.  The density is piecewise
    constant; a zero-slope segment carries no mass.

    ``absolutely_continuous=False`` marks the object as a piecewise
    approximation of a singular CDF: evaluation still works but the
    distribution is treated as having no density (entropy -inf).
    """

    def __init__(self, knots, absolutely_continuous: bool = True):
        knots = [(float(x), float(F)) for x, F in knots]
        if len(knots) < 2:
            raise InvalidMarginal("piecewise_linear needs at least two knots")
        xs = np.array([x for x, _ in knots])
        Fs = np.array([F for _, F in knots])
        if not np.all(np.isfinite(xs)) or not np.all(np.isfinite(Fs)):
            raise InvalidMarginal("piecewise_linear knots must be finite")
        if np.any(np.diff(xs) <= 0):
            raise InvalidMarginal("piecewise_linear abscissae must be strictly increasing")
        if np.any(np.diff(Fs) < 0):
            raise InvalidMarginal("piecewise_linear ordinates must be nondecreasing")
        if Fs[0] != 0.0 or Fs[-1] != 1.0:
            raise InvalidMarginal("piecewise_linear ordinates must run from 0 to 1")
        self.xs = xs
        self.Fs = Fs
        self.slopes = np.diff(Fs) / np.diff(xs)
        self.is_absolutely_continuous = bool(absolutely_continuous)

    @property
    def support(self):
        # points where the CDF actually leaves 0 and first reaches 1
        lo = self.xs[np.max(np.nonzero(self.Fs == 0.0))]
        hi = self.xs[np.min(np.nonzero(self.Fs == 1.0))]
        return (float(lo), float(hi))

    def _cdf(self, x):
        return np.interp(x, self.xs, self.Fs)

    def _pdf(self, x):
        seg = np.searchsorted(self.xs, x, side="right") - 1
        inside = (seg >= 0) & (seg < len(self.slopes))
        seg = np.clip(seg, 0, len(self.slopes) - 1)
        return np.where(inside, self.slopes[seg], 0.0)

    def _quantile(self, u):
        # Fs[j-1] < u <= Fs[j], since Fs runs from 0 to 1 and u is in (0, 1]
        j = np.searchsorted(self.Fs, u, side="left")
        frac = (u - self.Fs[j - 1]) / (self.Fs[j] - self.Fs[j - 1])
        interp = self.xs[j - 1] + frac * (self.xs[j] - self.xs[j - 1])
        return np.where(self.Fs[j] == u, self.xs[j], interp)

    def entropy(self) -> float:
        if not self.is_absolutely_continuous:
            return -math.inf
        dF = np.diff(self.Fs)
        mass = dF > 0
        return float(-np.sum(dF[mass] * np.log(self.slopes[mass])))

    def knots(self):
        return [float(x) for x in self.xs]

    def to_dict(self):
        d = {"family": "piecewise_linear", "knots": [[float(x), float(F)] for x, F in zip(self.xs, self.Fs)]}
        if not self.is_absolutely_continuous:
            d["absolutely_continuous"] = False
        return d


def _newton_level(read, targets, lo, hi):
    """inf{s in [lo, hi] : F(s) >= target} by bracketed Newton.

    F is nondecreasing and the level lies in [lo, hi].  Each iterate makes
    one call read(x, idx) on the 1-D array x of the points still moving,
    idx their places in the flattened targets, which returns the value F(x)
    and the slope F'(x) together: a caller that gets both from one piece of
    work (one G^{-1} solve, one series) keeps no state between iterates,
    and one whose points read different functions picks each by idx.  Each
    point moves on its own reads alone, so its root does not depend on the
    other points of the call.  A point that reads below its level becomes its
    bracket's lo, any other its hi, and it settles when no float lies
    between the two, at hi: where both ends were read, F(hi) >= target >
    F(the float below hi).  The next iterate is the Newton step where that
    lands strictly inside the bracket, one float toward the level where the
    step rounds back onto x, and elsewhere (a zero, infinite or NaN slope,
    a step that reaches or leaves an end) the bisection point, on the float
    ordering where the bracket spans more than a factor of 1024 on one side
    of 0, so from [0, 1] it reaches a root near 1e-300 in about 70 reads.
    A point that read its level exactly steps as if it read 2 ulps of the
    level above it: wherever one float step moves the rounded F by less
    than an ulp of the level, F reads the level over about that width, so
    the point crosses such a stretch toward its left end in one step
    instead of creeping down it.  A point still moving after _NEWTON_READS
    reads raises RootBracketFailure.
    """
    targets = np.asarray(targets, dtype=float)
    shape = targets.shape
    t = targets.ravel()
    lo = np.broadcast_to(np.asarray(lo, dtype=float), shape).ravel()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), shape).ravel()
    out = np.empty(t.size)
    idx = np.arange(t.size)
    x = 0.5 * (lo + hi)
    for _ in range(_NEWTON_READS):
        if idx.size == 0:
            return out.reshape(shape)
        value, f = read(x, idx)
        r = np.asarray(value, dtype=float) - t
        f = np.asarray(f, dtype=float)
        below = r < 0.0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        closed = np.nextafter(lo, math.inf) >= hi
        done = np.flatnonzero(closed)
        if done.size:
            out[idx[done]] = hi[done]
            # integer indices: boolean masks gather far slower here
            keep = np.flatnonzero(~closed)
            idx, t, lo, hi, x, r, f, below = (
                a[keep] for a in (idx, t, lo, hi, x, r, f, below))
        # a point that read its level exactly steps as from 2 ulps above it
        exact = np.flatnonzero(r == 0.0)
        r[exact] = 2.0 * np.spacing(np.abs(t[exact]))
        # a zero, infinite or NaN slope gives an infinite or NaN step,
        # which lands neither inside the bracket nor on x: the point bisects
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xn = x - r / np.where(np.isfinite(f), f, 0.0)
        onto = np.flatnonzero(xn == x)
        xn[onto] = np.nextafter(x[onto], np.where(below[onto], math.inf, -math.inf))
        x = xn
        bisect = np.flatnonzero(~((x > lo) & (x < hi)))
        if bisect.size:
            a, b = lo[bisect], hi[bisect]
            mid = 0.5 * (a + b)
            # on one side of 0 and over a factor of 1024: the int64 views' midpoint
            side = (a >= 0.0) | (b <= 0.0)
            a, b = np.abs(a), np.abs(b)
            far = np.flatnonzero(side & (np.maximum(a, b) / 1024.0 > np.minimum(a, b)))
            ia, ib = a[far].view(np.int64), b[far].view(np.int64)
            mid[far] = np.copysign((ia + (ib - ia) // 2).view(np.float64), mid[far])
            x[bisect] = mid
    if idx.size:
        raise RootBracketFailure(f"{idx.size} of {out.size} levels still moving after "
                                 f"{_NEWTON_READS} reads")
    return out.reshape(shape)


class AverageCdf(MarginalCdf):
    """Equally weighted average G = (1/d) sum_i F_i of component CDFs.

    G^{-1} keeps the levels it has solved, up to _MEMO_LEVELS of them, and
    solves only the levels it has not: a verification battery asks for the
    same levels in many checks.  A kept root is the bits of a fresh solve,
    since each level is solved on its own (_newton_level).
    """

    def __init__(self, components):
        self.components = tuple(components)
        if not self.components:
            raise InvalidMarginal("average of zero CDFs")
        self.is_absolutely_continuous = all(c.is_absolutely_continuous for c in self.components)
        # (sorted levels, their roots), replaced whole by one assignment, so
        # that a thread reads either the store before an update or after it
        self._solved = (np.empty(0), np.empty(0))

    @property
    def support(self):
        return (min(c.support[0] for c in self.components),
                max(c.support[1] for c in self.components))

    def _mean(self, method: str, x):
        """(1/d) sum_i of the components' _cdf, _sf or _pdf at a float array
        x, whose conventions the public caller has settled."""
        acc = np.zeros_like(x)
        for c in self.components:
            acc = acc + getattr(c, method)(x)
        return acc / len(self.components)

    def _cdf(self, x):
        return self._mean("_cdf", x)

    def _sf(self, x):
        return self._mean("_sf", x)

    def _pdf(self, x):
        return self._mean("_pdf", x)

    def _quantile(self, u):
        """G^{-1}(u), elementwise over u of any shape.

        Each distinct level is looked up once (_per_distinct), and the
        levels not kept yet are solved by _solve_levels: a grid's columns
        cost one solve per level they hold, a (d, n) array of d columns is
        solved as their union, and a level solved before costs a lookup.
        """
        return _per_distinct(self._recall, u)

    def _recall(self, u):
        """G^{-1} at sorted distinct levels u: kept roots where the store
        holds the level, solved ones elsewhere.  The new levels, NaN aside,
        are merged into the store by position while it has room."""
        known, roots = self._solved
        at = np.searchsorted(known, u)
        hit = at < known.size
        hit[hit] = known[at[hit]] == u[hit]
        out = np.full_like(u, math.nan)
        out[hit] = roots[at[hit]]
        miss = np.flatnonzero(~hit & ~np.isnan(u))
        if miss.size == 0:
            return out
        out[miss] = self._solve_levels(u[miss])
        room = _MEMO_LEVELS - known.size
        if room > 0:
            miss = miss[:room]
            self._solved = (np.insert(known, at[miss], u[miss]),
                            np.insert(roots, at[miss], out[miss]))
        return out

    def _solve_levels(self, u):
        """G^{-1} at a 1-D array of levels in (0, 1], by one bracketed
        Newton between the component quantiles.  Up to 1/2 a point reads
        G against u; above, -(1 - G) against -(1 - u), since 1 - u is
        exact there while G that close to 1 keeps only absolute accuracy."""
        out = np.full_like(u, math.nan)
        # G(s) = 1 exactly when every component has reached 1.
        if np.any(u == 1.0):
            out[u == 1.0] = max(c.ppf(1.0) for c in self.components)
        live = np.flatnonzero((u > 0.0) & (u < 1.0))
        if live.size:
            v = u[live]
            upper = v > 0.5

            def read(x, idx):
                value = np.empty_like(x)
                up = upper[idx]
                low = ~up
                value[low] = self._cdf(x[low])
                value[up] = -self._sf(x[up])
                return value, self._pdf(x)

            qs = np.array([c.ppf(v) for c in self.components])
            out[live] = _newton_level(read, np.where(upper, -(1.0 - v), v),
                                      qs.min(axis=0), qs.max(axis=0))
        return out

    def knots(self):
        ks = set()
        for c in self.components:
            ks.update(c.knots())
        return sorted(ks)


class ComposedDeltaCdf(MarginalCdf):
    """CDF on [0, 1] of the form F_i composed with the inverse average CDF."""

    def __init__(self, base: MarginalCdf, avg: AverageCdf):
        self.base = base
        self.avg = avg
        self.is_absolutely_continuous = base.is_absolutely_continuous

    @property
    def support(self):
        lo, hi = self.base.support
        return (float(self.avg.cdf(lo)) if math.isfinite(lo) else 0.0,
                float(self.avg.cdf(hi)) if math.isfinite(hi) else 1.0)

    def _read(self, t, *reads):
        """One array per read (fn, at_low, at_high, at_nan): fn(G^{-1}(t))
        for t in (0, 1), at_low at t <= 0, at_high at t >= 1 and at_nan at
        NaN.  G^{-1} is solved once for all the reads."""
        interior = (t > 0.0) & (t < 1.0)
        s = self.avg.ppf(t[interior]) if np.any(interior) else None
        outs = []
        for fn, at_low, at_high, at_nan in reads:
            out = np.full_like(t, at_nan)
            out[t <= 0.0] = at_low
            out[t >= 1.0] = at_high
            if s is not None:
                out[interior] = fn(s)
            outs.append(out)
        return outs

    def _cdf(self, t):
        return self._read(t, (self.base.cdf, 0.0, 1.0, math.nan))[0]

    def _sf(self, t):
        return self._read(t, (self.base.sf, 1.0, 0.0, math.nan))[0]

    def _pdf(self, t):
        return self._read(t, (self.pdf_at_base, 0.0, 0.0, 0.0))[0]

    def pdf_at_base(self, s):
        """Density at t = G(s), read at the base-scale point s = G^{-1}(t)."""
        num = np.asarray(self.base.pdf(s), dtype=float)
        den = np.asarray(self.avg.pdf(s), dtype=float)
        return np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)

    def _quantile(self, u):
        # Honest generalized inverse of this object's own cdf; the closed
        # composition through the source marginals lives in the multidiagonal
        # layer and the two are compared in tests.  Each Newton iterate reads
        # the cdf and the pdf at one x from one G^{-1} solve.
        return _newton_level(lambda x, _: self._read(x, (self.base.cdf, 0.0, 1.0, math.nan),
                                                     (self.pdf_at_base, 0.0, 0.0, 0.0)),
                             u, 0.0, 1.0)

    def knots(self):
        ks = {0.0, 1.0}
        for s in self.base.knots() + self.avg.knots():
            if math.isfinite(s):
                ks.add(float(self.avg.cdf(s)))
        return sorted(ks)

    def entropy(self) -> float:
        """Entropy of delta = F o G^{-1} via substitution to the base scale.

        -int delta' log delta' dt equals -int f(s) log(f(s)/g(s)) ds, which
        avoids inverting G inside the quadrature.
        """
        if not self.is_absolutely_continuous:
            return -math.inf
        lo, hi = self.base.support

        def integrand(s):
            f = np.asarray(self.base.pdf(s), dtype=float)
            g = np.asarray(self.avg.pdf(s), dtype=float)
            live = (f > _XLOGX_CLIP) & (g > 0.0)
            ratio = np.where(live, f, 1.0) / np.where(live, g, 1.0)
            return np.where(live, -f * np.log(ratio), 0.0)

        edges = _cut_ends(self.base.knots() + self.avg.knots(), lo, hi)
        return float(np.sum(_panel_integral(integrand, edges[:-1], edges[1:])))


class OrderStatUniformCdf(MarginalCdf):
    """CDF on [0, 1] of the i-th order statistic of d iid uniforms.

    delta_(i)(t) = sum_{k=i}^{d} C(d, k) t^k (1-t)^(d-k), the regularized
    incomplete beta function I_t(i, d-i+1).
    """

    def __init__(self, d: int, i: int):
        if not (1 <= i <= d):
            raise InvalidMarginal(f"order statistic index {i} out of range for d={d}")
        self.d = int(d)
        self.i = int(i)
        self._lognorm = (special.gammaln(self.d + 1) - special.gammaln(self.i)
                         - special.gammaln(self.d - self.i + 1))
        # I_t(i, d-i+1) = C(d, i) t^i (1 + O((d-i) t)): at levels up to
        # _tiny, where (d-i) t is below rounding, the leading term inverts
        # as t = u^(1/i) _scale
        log_binom = self._lognorm - math.log(self.i)
        self._tiny = math.exp(log_binom + self.i * math.log(2.0 ** -53 / max(self.d - self.i, 1)))
        self._scale = math.exp(-log_binom / self.i)

    @property
    def support(self):
        return (0.0, 1.0)

    def _cdf(self, t):
        return special.betainc(self.i, self.d - self.i + 1, np.clip(t, 0.0, 1.0))

    def _sf(self, t):
        return special.betainc(self.d - self.i + 1, self.i, 1.0 - np.clip(t, 0.0, 1.0))

    def _pdf(self, t):
        inside = (t > 0.0) & (t < 1.0)
        tc = np.where(inside, t, 0.5)
        with np.errstate(divide="ignore"):
            logpdf = self._lognorm + (self.i - 1) * np.log(tc) + (self.d - self.i) * np.log1p(-tc)
        return np.where(inside, np.exp(logpdf), 0.0)

    def _quantile(self, u):
        t = np.asarray(special.betaincinv(self.i, self.d - self.i + 1, u))
        # betaincinv reads NaN at some levels below _tiny
        tiny = u <= self._tiny
        t[tiny] = np.power(u[tiny], 1.0 / self.i) * self._scale
        return t

    def knots(self):
        return [0.0, 1.0]


def generalized_inverse(J, t, lo=None, hi=None):
    """inf{s : J(s) >= t} for a nondecreasing function or CDF object.

    CDF objects are delegated to their ``ppf``.  Raw callables are handled
    numerically: the bracket [lo, hi] is expanded geometrically until it
    straddles the level (default start [-1, 1]), then bisected by
    _newton_level on a NaN slope, J read at one float at a time, until no
    float lies between the bracket's ends, whose upper one it returns:
    J(s) >= t > J(the float below s).  Bisecting on the float ordering, it
    closes any finite bracket within _NEWTON_READS reads.  Returns -inf
    when every s satisfies J(s) >= t and +inf when none does.
    """
    if isinstance(J, MarginalCdf):
        return J.ppf(t)
    t = float(t)
    hi = 1.0 if hi is None else float(hi)
    step = 1.0
    while J(hi) < t:
        hi += step
        step *= 2.0
        if hi >= 1e300:
            if J(1e300) < t:
                return math.inf
            hi = 1e300
            break
    lo = min(-1.0, hi - 1.0) if lo is None else float(lo)
    step = 1.0
    while J(lo) >= t:
        lo -= step
        step *= 2.0
        if lo <= -1e300:
            if J(-1e300) >= t:
                return -math.inf
            lo = -1e300
            break
    return float(_newton_level(lambda x, _: ([J(float(v)) for v in x], np.full(x.shape, math.nan)),
                               t, lo, hi))


_FAMILIES = {
    "uniform": lambda d: UniformCdf(float(d["a"]), float(d["b"])),
    "exponential": lambda d: ExponentialCdf(float(d["rate"])),
    "beta_1_k": lambda d: BetaOneKCdf(int(d["k"])),
    "piecewise_linear": lambda d: PiecewiseLinearCdf(
        d["knots"], absolutely_continuous=bool(d.get("absolutely_continuous", True))),
}


def marginal_from_dict(d: dict) -> MarginalCdf:
    """Build a marginal from its file representation ({"family": ..., ...})."""
    try:
        family = d["family"]
    except (TypeError, KeyError):
        raise KeyError("marginal entry must be an object with a 'family' field")
    if family not in _FAMILIES:
        raise KeyError(f"unknown family {family!r}; expected one of {sorted(_FAMILIES)}")
    return _FAMILIES[family](d)
