"""Marginal vectors: ordering, separation sets, and the J functional.

A marginal vector (F_1, ..., F_d) is admissible when it is stochastically
ordered, F_{i-1}(x) >= F_i(x) for all x and 2 <= i <= d.  The sets

    Psi_i = {s : F_{i-1}(s) > F_i(s)},   2 <= i <= d,

collect the points where consecutive CDFs are strictly separated; the
ordered support L is the set of sorted x whose consecutive open gaps
(x_{i-1}, x_i) sit inside Psi_i.  The functional

    J(F) = sum_{i=2}^d  int F_i(dt) |log(F_{i-1}(t) - F_i(t))|

measures how expensive the separation constraint is; it enters every
entropy formula downstream and is +inf exactly when the model degenerates
(up to marginal-entropy terms).

Each consecutive pair is sorted once into a route (exponential, piecewise
linear, consecutive order statistics, or general) and described by one
record: separation set, order verdict, closed J term and hazard.  A
MarginalVector keeps its records, so every layer reads the same ones.
The general route reads F_prev - F_cur on its exact side (CDFs below 1/2,
survival functions above) in one probe pass for set and verdict; a probe is
separated where that gap exceeds rounding.  Runs at the grid's ends reach
the support ends; other boundaries take one cdfs._newton_level per direction.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import special

from .cdfs import (AverageCdf, BetaOneKCdf, ExponentialCdf, MarginalCdf,
                   OrderStatUniformCdf, PiecewiseLinearCdf, UniformCdf,
                   _cut_ends, _newton_level, _panel_integral, marginal_from_dict)
from .errors import InvalidMarginal
from .hazards import (BetaPairHazard, ExpPairHazard, OrderStatPairHazard,
                      PiecewisePairHazard, TableHazard, _cdf_gap, _cdf_gap_terms)
from .intervals import IntervalSet, merge_closed_intervals

#: absolute tolerance for CDF-value equality
EQ_TOL = 1e-12
# separation needs a gap beyond 16 ulps of the term it is read from: the
# same law by two formulas differs by at most 3 ulps on the probe grid
_SLACK = 16 * np.finfo(float).eps
#: default number of probe points per pair
ORDER_GRID = 4096


@dataclass(frozen=True)
class MarginalVector:
    """Ordered tuple of marginal CDFs (F_1, ..., F_d)."""

    margins: tuple[MarginalCdf, ...]

    def __post_init__(self):
        if len(self.margins) < 1:
            raise InvalidMarginal("marginal vector needs at least one component")
        for m in self.margins:
            if not isinstance(m, MarginalCdf):
                raise InvalidMarginal(f"not a marginal CDF: {m!r}")

    @property
    def d(self) -> int:
        return len(self.margins)

    def __iter__(self):
        return iter(self.margins)

    def __getitem__(self, i):
        return self.margins[i]

    @cached_property
    def pairs(self) -> tuple:
        """Records of the consecutive pairs, built once, filled on use."""
        return _pairs(self.margins)

    def __getstate__(self):
        # the records are a cache, and some of their hazards do not pickle
        return {"margins": self.margins}

    def to_dict(self):
        return {"margins": [m.to_dict() for m in self.margins]}


def marginal_vector_from_dict(spec: dict) -> MarginalVector:
    """Build a marginal vector from {"margins": [{"family": ...}, ...]}."""
    try:
        entries = spec["margins"]
    except (TypeError, KeyError):
        raise KeyError("specification must be an object with a 'margins' list")
    if not isinstance(entries, list) or not entries:
        raise KeyError("'margins' must be a non-empty list")
    return MarginalVector(tuple(marginal_from_dict(e) for e in entries))


def _as_piecewise(m: MarginalCdf):
    """Piecewise-linear view of m when exact, else None."""
    if isinstance(m, PiecewiseLinearCdf):
        return m
    if isinstance(m, UniformCdf):
        return PiecewiseLinearCdf([(m.a, 0.0), (m.b, 1.0)])
    if isinstance(m, BetaOneKCdf) and m.k == 1:
        return PiecewiseLinearCdf([(0.0, 0.0), (1.0, 1.0)])
    return None


def _excess(a, b):
    """The gap a - b beyond the rounding slack: positive where separated."""
    return a - b - _SLACK * a


def _probe_points(fp: MarginalCdf, fc: MarginalCdf):
    eps = 1e-13
    lo = min(fp.ppf(eps), fc.ppf(eps))
    hi = max(fp.ppf(1.0 - eps), fc.ppf(1.0 - eps))
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        lo, hi = -1.0, 1.0
    pts = [np.linspace(lo, hi, ORDER_GRID)]
    qs = np.linspace(1.0 / 512, 1.0 - 1.0 / 512, 511)
    for m in (fp, fc):
        pts.append(np.clip(m.ppf(qs), lo, hi))
        pts.append(np.array([k for k in m.knots() if lo <= k <= hi], dtype=float))
    return np.unique(np.concatenate(pts))


class _Pair:
    """A consecutive pair (F_prev, F_cur) on the general route.

    The record computes each piece at most once, on first use: the
    separation set, the order verdict with a witness, the closed J term
    (None: J by quadrature), the quadrature J term and the hazard.  Here
    the set and the verdict read the exact-side gap on one probe pass, and
    the hazard is tabulated.
    """

    j_closed = None

    def __init__(self, fp: MarginalCdf, fc: MarginalCdf):
        self.fp, self.fc = fp, fc
        self._lock = threading.Lock()
        self._j_quad = None

    @cached_property
    def psi(self) -> IntervalSet:
        return psi_pair(self.fp, self.fc)

    @cached_property
    def hazard(self):
        return TableHazard(self)

    def density_and_gap(self, t):
        """(f_cur(t), F_prev(t) - F_cur(t)) at an array of t: the J integrand."""
        return self.fc.pdf(t), _cdf_gap(self.fp, self.fc, t)

    @property
    def j_quad(self) -> float:
        """The J term by quadrature, integrated on first use and kept; the
        lock keeps it to one integration when several threads ask."""
        with self._lock:
            if self._j_quad is None:
                knots = [k for m in (self.fp, self.fc) for k in m.knots()]
                self._j_quad = _pair_j_quad(self.density_and_gap, self.psi, knots)
            return self._j_quad

    @cached_property
    def _probes(self):
        """The probe grid and the gap terms on it: one pass serves both the
        order verdict and the separation set."""
        s = _probe_points(self.fp, self.fc)
        return (s, *_cdf_gap_terms(self.fp, self.fc, s))

    @cached_property
    def order(self):
        """(ordered, witness) for F_prev >= F_cur everywhere."""
        probes, a, b = self._probes
        D = a - b
        j = int(np.argmin(D))
        if D[j] >= -EQ_TOL:
            return True, None
        # sharpen the witness locally
        fine = np.linspace(probes[max(j - 1, 0)], probes[min(j + 1, len(probes) - 1)], 257)
        return False, float(fine[np.argmin(_cdf_gap(self.fp, self.fc, fine))])

    def separation(self) -> IntervalSet:
        """Runs of probes whose gap exceeds rounding, bounded by the support
        ends at the grid's ends and by the solved crossings in between."""
        fp, fc = self.fp, self.fc
        probes, a, b = self._probes
        sep = _excess(a, b) > 0.0
        turn = np.diff(sep.astype(np.int8))

        def crossings(j, sign):
            # one solve for all brackets [probes[j], probes[j + 1]]: sign
            # times the excess rises through 0 in each
            if j.size == 0:
                return []
            return list(_newton_level(lambda x, _: (sign * _excess(*_cdf_gap_terms(fp, fc, x)),
                                                    sign * (fp.pdf(x) - fc.pdf(x))),
                                      np.zeros(j.size), probes[j], probes[j + 1]))

        starts = crossings(np.flatnonzero(turn > 0), 1.0)
        ends = crossings(np.flatnonzero(turn < 0), -1.0)
        if sep[0]:
            starts.insert(0, fp.support[0])
        if sep[-1]:
            ends.append(fc.support[1])
        return IntervalSet(tuple((float(g), float(d)) for g, d in zip(starts, ends) if g < d))


class _PiecewisePair(_Pair):
    """Both margins piecewise linear (uniforms and beta_1_1 included).

    The CDF difference is linear between the merged knots, so its signs
    there give the separation set and the order verdict exactly.
    """

    def __init__(self, fp, fc, pp: PiecewiseLinearCdf, pc: PiecewiseLinearCdf):
        super().__init__(fp, fc)
        self.pp, self.pc = pp, pc
        self.knots = np.unique(np.concatenate([pp.xs, pc.xs]))
        self.gap = pp.cdf(self.knots) - pc.cdf(self.knots)

    @cached_property
    def hazard(self):
        return PiecewisePairHazard(self.pp, self.pc, self.psi)

    @cached_property
    def order(self):
        j = int(np.argmin(self.gap))
        if self.gap[j] >= 0.0:
            return True, None
        return False, float(self.knots[j])

    def separation(self):
        k, D = self.knots, self.gap
        pieces = []
        for x0, x1, d0, d1 in zip(k[:-1], k[1:], D[:-1], D[1:]):
            if d0 <= 0.0 and d1 <= 0.0:
                continue
            xstar = x0 + d0 * (x1 - x0) / (d0 - d1) if (d0 > 0.0) != (d1 > 0.0) else None
            a, b = (x0 if d0 > 0.0 else xstar), (x1 if d1 > 0.0 else xstar)
            # merge touching pieces only across knots where the gap stays positive
            if pieces and pieces[-1][1] == a and d0 > 0.0:
                pieces[-1] = (pieces[-1][0], b)
            else:
                pieces.append((a, b))
        return IntervalSet(tuple(pieces))


class _ClosedPair(_Pair):
    """Closed forms throughout: separated on (0, end), nowhere if end is None."""

    def __init__(self, fp, fc, end, order, j_closed, hazard_cls):
        super().__init__(fp, fc)
        self.end, self.order, self.j_closed, self.hazard_cls = end, order, j_closed, hazard_cls

    @cached_property
    def hazard(self):
        if self.end is None:
            return TableHazard(self)
        return self.hazard_cls(self.fp, self.fc)

    def separation(self):
        return IntervalSet() if self.end is None else IntervalSet(((0.0, self.end),))


def _exponential_pair(fp, fc, hazard_cls) -> _ClosedPair:
    """Exponential route, on the scale where both margins are exponential.

    The hazard class carries the change of variable t(s) to that scale.  A
    common change of variable keeps the order verdict and J; the separation
    set and the witness map back by t(s).
    """
    rate_prev, rate_cur = hazard_cls.rate_of(fp), hazard_cls.rate_of(fc)
    if rate_prev <= rate_cur:
        witness = None if rate_prev == rate_cur else float(hazard_cls.t_of(1.0 / rate_cur))
        return _ClosedPair(fp, fc, None, (witness is None, witness), None, hazard_cls)
    # J term 1 + gamma + digamma(r + 1), r the lower rate over the rate gap
    j = 1.0 + np.euler_gamma + float(special.digamma(rate_cur / (rate_prev - rate_cur) + 1.0))
    return _ClosedPair(fp, fc, float(hazard_cls.t_of(math.inf)), (True, None), j, hazard_cls)


def _order_stat_pair(fp, fc) -> _ClosedPair:
    """Consecutive order statistics i - 1 and i of d iid uniforms.

    The gap is the binomial term C(d, i-1) t^(i-1) (1-t)^(d-i+1), positive
    on (0, 1), and F_cur has the Beta(i, d-i+1) density, so the J term is
    a linear combination of Beta log-moments.
    """
    d, i = fc.d, fc.i
    psi = special.digamma
    e_log_t = psi(i) - psi(d + 1)
    e_log_1mt = psi(d - i + 1) - psi(d + 1)
    j = float(-(math.lgamma(d + 1) - math.lgamma(i) - math.lgamma(d - i + 2))
              - (i - 1) * e_log_t - (d - i + 1) * e_log_1mt)
    return _ClosedPair(fp, fc, 1.0, (True, None), j, OrderStatPairHazard)


# the live record of each pair of margin objects: a record asking psi_pair
# for its set answers itself, from its own probe pass
_records, _records_lock = weakref.WeakValueDictionary(), threading.Lock()


def _pair(fp: MarginalCdf, fc: MarginalCdf) -> _Pair:
    """The record of the pair: the live one if any, else a new one."""
    key = (id(fp), id(fc))
    with _records_lock:
        record = _records.get(key)
        if record is None:
            record = _records[key] = _route(fp, fc)
    return record


def _route(fp: MarginalCdf, fc: MarginalCdf) -> _Pair:
    """Sort a consecutive pair into its route: the one family dispatch.

    BetaOneKCdf(k) is ExponentialCdf(k) in s = -log(1 - t), so beta_1_k
    pairs take the exponential route, ahead of the piecewise route that
    would take beta_1_1.
    """
    for family, hazard_cls in ((ExponentialCdf, ExpPairHazard),
                               (BetaOneKCdf, BetaPairHazard)):
        if isinstance(fp, family) and isinstance(fc, family):
            return _exponential_pair(fp, fc, hazard_cls)
    if (isinstance(fp, OrderStatUniformCdf) and isinstance(fc, OrderStatUniformCdf)
            and fp.d == fc.d and fc.i == fp.i + 1):
        return _order_stat_pair(fp, fc)
    pp, pc = _as_piecewise(fp), _as_piecewise(fc)
    if pp is not None and pc is not None:
        return _PiecewisePair(fp, fc, pp, pc)
    return _Pair(fp, fc)


def _pairs(F) -> tuple:
    """Records of F's consecutive pairs: kept on a MarginalVector or a
    Multidiagonal, from _pair for a plain sequence of CDFs."""
    pairs = getattr(F, "pairs", None)
    if pairs is not None:
        return pairs
    m = list(F)
    return tuple(_pair(a, b) for a, b in zip(m, m[1:]))


def psi_pair(fp: MarginalCdf, fc: MarginalCdf) -> IntervalSet:
    """Open set {s : fp(s) > fc(s)} as disjoint intervals.

    The one function that computes a pair's separation set; the pair
    records call it once each and keep the result.
    """
    return _pair(fp, fc).separation()


def psi_intervals(F: MarginalVector, i: int) -> IntervalSet:
    """Psi_i for the pair (F_{i-1}, F_i), 2 <= i <= d."""
    if not 2 <= i <= F.d:
        raise ValueError(f"psi_intervals index {i} out of range 2..{F.d}")
    return _pairs(F)[i - 2].psi


@dataclass(frozen=True)
class OrderReport:
    """Outcome of the stochastic-order check."""

    ordered: bool
    violations: tuple = field(default_factory=tuple)  # (i, s, F_prev(s), F_i(s))


def check_stochastic_order(F: MarginalVector) -> OrderReport:
    """Verify F_{i-1} >= F_i pointwise for every consecutive pair."""
    violations = []
    for i, p in enumerate(_pairs(F), start=2):
        ok, witness = p.order
        if not ok:
            violations.append((i, witness, float(p.fp.cdf(witness)),
                               float(p.fc.cdf(witness))))
    return OrderReport(ordered=not violations, violations=tuple(violations))


def average_cdf(F: MarginalVector) -> AverageCdf:
    """G = (1/d) sum_i F_i."""
    return AverageCdf(F.margins)


def _complement_measure(pairs) -> float:
    """Lebesgue measure of the union of the F_cur images of the complements
    of the separation sets, over (psi, F_cur) pairs."""
    pieces = []
    for psi, fc in pairs:
        for c, e in psi.complement():
            a = float(fc.cdf(c)) if math.isfinite(c) else (0.0 if c == -math.inf else 1.0)
            b = float(fc.cdf(e)) if math.isfinite(e) else (1.0 if e == math.inf else 0.0)
            if b > a:
                pieces.append((a, b))
    merged = merge_closed_intervals(pieces)
    return float(sum(b - a for a, b in merged))


def sigma_measure(F) -> float:
    """Lebesgue measure of the union of F_i images of the Psi_i complements.

    Zero measure (together with absolutely continuous marginals) puts the
    vector in the admissible class where the separation constraint only
    removes a null set.
    """
    return _complement_measure((p.psi, p.fc) for p in _pairs(F))


def in_support_LF(F, x):
    """Membership of x in the ordered support L (vectorized over rows).

    x may be a single point of length d or an (n, d) array.  Sorted rows
    whose consecutive open gaps sit inside the matching Psi_i (with a small
    endpoint slack) are members; empty gaps are contained by convention.
    """
    pairs = _pairs(F)
    d = len(pairs) + 1
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    X = np.atleast_2d(x)
    if X.shape[1] != d:
        raise ValueError(f"points have dimension {X.shape[1]}, expected {d}")
    # ordering gets the same relative slack as the gap test: quantile
    # roundtrips land on the sorted boundary with ~1e-15 noise.  Every test
    # is a pass over whole columns; the row maximum is exact in any order.
    cols = X.T
    scale = np.abs(cols[0])
    for c in cols[1:]:
        scale = np.maximum(scale, np.abs(c))
    tol = 1e-12 * np.maximum(1.0, scale)
    ok = np.ones(len(X), dtype=bool)
    for i, p in enumerate(pairs, start=2):
        a, b = cols[i - 2], cols[i - 1]
        ok &= b >= a - tol
        inside = a >= b  # empty gap
        for g, dd in p.psi:
            slack = 1e-12 * max(1.0, abs(g) if math.isfinite(g) else 1.0,
                                abs(dd) if math.isfinite(dd) else 1.0)
            inside |= (a >= g - slack) & (b <= dd + slack)
        ok &= inside
    return bool(ok[0]) if scalar else ok


#: quadrature values beyond this are reported as +inf (divergence proxy)
J_DIVERGENCE_CAP = 1e6


def _pair_j_quad(density_and_gap, psi: IntervalSet, knots) -> float:
    """Quadrature of int f_cur(t) |log(F_prev(t) - F_cur(t))| dt over Psi.

    density_and_gap(t) gives f_cur and the gap at an array of t; the panels
    split at the knots inside each separation interval, and one panel rule
    call integrates them all.
    """

    def integrand(t):
        f, gap = density_and_gap(t)
        live = f > 0.0
        bad = np.flatnonzero(live & (gap > 1.0 + EQ_TOL))
        if bad.size:
            k = bad[0]
            raise InvalidMarginal(f"CDF gap {float(gap[k])!r} above 1 at "
                                  f"t={float(t[k])!r}; corrupt marginal input")
        return np.where(live, f * np.abs(np.log(np.maximum(gap, 5e-324))), 0.0)

    lo, hi = [], []
    for g, d in psi:
        edges = _cut_ends(knots, g, d)
        lo += edges[:-1]
        hi += edges[1:]
    vals = _panel_integral(integrand, lo, hi)
    total = float(np.sum(vals))
    # a non-finite panel, or one or the sum above the cap, reads as divergent
    if not (np.all(np.isfinite(vals)) and np.all(vals <= J_DIVERGENCE_CAP)
            and total <= J_DIVERGENCE_CAP):
        return math.inf
    return total


def j_functional(F, method: str = "auto") -> float:
    """J(F) over consecutive pairs; +inf when separation fails on positive mass.

    method "auto" uses the closed terms of the exponential (beta_1_k
    included) and order-statistic routes and quadrature otherwise; method
    "quadrature" forces the integral route.
    """
    if method not in ("auto", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    total = 0.0
    for p in _pairs(F):
        # positive F_i-mass on the complement forces the integral to diverge
        if _complement_measure([(p.psi, p.fc)]) > EQ_TOL:
            return math.inf
        term = p.j_closed if method == "auto" else None
        if term is None:
            term = p.j_quad
        if not math.isfinite(term):
            return math.inf
        total += term
    return total
