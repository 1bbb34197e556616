"""Multidiagonals: vectors of order-statistic marginals on [0, 1].

A multidiagonal delta = (delta_(1), ..., delta_(d)) collects the CDFs of
the order statistics of a copula.  Admissibility (the class D) requires
each component to be a CDF on [0, 1] with

    delta_(i) >= delta_(i+1)   and   sum_i delta_(i)(s) = d * s,

which forces every component to be d-Lipschitz.  The subclass D0 adds
that the union of component images of the separation-set complements is
Lebesgue-null; only there can an absolutely continuous copula have the
given multidiagonal.

The multidiagonal of a marginal vector F is delta_(i) = F_i o G^{-1} with
G the average CDF; it carries exactly the exchangeable-dependence content
of F, and in particular J(F) = J(delta^F).

Every layer reads delta_(i) = F_i o G^{-1} through one triple,
``Multidiagonal.transport`` = (margins, G, pairs): the source's margins,
the one average CDF that the components share and the source's pair
records, or, without a source, the components themselves with G the
identity.

Like a marginal vector, a multidiagonal keeps one record per consecutive
pair.  When it was built from marginals, record k is the transport of the
source's record k under G: separation set and order verdict are read
from the source record, and the J integrand inverts G once per call, on
all of the panel rule's nodes at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .cdfs import ComposedDeltaCdf, MarginalCdf, OrderStatUniformCdf
from .errors import InvalidMarginal
from .hazards import _cdf_gap
from .intervals import IntervalSet
from .marginals import (MarginalVector, _Pair, _pairs, average_cdf,
                        j_functional, sigma_measure)

SUM_TOL = 1e-9
LIPSCHITZ_TOL = 1e-6


class _Identity:
    """G of a multidiagonal read on its own scale: the components average to t.

    A no-op, where UniformCdf(0, 1) would clip and mask on every call.
    """

    def cdf(self, x):
        return x

    ppf = cdf

    def pdf(self, x):
        return np.ones_like(x)


@dataclass(frozen=True)
class Multidiagonal:
    """Vector of component CDFs on [0, 1], optionally tied to marginals."""

    components: tuple[MarginalCdf, ...]
    source: Optional[MarginalVector] = None
    kind: Optional[str] = None

    def __post_init__(self):
        if not self.components:
            raise InvalidMarginal("multidiagonal needs at least one component")

    @property
    def d(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    @cached_property
    def pairs(self) -> tuple:
        """Records of the consecutive component pairs, built once, filled on
        use; with a source, the transports of the source's records."""
        c = self.components
        if self.source is None:
            return _pairs(c)
        return tuple(_TransportedPair(a, b, p)
                     for a, b, p in zip(c, c[1:], self.source.pairs))

    def __getstate__(self):
        # the records are a cache, and some of their hazards do not pickle
        return {"components": self.components, "source": self.source,
                "kind": self.kind}

    @cached_property
    def transport(self) -> tuple:
        """(margins, G, pairs) with delta_(i) = margins[i-1] o G^{-1}: the
        source's margins, the average CDF its components share and its pair
        records, or the components themselves with G the identity (they
        average to t).  Every G^{-1} read of the multidiagonal goes to one
        G, so each level it solves is kept once for all of them."""
        if self.source is None:
            return self.components, _Identity(), self.pairs
        return self.source.margins, self.components[0].avg, self.source.pairs

    def cdf_matrix(self, s):
        """Stack of component CDF values, shape (d, len(s)): F_i(G^{-1}(s)),
        with G^{-1} solved once for every component."""
        margins, G, _ = self.transport
        x = G.ppf(np.atleast_1d(np.asarray(s, dtype=float)))
        return np.vstack([m.cdf(x) for m in margins])

    def to_dict(self):
        return {"margins": [c.to_dict() for c in self.components]}


class _TransportedPair(_Pair):
    """Consecutive components (delta_(i-1), delta_(i)) = (F_prev, F_cur) o G^{-1}
    of a multidiagonal built from marginals.

    The change of variable t = G(x) maps the source pair onto this one, so
    the record reads the source record: the separation set is its image
    under G, the order verdict is the source's, and the J integrand reads
    F_prev - F_cur and f_cur / g at the one point x = G^{-1}(t).
    """

    def __init__(self, fp: ComposedDeltaCdf, fc: ComposedDeltaCdf, source: _Pair):
        super().__init__(fp, fc)
        self.source = source
        self.G = fc.avg

    def _image(self, x) -> float:
        if math.isfinite(x):
            return float(self.G.cdf(x))
        return 0.0 if x == -math.inf else 1.0

    @cached_property
    def psi(self) -> IntervalSet:
        out = []
        for g, dd in self.source.psi:
            a, b = self._image(g), self._image(dd)
            if a < b:
                out.append((a, b))
        return IntervalSet(tuple(out))

    @cached_property
    def order(self):
        ok, witness = self.source.order
        return ok, None if witness is None else self._image(witness)

    def density_and_gap(self, t):
        # the components read 0 density and constant values outside (0, 1);
        # inside, one G^{-1} solve serves both reads
        return self.fc._read(t, (self.fc.pdf_at_base, 0.0, 0.0, 0.0),
                             (lambda x: _cdf_gap(self.fp.base, self.fc.base, x), 0.0, 0.0, 0.0))


def multidiagonal_from_marginals(F: MarginalVector) -> Multidiagonal:
    """delta^F with components F_i o G^{-1}, G the average CDF."""
    G = average_cdf(F)
    comps = tuple(ComposedDeltaCdf(m, G) for m in F.margins)
    return Multidiagonal(components=comps, source=F, kind="from_marginals")


def multidiagonal_of_iid_uniform(d: int) -> Multidiagonal:
    """Multidiagonal of the independence copula in dimension d."""
    if d < 1:
        raise InvalidMarginal(f"dimension must be >= 1, got {d}")
    comps = tuple(OrderStatUniformCdf(d, i) for i in range(1, d + 1))
    return Multidiagonal(components=comps, kind="iid_uniform")


def delta_inverse(delta: Multidiagonal, i: int, u):
    """delta_(i)^{-1} = G o F_i^{-1} through the multidiagonal's transport.

    With a marginal source this reads the source's quantile and G; without
    one it is the component's own generalized inverse, G being the
    identity.  The two routes agree almost everywhere and are compared in
    the verification suite.
    """
    if not 1 <= i <= delta.d:
        raise ValueError(f"index {i} out of range 1..{delta.d}")
    margins, G, _ = delta.transport
    return G.cdf(margins[i - 1].ppf(u))


def delta_psi(delta: Multidiagonal, i: int) -> IntervalSet:
    """Separation intervals on the [0, 1] scale, with boundary conventions.

    For 2 <= i <= d this is {delta_(i-1) > delta_(i)}.  The boundary cases
    use the conventions delta_(0) == 1 and delta_(d+1) == 0:
    Psi_1 = (0, d_1) with d_1 the first time delta_(1) reaches 1, and
    Psi_{d+1} = (g, 1) with g the last time delta_(d) leaves 0.
    """
    d = delta.d
    if i == 1:
        top = delta.components[0]
        d1 = top.support[1]
        d1 = min(max(float(d1), 0.0), 1.0)
        return IntervalSet(((0.0, d1),)) if d1 > 0.0 else IntervalSet()
    if i == d + 1:
        bot = delta.components[-1]
        g = bot.support[0]
        g = min(max(float(g), 0.0), 1.0)
        return IntervalSet(((g, 1.0),)) if g < 1.0 else IntervalSet()
    if not 2 <= i <= d:
        raise ValueError(f"index {i} out of range 1..{d + 1}")
    return delta.pairs[i - 2].psi


@dataclass(frozen=True)
class MultidiagReport:
    """Validation outcome for a candidate multidiagonal."""

    is_D: bool
    is_D0: bool
    components_ok: bool
    ordering_ok: bool
    sum_residual: float
    lipschitz_ok: bool
    sigma: float

    def __str__(self):
        return (f"is_D={self.is_D} is_D0={self.is_D0} "
                f"(components_ok={self.components_ok}, ordering_ok={self.ordering_ok}, "
                f"sum_residual={self.sum_residual:.3e}, lipschitz_ok={self.lipschitz_ok}, "
                f"sigma={self.sigma:.3e})")


def validate_multidiagonal(delta: Multidiagonal, grid: int = 1024) -> MultidiagReport:
    """Check the D conditions on a grid and the D0 null-image condition."""
    d = delta.d
    s = np.linspace(0.0, 1.0, grid + 1)
    extra = sorted({k for c in delta.components for k in c.knots() if 0.0 <= k <= 1.0})
    if extra:
        s = np.unique(np.concatenate([s, np.array(extra)]))
    M = delta.cdf_matrix(s)

    components_ok = True
    for row, comp in zip(M, delta.components):
        lo, hi = comp.support
        if lo < -1e-9 or hi > 1.0 + 1e-9:
            components_ok = False
        if row[0] > 1e-9 or abs(row[-1] - 1.0) > 1e-9 or np.any(np.diff(row) < -1e-12):
            components_ok = False

    ordering_ok = bool(np.all(M[:-1] >= M[1:] - 1e-12)) if d > 1 else True
    sum_residual = float(np.max(np.abs(M.sum(axis=0) - d * s)))
    ds = np.diff(s)
    slopes = np.diff(M, axis=1) / np.where(ds > 0, ds, 1.0)
    lipschitz_ok = bool(np.all(slopes <= d + LIPSCHITZ_TOL))

    is_D = components_ok and ordering_ok and sum_residual <= SUM_TOL and lipschitz_ok
    # sigma from the separation sets the kernel uses: for a multidiagonal
    # built from marginals, the images of the marginal-scale sets
    sigma = sigma_measure(delta)
    is_D0 = is_D and sigma <= 1e-9
    return MultidiagReport(is_D=is_D, is_D0=is_D0, components_ok=components_ok,
                           ordering_ok=ordering_ok, sum_residual=sum_residual,
                           lipschitz_ok=lipschitz_ok, sigma=sigma)


def j_functional_delta(delta: Multidiagonal, method: str = "auto") -> float:
    """J of the multidiagonal, on the [0, 1] scale.

    method "quadrature" always integrates against the components, through
    the multidiagonal's pair records; "auto" uses the closed pair terms
    (the independence multidiagonal has them), or the source marginals
    when the multidiagonal was built from them (J is transport invariant).
    """
    if method not in ("auto", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto" and delta.source is not None:
        return j_functional(delta.source, method="auto")
    return j_functional(delta, method=method)
