"""Maximum-entropy copula of a multidiagonal.

Everything lives on the [0, 1] scale.  For a multidiagonal delta the
kernels

    K_i(t) = int_{m_i}^t delta_(i)'(s) / (delta_(i-1)(s) - delta_(i)(s)) ds

(one anchor m_i per separation interval, m_1 = 0, K_{d+1} = 0) determine
the copula density through the factors

    a_i(t) = K_i'(t) exp(K_{i+1}(t) - K_i(t))   on Psi_i & Psi_{i+1},

    c(u) = (1/d!) 1_L(u) prod_i a_i(u_(i)),

with L the set where every gap between consecutive sorted coordinates
stays inside the corresponding separation set.  When the multidiagonal
comes from a marginal vector the kernels are pulled back to the marginal
scale, where closed antiderivatives exist; otherwise they are computed
directly on the components.
"""

from __future__ import annotations

import math

import numpy as np

from .cdfs import MarginalCdf
from .errors import InvalidMarginal, NotAbsolutelyContinuous, NotInF0, OutOfPsi
from .hazards import PairHazard, TableHazard, _cdf_gap
from .intervals import IntervalSet, gap_inside_mask, inside_mask, snap_inside
from .marginals import (EQ_TOL, MarginalVector, average_cdf, in_support_LF,
                        sigma_measure)
from .multidiag import (Multidiagonal, delta_inverse, delta_psi,
                        j_functional_delta, validate_multidiagonal)

GAP_TOL = 1e-12


def _anchored_theta(hz: PairHazard, anchors: np.ndarray, x):
    """theta(x) less the anchor of the interval of x, on the hazard's scale.

    The interval of x is the last one starting at or below it, or the
    first one when none does.
    """
    theta = hz.theta(x)
    out = theta - anchors[0]
    for (g, _), anchor in zip(hz.psi.intervals[1:], anchors[1:]):
        np.subtract(theta, anchor, out=out, where=x >= g)
    return out


class _HazardRoute:
    """K_i evaluated directly on the [0, 1] scale through a pair hazard."""

    def __init__(self, hz: PairHazard):
        self.hz = hz
        self._anchors = hz.theta(np.array([0.5 * (g + d) for g, d in hz.psi]))

    def K(self, t):
        return _anchored_theta(self.hz, self._anchors, np.asarray(t, dtype=float))

    def kprime(self, t):
        return self.hz.ell(np.asarray(t, dtype=float))

    def solve(self, s, target):
        return self.hz.solve_tail(s, target)


class _TransportRoute:
    """K_i pulled back to the marginal scale of the source vector.

    With x = G^{-1}(t) the kernel integrand transforms to the marginal
    hazard, so K_i(t) = theta_i(G^{-1}(t)) - theta_i(G^{-1}(m)).
    """

    def __init__(self, hz: PairHazard, G: MarginalCdf, psi: IntervalSet):
        self.hz = hz
        self.G = G
        mids = np.array([0.5 * (g + d) for g, d in psi])
        self._anchors = hz.theta(np.asarray(G.ppf(mids), dtype=float))

    def K_at_x(self, x):
        return _anchored_theta(self.hz, self._anchors, x)

    def log_kprime_at_x(self, x):
        ellv = np.asarray(self.hz.ell(x), dtype=float)
        g = np.asarray(self.G.pdf(x), dtype=float)
        with np.errstate(divide="ignore"):
            out = np.log(ellv) - np.log(np.where(g > 0.0, g, 1.0))
        out[(ellv > 0.0) & (g <= 0.0)] = math.inf
        return out

    def K(self, t):
        t = np.asarray(t, dtype=float)
        x = np.asarray(self.G.ppf(t), dtype=float)
        return self.K_at_x(x)

    def kprime(self, t):
        t = np.asarray(t, dtype=float)
        x = np.asarray(self.G.ppf(t), dtype=float)
        with np.errstate(over="ignore"):
            return np.exp(self.log_kprime_at_x(x))

    def solve(self, s, target):
        x = np.asarray(self.G.ppf(np.asarray(s, dtype=float)), dtype=float)
        xt = self.hz.solve_tail(x, target)
        return np.asarray(self.G.cdf(xt), dtype=float)


class CopulaKernel:
    """Kernels, factor functions and sampler state for one multidiagonal.

    mode "auto" picks closed or transported antiderivatives where they
    exist; mode "quadrature" forces cumulative quadrature directly on the
    components, which is the independent cross-check route.
    """

    def __init__(self, delta: Multidiagonal, mode: str = "auto"):
        if mode not in ("auto", "quadrature"):
            raise ValueError(f"unknown kernel mode {mode!r}")
        self.delta = delta
        self.d = delta.d
        self.mode = mode
        self.report = validate_multidiagonal(delta)
        if not self.report.is_D:
            raise InvalidMarginal(
                f"components do not form a multidiagonal: {self.report}")
        self.psis = {i: delta_psi(delta, i) for i in range(1, self.d + 2)}
        self._routes = {}
        G = average_cdf(delta.source) if delta.source is not None else None
        # the transport routes share G, and so does every factor a_i
        self._G = G if mode == "auto" else None
        for i, p in enumerate(delta.pairs, start=2):
            if len(p.psi) == 0:
                self._routes[i] = None
            elif mode == "quadrature":
                self._routes[i] = _HazardRoute(TableHazard(p.fp, p.fc, p.psi))
            elif G is not None:
                self._routes[i] = _TransportRoute(p.source.hazard, G, p.psi)
            else:
                self._routes[i] = _HazardRoute(p.hazard)

    # -- raw evaluations, assuming points already inside the right sets --

    def _K_inner(self, i: int, t: np.ndarray) -> np.ndarray:
        if i == self.d + 1:
            return np.zeros_like(t)
        if i == 1:
            top = self.delta.components[0]
            with np.errstate(divide="ignore"):
                return -np.log(np.asarray(top.sf(t), dtype=float))
        return self._routes[i].K(t)

    def _kprime_inner(self, i: int, t: np.ndarray) -> np.ndarray:
        if i == 1:
            top = self.delta.components[0]
            f = np.asarray(top.pdf(t), dtype=float)
            surv = np.asarray(top.sf(t), dtype=float)
            out = np.zeros_like(f)
            good = (f > 0.0) & (surv > 0.0)
            out[good] = f[good] / surv[good]
            out[(f > 0.0) & ~good] = math.inf
            return out
        return self._routes[i].kprime(t)

    def _log_a_inner(self, i: int, t: np.ndarray) -> np.ndarray:
        # K_1' = f / (1 - delta_1) and exp(-K_1) = 1 - delta_1 cancel
        # exactly, so a_1 = delta_1' exp(K_2); going through K_1 instead
        # turns that into inf - inf once the survival underflows.
        if self._G is not None:
            # a source-backed kernel reads every term at the one quantile
            # x = G^{-1}(t): delta_1' = f_1(x) / g(x), and the K difference
            # is a theta difference of finite floats rather than a
            # difference of separately large values
            x = np.asarray(self._G.ppf(t), dtype=float)
            nxt = self._routes.get(i + 1)
            k_next = nxt.K_at_x(x) if nxt is not None else np.zeros_like(x)
            with np.errstate(divide="ignore", invalid="ignore"):
                if i == 1:
                    head = np.log(self.delta.components[0].pdf_at_base(x))
                else:
                    route = self._routes[i]
                    head = route.log_kprime_at_x(x) - route.K_at_x(x)
                return head + k_next
        with np.errstate(divide="ignore"):
            if i == 1:
                top = self.delta.components[0]
                return (np.log(np.asarray(top.pdf(t), dtype=float))
                        + self._K_inner(2, t))
            return (np.log(self._kprime_inner(i, t))
                    + self._K_inner(i + 1, t) - self._K_inner(i, t))

    # -- public, domain-checked evaluations --

    def K(self, i: int, t):
        """K_i on Psi_i; raises OutOfPsi for points outside."""
        if not 1 <= i <= self.d + 1:
            raise ValueError(f"kernel index {i} out of range 1..{self.d + 1}")
        t = np.atleast_1d(np.asarray(t, dtype=float))
        inside = inside_mask(self.psis[i], t)
        if not np.all(inside):
            bad = t[~inside][0]
            raise OutOfPsi(f"t={bad!r} outside the separation set for kernel {i}")
        return self._K_inner(i, t)

    def a(self, i: int, t):
        """Factor a_i = K_i' exp(K_{i+1} - K_i), zero off Psi_i & Psi_{i+1}."""
        if not 1 <= i <= self.d:
            raise ValueError(f"factor index {i} out of range 1..{self.d}")
        t = np.atleast_1d(np.asarray(t, dtype=float))
        mask = inside_mask(self.psis[i], t) & inside_mask(self.psis[i + 1], t)
        out = np.zeros(t.shape)
        if np.any(mask):
            out[mask] = np.exp(self._log_a_inner(i, t[mask]))
        return out

    def B(self, i: int, t):
        """B_i = exp(-K_i) on Psi_i (B_{d+1} = 1); zero outside."""
        if not 1 <= i <= self.d + 1:
            raise ValueError(f"index {i} out of range 1..{self.d + 1}")
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if i == self.d + 1:
            return np.ones(t.shape)
        mask = inside_mask(self.psis[i], t)
        out = np.zeros(t.shape)
        if np.any(mask):
            out[mask] = np.exp(-self._K_inner(i, t[mask]))
        return out

    def E(self, i: int, t):
        """E_i = (delta_(i) - delta_(i+1)) exp(K_{i+1}) on Psi_{i+1} (E_0 = 1)."""
        if not 0 <= i <= self.d:
            raise ValueError(f"index {i} out of range 0..{self.d}")
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if i == 0:
            return np.ones(t.shape)
        mask = inside_mask(self.psis[i + 1], t)
        out = np.zeros(t.shape)
        if np.any(mask):
            tm = t[mask]
            cur = self.delta.components[i - 1]
            if i < self.d:
                nxt = self.delta.components[i]
                gap = _cdf_gap(cur, nxt, tm)
            else:
                gap = np.asarray(cur.cdf(tm), dtype=float)
            out[mask] = gap * np.exp(self._K_inner(i + 1, tm))
        return out


def c_delta_density(kernel: CopulaKernel, u) -> np.ndarray:
    """Copula density at points of [0, 1]^d; zero outside the support.

    Requires an absolutely continuous multidiagonal (membership in the
    zero-sigma class); otherwise no density exists.
    """
    if not kernel.report.is_D0:
        raise NotAbsolutelyContinuous(
            "multidiagonal is not absolutely continuous with zero residual set")
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[1] != kernel.d:
        raise ValueError(f"points must have {kernel.d} columns")
    d = kernel.d
    v = np.sort(u, axis=1)
    # sorting puts a NaN last, so the end columns decide the [0, 1] range
    valid = (v[:, 0] >= 0.0) & (v[:, -1] <= 1.0)
    for i in range(2, d + 1):
        valid &= gap_inside_mask(kernel.psis[i], v[:, i - 2], v[:, i - 1], GAP_TOL)
    for i in range(1, d + 1):
        valid &= (inside_mask(kernel.psis[i], v[:, i - 1])
                  & inside_mask(kernel.psis[i + 1], v[:, i - 1]))
    out = np.zeros(u.shape[0])
    if not np.any(valid):
        return out
    # with every row on the support the factors read v itself
    every = bool(np.all(valid))
    vv = v if every else v[valid]
    logc = np.full(len(vv), -math.lgamma(d + 1))
    for i in range(1, d + 1):
        logc += kernel._log_a_inner(i, vv[:, i - 1])
    if every:
        return np.exp(logc)
    out[valid] = np.exp(logc)
    return out


def copula_entropy_closed(delta: Multidiagonal, method: str = "auto") -> float:
    """Entropy of the maximum-entropy copula of delta.

    -J(delta) + log d! + (d - 1) + sum_i H(delta_(i)); -inf when J
    diverges or a component entropy does.
    """
    jv = j_functional_delta(delta, method=method)
    if not math.isfinite(jv):
        return -math.inf
    hsum = 0.0
    for comp in delta.components:
        h = comp.entropy()
        if not math.isfinite(h):
            return -math.inf
        hsum += h
    return -jv + math.lgamma(delta.d + 1) + (delta.d - 1) + hsum


def order_stat_copula_entropy(delta: Multidiagonal, method: str = "auto") -> float:
    """Entropy of the copula of the order-statistics model itself: d-1-J."""
    jv = j_functional_delta(delta, method=method)
    if not math.isfinite(jv):
        return -math.inf
    return delta.d - 1.0 - jv


def sample_copula(kernel: CopulaKernel, n: int, seed: int = 0) -> np.ndarray:
    """n exchangeable draws from the maximum-entropy copula.

    The ordered vector is built by the kernel chain: the smallest
    coordinate follows delta_(1), and each next one solves
    K_i(t) - K_i(s) = -log(1 - V) inside the interval of s.  A random
    permutation of each row removes the ordering.
    """
    if not kernel.report.is_D0:
        raise NotAbsolutelyContinuous(
            "multidiagonal is not absolutely continuous with zero residual set")
    d = kernel.d
    rng = np.random.default_rng(seed)
    V = np.empty((n, d))
    u0 = np.clip(rng.random(n), 1e-16, 1.0 - 1e-16)
    V[:, 0] = delta_inverse(kernel.delta, 1, u0)
    for i in range(2, d + 1):
        route = kernel._routes[i]
        if route is None:
            raise NotAbsolutelyContinuous(
                f"separation set for kernel {i} is empty; the chain cannot continue")
        targets = -np.log1p(-rng.random(n))
        s = snap_inside(kernel.psis[i], V[:, i - 2])
        V[:, i - 1] = route.solve(s, targets)
    return rng.permuted(V, axis=1)


def _delta_values_and_slopes(delta: Multidiagonal, v: np.ndarray):
    """delta_(i)(v_i) and delta_(i)'(v_i) column-wise for sorted points v."""
    d = delta.d
    vals = np.empty_like(v)
    slopes = np.empty_like(v)
    if delta.source is not None:
        G = average_cdf(delta.source)
        x = np.asarray(G.ppf(v.ravel()), dtype=float).reshape(v.shape)
        g = np.asarray(G.pdf(x.ravel()), dtype=float).reshape(v.shape)
        for i in range(d):
            Fi = delta.source.margins[i]
            vals[:, i] = Fi.cdf(x[:, i])
            fi = np.asarray(Fi.pdf(x[:, i]), dtype=float)
            gi = g[:, i]
            slopes[:, i] = np.where((fi > 0.0) & (gi > 0.0), fi / np.where(gi > 0, gi, 1.0), 0.0)
    else:
        for i in range(d):
            comp = delta.components[i]
            vals[:, i] = comp.cdf(v[:, i])
            slopes[:, i] = comp.pdf(v[:, i])
    return vals, slopes


def symmetrize_density(delta: Multidiagonal, c_fn):
    """Exchangeable density of the multidiagonal shift of a copula density.

    s(u) = (1/d!) c(delta_(1)(u_(1)), ..., delta_(d)(u_(d)))
           * prod_i delta_(i)'(u_(i)).
    """
    d = delta.d
    norm = math.lgamma(d + 1)

    def s(u):
        u = np.atleast_2d(np.asarray(u, dtype=float))
        v = np.sort(u, axis=1)
        vals, slopes = _delta_values_and_slopes(delta, v)
        cvals = np.asarray(c_fn(vals), dtype=float)
        with np.errstate(divide="ignore"):
            logprod = np.sum(np.log(slopes), axis=1)
        out = np.zeros(u.shape[0])
        live = (cvals > 0.0) & np.isfinite(logprod)
        out[live] = cvals[live] * np.exp(logprod[live] - norm)
        return out

    return s


def unsymmetrize_density(delta: Multidiagonal, s_fn):
    """Inverse of the multidiagonal shift on densities.

    c(u) = d! s(delta_(1)^{-1}(u_1), ..., delta_(d)^{-1}(u_d))
           / prod_i delta_(i)'(delta_(i)^{-1}(u_i)),
    restricted to the region where the back-transformed point is ordered.
    """
    d = delta.d
    norm = math.lgamma(d + 1)

    def c(u):
        u = np.atleast_2d(np.asarray(u, dtype=float))
        w = np.empty_like(u)
        for i in range(1, d + 1):
            w[:, i - 1] = delta_inverse(delta, i, u[:, i - 1])
        _, slopes = _delta_values_and_slopes(delta, w)
        svals = np.asarray(s_fn(w), dtype=float)
        ordered = np.all(w[:, 1:] >= w[:, :-1] - GAP_TOL, axis=1)
        ordered &= np.all(np.isfinite(w), axis=1)
        with np.errstate(divide="ignore"):
            logprod = np.sum(np.log(slopes), axis=1)
        out = np.zeros(u.shape[0])
        live = ordered & (svals > 0.0) & np.isfinite(logprod)
        out[live] = svals[live] * np.exp(norm - logprod[live])
        return out

    return c


def c_F_density(margins: MarginalVector, u, *, hazards=None) -> np.ndarray:
    """Copula density of the order-statistics model on the marginal scale.

    c(u) = prod_{i>=2} exp(-Lambda_i(x_{i-1}, x_i)) / (F_{i-1}(x_i) - u_i)
    at x_j = F_j^{-1}(u_j), supported where the back-mapped point is
    ordered, its gaps stay separated, and every marginal density is
    positive.  Requires an absolutely continuous, zero-residual vector.
    """
    for i, m in enumerate(margins.margins, start=1):
        if not m.is_absolutely_continuous:
            raise NotInF0(f"margin {i} is not absolutely continuous")
    if sigma_measure(margins) > EQ_TOL:
        raise NotInF0("residual separation set has positive measure")
    d = margins.d
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[1] != d:
        raise ValueError(f"points must have {d} columns")
    if hazards is None:
        hazards = {i: p.hazard for i, p in enumerate(margins.pairs, start=2)}
    interior = np.all((u > 0.0) & (u < 1.0), axis=1)
    x = np.empty_like(u)
    for j in range(d):
        x[:, j] = margins.margins[j].ppf(np.clip(u[:, j], 1e-300, 1.0))
    valid = interior & in_support_LF(margins, x)
    for j in range(d):
        valid &= np.asarray(margins.margins[j].pdf(x[:, j]), dtype=float) > 0.0
    out = np.zeros(u.shape[0])
    if np.any(valid):
        xv = x[valid]
        uv = u[valid]
        logc = np.zeros(valid.sum())
        for i in range(2, d + 1):
            lam = hazards[i].lambda_between(xv[:, i - 2], xv[:, i - 1])
            gap = np.asarray(margins.margins[i - 2].cdf(xv[:, i - 1]), dtype=float) - uv[:, i - 1]
            with np.errstate(divide="ignore"):
                logc += -lam - np.log(np.maximum(gap, 5e-324))
        out[valid] = np.exp(logc)
    return out
