"""Maximum-entropy copula of a multidiagonal.

Every public value lives on the [0, 1] scale.  For a multidiagonal delta the
kernels

    K_i(t) = int_{m_i}^t delta_(i)'(s) / (delta_(i-1)(s) - delta_(i)(s)) ds

(one anchor m_i per separation interval, m_1 = 0, K_{d+1} = 0) determine
the copula density through the factors

    a_i(t) = K_i'(t) exp(K_{i+1}(t) - K_i(t))   on Psi_i & Psi_{i+1},

    c(u) = (1/d!) 1_L(u) prod_i a_i(u_(i)),

with L the set where every gap between consecutive sorted coordinates
stays inside the corresponding separation set.

A kernel is read through a first marginal, one pair hazard per
consecutive pair and an increasing map G onto [0, 1]: at x = G^{-1}(t),
K_i(t) is the hazard integral theta_i(x) and K_i'(t) is ell_i(x) / g(x).
So the copula is the joint law of the order statistics read through G,
and its density and sampler are those of the joint model.  For a
multidiagonal built from marginals the three are the source's first
margin, its pair hazards (closed where closed antiderivatives exist) and
its average CDF; otherwise they are the components themselves, with G the
identity.
"""

from __future__ import annotations

import math

import numpy as np

from .cdfs import _Columns
from .errors import InvalidMarginal, NotAbsolutelyContinuous, NotInF0, OutOfPsi
from .hazards import PairHazard, TableHazard, _cdf_gap
from .intervals import gap_inside_mask, inside_mask
from .joint import _add_pair_terms, _draw_sorted
from .marginals import EQ_TOL, MarginalVector, in_support_LF, sigma_measure
from .multidiag import (Multidiagonal, _Identity, delta_inverse, delta_psi,
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


class CopulaKernel:
    """Kernels, factor functions and sampler state for one multidiagonal.

    The kernel reads three things: a first marginal, one pair hazard per
    consecutive pair, and an increasing map G onto [0, 1].  Every kernel
    value at t is read at x = G^{-1}(t).  Mode "auto" reads the
    multidiagonal's transport: the source marginals when there are any
    (their first margin, their pair hazards and their average CDF), and
    otherwise the components themselves with G the identity.  Mode
    "quadrature" tabulates the hazards of the components, read through
    the identity, which is the independent cross-check route.
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
        if mode == "auto":
            self._margins, self._avg, pairs = delta.transport
        else:
            self._margins, self._avg, pairs = delta.components, _Identity(), delta.pairs
        self._first = self._margins[0]
        # hazards on the scale of x, keyed like the joint model's
        pairs = dict(enumerate(pairs, start=2))
        self._hazards = {i: TableHazard(p) if mode == "quadrature"
                         else p.hazard for i, p in pairs.items()}
        # K_i is zero at the midpoint of each interval of Psi_i; one G^{-1}
        # call solves the midpoints of every hazard
        mids = [[0.5 * (g + dd) for g, dd in self.psis[i]] for i in self._hazards]
        xs = np.split(self._avg.ppf(np.array(sum(mids, []))),
                      np.cumsum([len(m) for m in mids])[:-1])
        self._anchors = {i: hz.theta(x) for (i, hz), x in zip(self._hazards.items(), xs)}

    # -- raw evaluations, assuming points already inside the right sets --

    def _K_at(self, i: int, x: np.ndarray) -> np.ndarray:
        """K_i at t = G(x)."""
        if i == self.d + 1:
            return np.zeros_like(x)
        if i == 1:
            with np.errstate(divide="ignore"):
                return -np.log(self._first.sf(x))
        return _anchored_theta(self._hazards[i], self._anchors[i], x)

    def _K_inner(self, i: int, t: np.ndarray) -> np.ndarray:
        if i == self.d + 1:
            return np.zeros_like(t)
        return self._K_at(i, self._avg.ppf(t))

    def _kprime_at(self, i: int, x: np.ndarray) -> np.ndarray:
        """K_i' at t = G(x) for i >= 2: ell_i(x) / g(x)."""
        ell = self._hazards[i].ell(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(ell > 0.0, ell / self._avg.pdf(x), 0.0)

    def _log_a_inner(self, i: int, t: np.ndarray) -> np.ndarray:
        # log a_i = log ell_i(x) - K_i + K_{i+1} - log g(x) at x = G^{-1}(t).
        # For i = 1, ell_1 exp(-K_1) is f_1 exactly; going through K_1
        # instead turns that into inf - inf once the survival underflows.
        x = self._avg.ppf(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            if i == 1:
                head = np.log(self._first.pdf(x))
            else:
                head = np.log(self._hazards[i].ell(x)) - self._K_at(i, x)
            return head + self._K_at(i + 1, x) - np.log(self._avg.pdf(x))

    def _log_density(self, v) -> np.ndarray:
        """log c at sorted rows v on the support: an (n, d) array, a level
        block or their cdfs._Columns.

        The joint log-density at x = G^{-1}(v), less log g(x_i) for every
        column and log d!.  One G^{-1} call takes all d columns, so each
        distinct level among them is solved once; on a level block every
        other term reads each level once too.
        """
        xs = _Columns.of(v).map(self._avg.ppf)
        lg = math.lgamma(self.d + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            logc = xs.read(0, lambda x: np.log(self._first.pdf(x)) - lg)
            work = xs.buffers(2)
            # log g is 0 for the identity G
            if not isinstance(self._avg, _Identity):
                for j in range(self.d):
                    logc -= xs.read(j, lambda x: np.log(self._avg.pdf(x)), out=work[0])
            _add_pair_terms(logc, xs, self._hazards, work)
        return logc

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
            # delta_(i) - delta_(i+1) is F_i - F_{i+1} at x = G^{-1}(t)
            x = self._avg.ppf(t[mask])
            cur = self._margins[i - 1]
            gap = _cdf_gap(cur, self._margins[i], x) if i < self.d else cur.cdf(x)
            out[mask] = gap * np.exp(self._K_at(i + 1, x))
        return out


def _sort_rows(u: np.ndarray) -> np.ndarray:
    """The columns of each row of u in increasing order: np.sort's values.

    Odd-even transposition: d rounds of compare-exchange on neighbouring
    columns, each an np.minimum and an np.maximum over whole columns.
    Those return their second operand on a tie, so the operand order
    below keeps equal values (0.0 and -0.0) in their order.  A NaN
    spreads to every column of its row.  The rounds run in place on one
    (d, n) copy of u, and the result is its transpose, so each of its
    columns is contiguous.
    """
    out = np.array(u.T, order="C")
    low = np.empty(out.shape[1])
    d = len(out)
    for r in range(d):
        for i in range(r % 2, d - 1, 2):
            a, b = out[i], out[i + 1]
            np.minimum(b, a, out=low)
            np.maximum(a, b, out=b)
            a[...] = low
    return out.T


def _rows_sorted(u: np.ndarray) -> bool:
    """Whether every row of u is nondecreasing, a NaN failing its compare:
    then _sort_rows would return u's values, bit for bit."""
    cols = u.T
    return all(np.all(a <= b) for a, b in zip(cols[:-1], cols[1:]))


def c_delta_density(kernel: CopulaKernel, u) -> np.ndarray:
    """Copula density at points of [0, 1]^d; zero outside the support.

    Requires an absolutely continuous multidiagonal (membership in the
    zero-sigma class); otherwise no density exists.  On a quadrature block
    of sorted rows that carries its columns' levels (cdfs._LevelBlock),
    G^{-1} solves the union of the levels and every term of one
    coordinate reads each level once; the support mask and the sums read
    the points.
    """
    if not kernel.report.is_D0:
        raise NotAbsolutelyContinuous(
            "multidiagonal is not absolutely continuous with zero residual set")
    block = u
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[1] != kernel.d:
        raise ValueError(f"points must have {kernel.d} columns")
    d = kernel.d
    # rows already sorted (an ordered-region rule's) are their own sort
    v = u if _rows_sorted(u) else _sort_rows(u)
    # a NaN fills its row, so the end columns decide the [0, 1] range
    valid = (v[:, 0] >= 0.0) & (v[:, -1] <= 1.0)
    for i in range(2, d + 1):
        valid &= gap_inside_mask(kernel.psis[i], v[:, i - 2], v[:, i - 1], GAP_TOL)
    for i in range(1, d + 1):
        valid &= (inside_mask(kernel.psis[i], v[:, i - 1])
                  & inside_mask(kernel.psis[i + 1], v[:, i - 1]))
    if not np.any(valid):
        return np.zeros(u.shape[0])
    # with every row on the support the density reads v itself; sorting
    # moves values between columns, so only an unsorted block keeps its levels
    every = bool(np.all(valid))
    logc = kernel._log_density(_Columns.of(block if v is u else v, None if every else valid))
    if every:
        return np.exp(logc, out=logc)
    out = np.zeros(u.shape[0])
    out[valid] = np.exp(logc, out=logc)
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

    The sorted rows are the joint sampler's draws on the kernel's scale
    (exact inversion of each pair hazard's tail, given the coordinate
    before), mapped to [0, 1] by G.  A random permutation of each row
    removes the ordering.
    """
    if not kernel.report.is_D0:
        raise NotAbsolutelyContinuous(
            "multidiagonal is not absolutely continuous with zero residual set")
    rng = np.random.default_rng(seed)
    X = _draw_sorted(kernel._first, kernel._hazards, n, rng)
    return rng.permuted(kernel._avg.cdf(X), axis=1)


def _delta_columns(delta: Multidiagonal, v):
    """The columns delta_(i)(v_i) and delta_(i)'(v_i) of sorted points v
    (an array, a level block or their _Columns): F_i(x_i) and
    f_i(x_i) / g(x_i) at x = G^{-1}(v), through the multidiagonal's
    transport."""
    margins, G, _ = delta.transport

    def slope(m):
        def read(x):
            f, g = m.pdf(x), G.pdf(x)
            return np.where((f > 0.0) & (g > 0.0), f / np.where(g > 0, g, 1.0), 0.0)
        return read

    xs = _Columns.of(v).map(G.ppf)
    return xs.map_each([m.cdf for m in margins]), xs.map_each([slope(m) for m in margins])


def _delta_values_and_slopes(delta: Multidiagonal, v: np.ndarray):
    """delta_(i)(v_i) and delta_(i)'(v_i) column-wise for sorted points v,
    as arrays laid out like v (see _delta_columns)."""
    vals, slopes = _delta_columns(delta, v)
    return vals.block(like=v), slopes.block(like=v)


def _log_product(slopes) -> np.ndarray:
    """sum_i log slopes[:, i], added column by column, left to right;
    slopes is an array or its _Columns."""
    slopes = _Columns.of(slopes)
    with np.errstate(divide="ignore"):
        acc = slopes.read(0, np.log)
        work, = slopes.buffers(1)
        for j in range(1, len(slopes)):
            acc += slopes.read(j, np.log, out=work)
    return acc


def symmetrize_density(delta: Multidiagonal, c_fn):
    """Exchangeable density of the multidiagonal shift of a copula density.

    s(u) = (1/d!) c(delta_(1)(u_(1)), ..., delta_(d)(u_(d)))
           * prod_i delta_(i)'(u_(i)).

    On a quadrature block of sorted rows that carries its columns' levels
    (cdfs._LevelBlock), G^{-1}, delta_(i) and the slopes read each level
    once, and c reads the values delta_(i)(u_(i)) as a block that carries
    them with the same index.
    """
    d = delta.d
    norm = math.lgamma(d + 1)

    def s(u):
        block = u
        u = np.atleast_2d(np.asarray(u, dtype=float))
        v = u if _rows_sorted(u) else _sort_rows(u)
        vals, slopes = _delta_columns(delta, block if v is u else v)
        cvals = np.asarray(c_fn(vals.block(like=v)), dtype=float)
        logprod = _log_product(slopes)
        # a NaN fills its row; G^{-1} would read it as a number
        live = (cvals > 0.0) & np.isfinite(logprod) & ~np.isnan(v[:, 0])
        if np.all(live):
            logprod -= norm
            return cvals * np.exp(logprod, out=logprod)
        out = np.zeros(u.shape[0])
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
        cols = w.T
        ordered = np.isfinite(cols[0])
        for a, b in zip(cols[:-1], cols[1:]):
            ordered &= (b >= a - GAP_TOL) & np.isfinite(b)
        logprod = _log_product(slopes)
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
    On a quadrature block that carries its columns' levels
    (cdfs._LevelBlock), the quantiles, densities, CDFs and theta read each
    level once; the support masks, gaps and sums read the points.
    """
    for i, m in enumerate(margins.margins, start=1):
        if not m.is_absolutely_continuous:
            raise NotInF0(f"margin {i} is not absolutely continuous")
    if sigma_measure(margins) > EQ_TOL:
        raise NotInF0("residual separation set has positive measure")
    d = margins.d
    block = u
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[1] != d:
        raise ValueError(f"points must have {d} columns")
    if hazards is None:
        hazards = {i: p.hazard for i, p in enumerate(margins.pairs, start=2)}
    interior = np.ones(len(u), dtype=bool)
    for c in u.T:
        interior &= (c > 0.0) & (c < 1.0)
    ms = margins.margins
    xs = _Columns.of(block).map_each([m.ppf for m in ms])
    x = xs.block()
    # rows with a u on the cube edge map to infinite x; keep them out of
    # the support test, whose gap arithmetic reads inf - inf there
    if np.all(interior):
        valid = in_support_LF(margins, x)
    else:
        valid = interior.copy()
        if np.any(interior):
            valid[interior] = in_support_LF(margins, x[interior])
    for j, m in enumerate(ms):
        valid &= xs.read(j, lambda t: np.asarray(m.pdf(t), dtype=float) > 0.0)
    if not np.any(valid):
        return np.zeros(u.shape[0])
    # with every row on the support the columns are read in place
    every = bool(np.all(valid))
    xv, uv = (xs, u.T) if every else (xs.rows(valid), u[valid].T)
    logc = np.zeros(len(uv[0]))
    work = xv.buffers(2)
    for i in range(2, d + 1):
        # -Lambda_i - log(F_{i-1}(x_i) - u_i), in place
        lam = xv.between(hazards[i], i, out=work[0])
        gap = xv.read(i - 1, lambda t: np.asarray(ms[i - 2].cdf(t), dtype=float), out=work[1])
        gap -= uv[i - 1]
        with np.errstate(divide="ignore"):
            np.log(np.maximum(gap, 5e-324, out=gap), out=gap)
        np.negative(lam, out=lam)
        lam -= gap
        logc += lam
    if every:
        return np.exp(logc, out=logc)
    out = np.zeros(u.shape[0])
    out[valid] = np.exp(logc, out=logc)
    return out
