"""The density layer's column passes give the same bits as the row-wise code.

The references below are the earlier implementations, kept as they were:
reductions along the row axis (np.max, np.all along axis 1), boolean
gathers and scatters, and a searchsorted interval lookup for every
separation set.  Hypothesis feeds both the same blocks of rows: rows on
the support, unsorted and exactly tied rows, NaN and +-inf entries, rows on
separation-set endpoints, C- and F-ordered arrays and single rows, on pairs
whose separation set has one interval and on pairs where it has two.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxentos import (CopulaKernel, MarginalVector, Multidiagonal, build_model,
                      c_F_density, c_delta_density, delta_inverse, f_F_density,
                      in_support_LF, multidiagonal_from_marginals,
                      multidiagonal_of_iid_uniform, symmetrize_density,
                      unsymmetrize_density)
from maxentos.cdfs import (BetaOneKCdf, ExponentialCdf, OrderStatUniformCdf,
                           PiecewiseLinearCdf)
from maxentos.copula import GAP_TOL, _delta_values_and_slopes, _sort_rows
from maxentos.hazards import (ExpPairHazard, OrderStatPairHazard, TableHazard,
                              _cdf_gap)
from maxentos.intervals import gap_inside_mask, inside_mask
from maxentos.marginals import _pairs

# -- the row-wise references ---------------------------------------------


def _ref_in_support_LF(F, x):
    pairs = _pairs(F)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    X = np.atleast_2d(x)
    scale = np.maximum(1.0, np.max(np.abs(X), axis=1))
    ok = np.all(X[:, 1:] >= X[:, :-1] - 1e-12 * scale[:, None], axis=1)
    for i, p in enumerate(pairs, start=2):
        a, b = X[:, i - 2], X[:, i - 1]
        inside = a >= b
        for g, dd in p.psi:
            tol = 1e-12 * max(1.0, abs(g) if math.isfinite(g) else 1.0,
                              abs(dd) if math.isfinite(dd) else 1.0)
            inside = inside | ((a >= g - tol) & (b <= dd + tol))
        ok = ok & inside
    return bool(ok[0]) if scalar else ok


def _ref_interval_index(hz, t):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if len(hz._starts) == 0:
        return np.full(t.shape, -1, dtype=int)
    idx = np.searchsorted(hz._starts, t, side="right") - 1
    idxc = np.clip(idx, 0, len(hz._starts) - 1)
    inside = (idx >= 0) & (t > hz._starts[idxc]) & (t < hz._ends[idxc])
    return np.where(inside, idxc, -1)


def _ref_lambda_between(hz, s, t):
    s = np.atleast_1d(np.asarray(s, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    s, t = np.broadcast_arrays(s, t)
    out = np.full(s.shape, math.inf)
    empty = t <= s
    out[empty] = 0.0
    i_s = _ref_interval_index(hz, s)
    i_t = _ref_interval_index(hz, t)
    same = (i_s >= 0) & (i_s == i_t) & ~empty
    if np.any(same):
        out[same] = hz.theta(t[same]) - hz.theta(s[same])
    return out


def _ref_ell(hz, t):
    """ell as each hazard class computed it; a table hazard read f_cur and
    the gap through its margins' own pdf, cdf and sf."""
    t = np.asarray(t, dtype=float)
    if isinstance(hz, ExpPairHazard):
        out = np.full(t.shape, 0.0)
        pos = t > 0.0
        with np.errstate(divide="ignore"):
            denom = -np.expm1(-hz.drop * hz.s_of(t[pos]))
            out[pos] = hz.lam / denom * hz.ds_dt(t[pos])
        out[t == 0.0] = math.inf
    elif isinstance(hz, OrderStatPairHazard):
        out = np.full(t.shape, 0.0)
        pos = (t > 0.0) & (t < 1.0)
        out[pos] = hz.c / (1.0 - t[pos])
        out[t >= 1.0] = math.inf
    else:
        f = np.asarray(hz.fc.pdf(t), dtype=float)
        gap = _cdf_gap(hz.fp, hz.fc, t)
        out = np.full(np.broadcast(t, f).shape, 0.0)
        pos = f > 0.0
        good = pos & (gap > 0.0)
        out[good] = f[good] / gap[good]
        out[pos & ~good] = math.inf
    return out if out.ndim else float(out)


def _ref_f_F_density(model, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    valid = _ref_in_support_LF(model.margins, x)
    out = np.zeros(x.shape[0])
    if not np.any(valid):
        return out
    xv = x[valid]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logf = np.log(np.asarray(model.margins.margins[0].pdf(xv[:, 0]), dtype=float))
        for i in range(2, model.d + 1):
            hz = model.hazards[i]
            logf += (np.log(_ref_ell(hz, xv[:, i - 1]))
                     - _ref_lambda_between(hz, xv[:, i - 2], xv[:, i - 1]))
        vals = np.exp(logf)
    vals[np.isnan(vals)] = 0.0
    out[valid] = vals
    return out


def _ref_c_F_density(margins, u, hazards):
    d = margins.d
    u = np.atleast_2d(np.asarray(u, dtype=float))
    interior = np.all((u > 0.0) & (u < 1.0), axis=1)
    x = np.empty_like(u)
    for j in range(d):
        x[:, j] = margins.margins[j].ppf(u[:, j])
    valid = interior.copy()
    if np.any(interior):
        valid[interior] = _ref_in_support_LF(margins, x[interior])
    for j in range(d):
        valid &= np.asarray(margins.margins[j].pdf(x[:, j]), dtype=float) > 0.0
    out = np.zeros(u.shape[0])
    if np.any(valid):
        xv = x[valid]
        uv = u[valid]
        logc = np.zeros(valid.sum())
        for i in range(2, d + 1):
            lam = _ref_lambda_between(hazards[i], xv[:, i - 2], xv[:, i - 1])
            gap = np.asarray(margins.margins[i - 2].cdf(xv[:, i - 1]), dtype=float) - uv[:, i - 1]
            with np.errstate(divide="ignore"):
                logc += -lam - np.log(np.maximum(gap, 5e-324))
        out[valid] = np.exp(logc)
    return out


def _ref_log_density(kernel, v):
    xs = kernel._avg.ppf(v.T)
    with np.errstate(divide="ignore", invalid="ignore"):
        logc = np.log(kernel._first.pdf(xs[0])) - math.lgamma(kernel.d + 1)
        for x in xs:
            logc -= np.log(kernel._avg.pdf(x))
        for i, hz in kernel._hazards.items():
            x, prev = xs[i - 1], xs[i - 2]
            logc += np.log(_ref_ell(hz, x)) - _ref_lambda_between(hz, prev, x)
    return logc


def _ref_c_delta_density(kernel, u):
    u = np.atleast_2d(np.asarray(u, dtype=float))
    d = kernel.d
    v = _sort_rows(u)
    valid = (v[:, 0] >= 0.0) & (v[:, -1] <= 1.0)
    for i in range(2, d + 1):
        valid &= gap_inside_mask(kernel.psis[i], v[:, i - 2], v[:, i - 1], GAP_TOL)
    for i in range(1, d + 1):
        valid &= (inside_mask(kernel.psis[i], v[:, i - 1])
                  & inside_mask(kernel.psis[i + 1], v[:, i - 1]))
    out = np.zeros(u.shape[0])
    if np.any(valid):
        out[valid] = np.exp(_ref_log_density(kernel, v[valid]))
    return out


def _ref_symmetrize_density(delta, c_fn):
    norm = math.lgamma(delta.d + 1)

    def s(u):
        u = np.atleast_2d(np.asarray(u, dtype=float))
        v = _sort_rows(u)
        vals, slopes = _delta_values_and_slopes(delta, v)
        cvals = np.asarray(c_fn(vals), dtype=float)
        with np.errstate(divide="ignore"):
            logprod = np.sum(np.log(slopes), axis=1)
        out = np.zeros(u.shape[0])
        live = (cvals > 0.0) & np.isfinite(logprod) & ~np.isnan(v[:, 0])
        out[live] = cvals[live] * np.exp(logprod[live] - norm)
        return out

    return s


def _ref_unsymmetrize_density(delta, s_fn):
    norm = math.lgamma(delta.d + 1)

    def c(u):
        u = np.atleast_2d(np.asarray(u, dtype=float))
        w = np.empty_like(u)
        for i in range(1, delta.d + 1):
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


# -- subjects ------------------------------------------------------------


def _pl(*knots):
    return PiecewiseLinearCdf(knots)


def _tent():
    return _pl((0, 0), (0.5, 0.75), (1, 1)), _pl((0, 0), (0.5, 0.25), (1, 1))


# (margins, box of the support): a closed hazard per route, the tent (one
# interval), a two-interval piecewise pair and the knot-touching general
# pair (two intervals, tabulated), and a tabulated pair on (0, inf)
MARGINS = {
    "beta2": ((BetaOneKCdf(2), BetaOneKCdf(1)), 1.0),
    "exp3": ((ExponentialCdf(3.0), ExponentialCdf(2.0), ExponentialCdf(1.0)), 3.0),
    "order_stat3": (tuple(OrderStatUniformCdf(3, i) for i in (1, 2, 3)), 1.0),
    "tent": (_tent(), 1.0),
    "two_interval": ((_pl((0, 0), (0.25, 0.5), (0.5, 0.5), (0.75, 0.9), (1, 1)),
                      _pl((0, 0), (0.5, 0.5), (1, 1))), 1.0),
    "knot_touch": ((BetaOneKCdf(2), _pl((0.0, 0.0), (0.5, 0.75), (1.0, 1.0))), 1.0),
    "beta3_exp1": ((BetaOneKCdf(3), ExponentialCdf(1.0)), 3.0),
}
MODELS = [(name, ft) for name in MARGINS for ft in (False, True)
          if not ft or name in ("exp3", "tent")]


@functools.cache
def _model(name, force_table):
    return build_model(MarginalVector(MARGINS[name][0]), force_table=force_table)


@functools.cache
def _kernel(name):
    if name == "iid3":
        return CopulaKernel(multidiagonal_of_iid_uniform(3))
    if name == "tent":
        return CopulaKernel(Multidiagonal(_tent()))
    if name == "beta2_quadrature":
        return CopulaKernel(multidiagonal_from_marginals(MarginalVector(MARGINS["beta2"][0])),
                            mode="quadrature")
    return CopulaKernel(multidiagonal_from_marginals(MarginalVector(MARGINS[name][0])))


KERNELS = ["iid3", "exp3", "beta2_quadrature", "tent", "knot_touch"]


def _endpoints(isets):
    ends = sorted({float(e) for s in isets for iv in s for e in iv if math.isfinite(e)})
    return ends + [float(np.nextafter(e, side)) for e in ends for side in (-math.inf, math.inf)]


def _pool(rows, keep):
    """The sorted rows of rows that keep marks: a pool on the support."""
    rows = np.sort(rows, axis=1)
    return rows[keep(rows)]


@st.composite
def _blocks(draw, pool, specials, hi):
    """Rows of pool, on the support; unless every row stays live, some
    entries replaced by specials or free floats and some columns tied.
    C or F order."""
    d = pool.shape[1]
    idx = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=24))
    X = pool[idx]
    if not draw(st.booleans()):
        entries = st.one_of(st.sampled_from(specials),
                            st.floats(-0.25 * hi, 1.25 * hi),
                            st.floats(allow_nan=True, allow_infinity=True))
        for r in range(len(X)):
            for j in range(d):
                if draw(st.integers(0, 2)) == 0:
                    X[r, j] = draw(entries)
        if d > 1 and draw(st.booleans()):
            j = draw(st.integers(0, d - 2))
            X[:, j + 1] = X[:, j]                   # exactly tied columns
        if draw(st.booleans()):
            X = X[:, ::-1].copy()                   # unsorted rows
    if draw(st.booleans()):
        X = np.asfortranarray(X)
    return X


_SPECIALS = [0.0, -0.0, 1.0, math.nan, math.inf, -math.inf]


def _same_bits(got, expect):
    got, expect = np.asarray(got), np.asarray(expect)
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


# -- the pins ------------------------------------------------------------


@functools.cache
def _joint_case(name, force_table):
    model = _model(name, force_table)
    hi = MARGINS[name][1]
    rows = np.random.default_rng(3).uniform(0.0, hi, (600, model.d))
    pool = _pool(rows, lambda X: _ref_f_F_density(model, X) > 0.0)
    return model, pool, _SPECIALS + _endpoints(model.psis.values()), hi


@pytest.mark.parametrize("name,force_table", MODELS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_joint_density_layer_matches_row_wise_code(name, force_table, data):
    model, pool, specials, hi = _joint_case(name, force_table)
    X = data.draw(_blocks(pool, specials, hi))
    _same_bits(in_support_LF(model.margins, X), _ref_in_support_LF(model.margins, X))
    assert in_support_LF(model.margins, X[0]) is _ref_in_support_LF(model.margins, X[0])
    for i, hz in model.hazards.items():
        s, t = X[:, i - 2], X[:, i - 1]
        _same_bits(hz.interval_index(t), _ref_interval_index(hz, t))
        _same_bits(hz.lambda_between(s, t), _ref_lambda_between(hz, s, t))
        _same_bits(hz.ell(X.ravel()), _ref_ell(hz, X.ravel()))
        assert np.array_equal(hz.ell(X[0, 0]), _ref_ell(hz, X[0, 0]), equal_nan=True)
    _same_bits(f_F_density(model, X), _ref_f_F_density(model, X))


@functools.cache
def _copula_case(name):
    model = _model(name, False)
    rows = np.random.default_rng(4).uniform(0.0, MARGINS[name][1], (600, model.d))
    x = _pool(rows, lambda X: _ref_in_support_LF(model.margins, X))
    u = np.column_stack([m.cdf(x[:, j]) for j, m in enumerate(model.margins.margins)])
    pool = u[_ref_c_F_density(model.margins, u, model.hazards) > 0.0]
    return model, pool


@pytest.mark.parametrize("name", ["beta2", "exp3", "tent", "knot_touch"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_marginal_scale_copula_matches_row_wise_code(name, data):
    model, pool = _copula_case(name)
    U = data.draw(_blocks(pool, _SPECIALS + [0.5, 0.25], 1.0))
    _same_bits(c_F_density(model.margins, U, hazards=model.hazards),
               _ref_c_F_density(model.margins, U, model.hazards))


@functools.cache
def _kernel_case(name):
    kernel = _kernel(name)
    rows = np.random.default_rng(5).random((600, kernel.d))
    pool = _pool(rows, lambda V: _ref_c_delta_density(kernel, V) > 0.0)
    return kernel, pool, _SPECIALS + _endpoints(kernel.psis.values())


@pytest.mark.parametrize("name", KERNELS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_copula_density_matches_row_wise_code(name, data):
    kernel, pool, specials = _kernel_case(name)
    U = data.draw(_blocks(pool, specials, 1.0))
    _same_bits(c_delta_density(kernel, U), _ref_c_delta_density(kernel, U))
    for hz in kernel._hazards.values():
        _same_bits(hz.ell(U.ravel()), _ref_ell(hz, U.ravel()))


@pytest.mark.parametrize("name", ["exp3", "tent"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_multidiagonal_shift_matches_row_wise_code(name, data):
    delta = _kernel(name).delta
    kernel, pool, specials = _kernel_case(name)
    U = data.draw(_blocks(pool, specials + [-0.5, 1.5], 1.0))

    def c_fn(V):
        return 1.0 + V[:, 0] - V[:, -1]
    _same_bits(symmetrize_density(delta, c_fn)(U), _ref_symmetrize_density(delta, c_fn)(U))
    _same_bits(unsymmetrize_density(delta, c_fn)(U), _ref_unsymmetrize_density(delta, c_fn)(U))


def test_multidiagonal_shift_is_layout_independent_at_d8():
    # from d = 8 on, np.sum along axis 1 adds a C-ordered row pairwise and
    # an F-ordered one left to right; the shift maps add left to right for
    # both layouts, which is the reference's value on the F-ordered copy
    delta = multidiagonal_of_iid_uniform(8)
    U = np.random.default_rng(8).random((2000, 8))
    UF = np.asfortranarray(U)

    def c_fn(V):
        return 1.0 + V[:, 0] - V[:, -1]
    for shift, ref in ((symmetrize_density, _ref_symmetrize_density),
                       (unsymmetrize_density, _ref_unsymmetrize_density)):
        got = shift(delta, c_fn)(U)
        assert np.count_nonzero(got) > 20
        _same_bits(got, shift(delta, c_fn)(UF))
        _same_bits(got, ref(delta, c_fn)(UF))


def test_blocks_reach_both_paths():
    # every-row-live blocks and mixed blocks both occur: the pool rows are
    # all on the support, and the specials take rows off it
    model, pool, specials, hi = _joint_case("knot_touch", False)
    assert len(pool) > 100
    assert np.all(_ref_in_support_LF(model.margins, pool))
    assert len(model.psis[2]) == 2
    assert isinstance(model.hazards[2], TableHazard)
    kernel, kpool, _ = _kernel_case("knot_touch")
    assert len(kernel.psis[2]) == 2 and len(kpool) > 100
