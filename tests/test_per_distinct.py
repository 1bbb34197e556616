"""One solve per distinct level: G^{-1}, and the table hazard's series.

AverageCdf.ppf evaluates each distinct level once and gathers, and the
table hazard evaluates its stored series at every point.  Both are
elementwise, so the values must be bit for bit those of one call per
value; on a tensor grid G^{-1}'s work must follow the number of levels,
not the number of points, and the table reads no hazard value at all once
it is built.
"""

import math

import mpmath
import numpy as np
import pytest

from maxentos import (CopulaKernel, MarginalVector, average_cdf,
                      build_model, c_delta_density, f_F_density,
                      in_support_LF, multidiagonal_from_marginals)
from maxentos import cdfs
from maxentos.cdfs import (AverageCdf, BetaOneKCdf, ExponentialCdf,
                           PiecewiseLinearCdf)
from maxentos.hazards import TableHazard

VECTORS = {
    "exp3": (ExponentialCdf(3.0), ExponentialCdf(2.0), ExponentialCdf(1.0)),
    "beta2": (BetaOneKCdf(2), BetaOneKCdf(1)),
    "tent": (PiecewiseLinearCdf(((0, 0), (0.5, 0.75), (1, 1))),
             PiecewiseLinearCdf(((0, 0), (0.5, 0.25), (1, 1)))),
    "beta3_exp1": (BetaOneKCdf(3), ExponentialCdf(1.0)),
}


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def _one_by_one(fn, x):
    """fn called on each value of x alone, in x's shape."""
    x = np.asarray(x, dtype=float)
    return np.array([np.asarray(fn(v), dtype=float).ravel()[0]
                     for v in x.ravel()]).reshape(x.shape)


def midpoint_grid(g: int, d: int) -> np.ndarray:
    axis = (np.arange(g) + 0.5) / g
    return np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)


@pytest.mark.parametrize("name", sorted(VECTORS))
def test_average_ppf_matches_scalar_calls_bitwise(name):
    G = average_cdf(MarginalVector(VECTORS[name]))
    rng = np.random.default_rng(11)
    levels = np.concatenate([rng.random(40), [1e-300, 0.5, 1.0 - 1e-16]])
    special = [math.nan, -0.0, 0.0, 1.0, -0.25, 1.5]
    u = rng.choice(np.concatenate([levels, special]), size=600)
    u[:len(special)] = special
    got = G.ppf(u)
    assert got.shape == u.shape
    assert _bits(got) == _bits(_one_by_one(G.ppf, u))
    # a (d, n) array of columns is solved as their union
    cols = u[:400].reshape(4, 100)
    assert _bits(G.ppf(cols)) == _bits(got[:400].reshape(4, 100))
    for v in (0.3, math.nan, -0.0, 1.0, 2.0):
        scalar = G.ppf(v)
        assert isinstance(scalar, float)
        assert _bits(scalar) == _bits(G.ppf(np.array([v]))[0])
    assert np.isnan(G.ppf(math.nan)) and G.ppf(-0.0) == -math.inf
    assert G.ppf(1.5) == math.inf


def test_table_theta_matches_scalar_calls_bitwise():
    hz = build_model(MarginalVector(VECTORS["beta3_exp1"])).hazards[2]
    assert isinstance(hz, TableHazard)
    # the second column of a 70 x 70 grid over the CLI box: every abscissa
    # repeats 70 times; 0 lies outside the interval (theta NaN there)
    axis = np.linspace(0.0, float(ExponentialCdf(1.0).ppf(1.0 - 1e-3)), 70)
    col = np.tile(axis, 70)
    got = hz.theta(col)
    assert _bits(got) == _bits(np.tile(_one_by_one(hz.theta, axis), 70))
    assert np.isnan(got[0]) and np.all(np.isfinite(got[1:70]))
    # lambda_between gives the differences of those same values
    s = np.repeat(axis[1:], 69)
    t = np.tile(axis[1:], 69)
    lam = hz.lambda_between(s, t)
    up = t > s
    assert _bits(lam[up]) == _bits(got[1:70][np.tile(np.arange(69), 69)][up]
                                   - got[1:70][np.repeat(np.arange(69), 69)][up])


def test_copula_density_solves_each_level_once(monkeypatch):
    kernel = CopulaKernel(multidiagonal_from_marginals(MarginalVector(VECTORS["exp3"])))
    ppf_calls, targets = [], []
    ppf, newton = AverageCdf.ppf, cdfs._newton_level
    monkeypatch.setattr(AverageCdf, "ppf",
                        lambda self, u: (ppf_calls.append(np.size(u)), ppf(self, u))[1])

    def counted(read, level, lo, hi, *args, **kwargs):
        targets.append(np.size(level))
        return newton(read, level, lo, hi, *args, **kwargs)

    monkeypatch.setattr(cdfs, "_newton_level", counted)
    c = c_delta_density(kernel, midpoint_grid(24, 3))
    assert np.count_nonzero(c) > 0
    assert len(ppf_calls) == 1
    assert 0 < sum(targets) <= 24


def test_table_density_reads_ell_once_per_row(monkeypatch):
    # counted from the build on, so a table holding its ell is counted
    # too; new margins, so the build is not a pair record's cached one
    queries = []
    ell = TableHazard.ell
    monkeypatch.setattr(TableHazard, "ell",
                        lambda self, t: (queries.append(np.size(t)), ell(self, t))[1])
    model = build_model(MarginalVector((BetaOneKCdf(3), ExponentialCdf(1.0))))
    assert isinstance(model.hazards[2], TableHazard) and queries
    axes = [np.linspace(0.0, 1.0, 70), np.linspace(0.0, 6.9, 70)]
    P = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    queries.clear()
    f = f_F_density(model, P)
    assert np.count_nonzero(f) > 1000
    # the density's own factor ell(x_2), one read per row on the support;
    # the hazard integrals between the coordinates read none
    assert queries == [np.count_nonzero(in_support_LF(model.margins, P))]


# -- oracle audit of the table hazard ------------------------------------

def _beta3_exp1_ell(t):
    # f_cur / (F_prev - F_cur) = exp(-t) / (exp(-t) - (1 - t)^3) below 1
    e = mpmath.exp(-t)
    return e / (e - (1 - t) ** 3) if t < 1 else mpmath.mpf(1)


def test_table_theta_differences_match_mpmath():
    hz = build_model(MarginalVector(VECTORS["beta3_exp1"])).hazards[2]
    # and 0.1, 0.5 and 0.9 of the way across six segments, from the graded
    # left end to the tail: differences inside a segment read its series
    k = np.array([2, 20, 41, 56, 75, 100])
    inside = hz._x0[k, None] + np.array([0.1, 0.5, 0.9]) * (hz._x1 - hz._x0)[k, None]
    x = np.unique(np.concatenate([np.geomspace(1e-6, 25.0, 24),
                                  [0.5, 0.99, 1.0, 1.01, 1.5], inside.ravel()]))
    th = hz.theta(x)
    with mpmath.workdps(40):
        for a, b, ta, tb in zip(x[:-1], x[1:], th[:-1], th[1:]):
            lo, hi = mpmath.mpf(float(a)), mpmath.mpf(float(b))
            cuts = [lo, mpmath.mpf(1), hi] if lo < 1 < hi else [lo, hi]
            ref = float(mpmath.quad(_beta3_exp1_ell, cuts))
            assert abs((tb - ta) - ref) <= 1e-12 * abs(ref), (a, b)


def test_table_tail_roots_match_mpmath():
    # the six tail roots pinned in test_quantile.py
    hz = MarginalVector(VECTORS["beta3_exp1"]).pairs[0].hazard
    s = np.array([1e-9, 0.1, 0.5, 1.0, 2.0, 5.0])
    t = hz.solve_tail(s, 0.7)
    with mpmath.workdps(40):
        for a, b in zip(s, t):
            lo, hi = mpmath.mpf(float(a)), mpmath.mpf(float(b))
            cuts = [lo, mpmath.mpf(1), hi] if lo < 1 < hi else [lo, hi]
            assert abs(mpmath.quad(_beta3_exp1_ell, cuts) - mpmath.mpf(0.7)) <= 1e-13, a
