import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxentos import (CopulaKernel, MarginalVector, Multidiagonal, average_cdf,
                      build_model, c_F_density, c_delta_density,
                      copula_entropy_closed, f_F_density,
                      j_functional_delta, ks_distance,
                      multidiagonal_from_marginals,
                      multidiagonal_of_iid_uniform, order_stat_copula_entropy,
                      sample, sample_copula, symmetrize_density,
                      unsymmetrize_density)
from maxentos.cdfs import (AverageCdf, BetaOneKCdf, ExponentialCdf,
                           OrderStatUniformCdf, PiecewiseLinearCdf, UniformCdf,
                           _level_block)
from maxentos.copula import GAP_TOL, _anchored_theta, _sort_rows
from maxentos.errors import InvalidMarginal, NotAbsolutelyContinuous, OutOfPsi
from maxentos.hazards import TableHazard, _cdf_gap, pair_hazard
from maxentos.verify import quad_entropy, simplex_integral


@pytest.fixture(scope="module")
def beta2_kernel(beta2_delta):
    return CopulaKernel(beta2_delta)


def test_first_kernel_is_log_survival(beta2_kernel, beta2_delta):
    t = np.linspace(0.05, 0.95, 41)
    top = beta2_delta.components[0]
    expect = -np.log(np.asarray(top.sf(t), dtype=float))
    assert np.allclose(beta2_kernel.K(1, t), expect, rtol=1e-12)
    with pytest.raises(OutOfPsi):
        # the last kernel set excludes the region below the support of
        # the bottom component's positive-gap zone at 0
        beta2_kernel.K(2, np.array([-0.5]))


def test_factors_match_kernel_derivatives(beta2_kernel):
    # a_i = K_i' exp(K_{i+1} - K_i), checked against central differences
    t = np.linspace(0.1, 0.9, 25)
    h = 1e-6
    for i in (1, 2):
        kp = (np.asarray(beta2_kernel.K(i, t + h))
              - np.asarray(beta2_kernel.K(i, t - h))) / (2 * h)
        knext = (np.zeros_like(t) if i + 1 == beta2_kernel.d + 1
                 else np.asarray(beta2_kernel.K(i + 1, t)))
        expect = kp * np.exp(knext - np.asarray(beta2_kernel.K(i, t)))
        assert np.allclose(beta2_kernel.a(i, t), expect, rtol=1e-6)


def test_density_normalizes(beta2_kernel):
    # exchangeable density, so integrate the smooth ordered region and scale
    val = math.factorial(2) * simplex_integral(
        lambda U: c_delta_density(beta2_kernel, U), 2, 0.0, 1.0)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_density_exchangeable(beta2_kernel):
    rng = np.random.default_rng(2)
    U = rng.random((300, 2))
    a = c_delta_density(beta2_kernel, U)
    b = c_delta_density(beta2_kernel, U[:, ::-1])
    assert np.allclose(a, b, rtol=1e-12)


def test_density_zero_outside_box(beta2_kernel):
    U = np.array([[-0.1, 0.5], [0.5, 1.2], [2.0, 2.0]])
    assert np.all(c_delta_density(beta2_kernel, U) == 0.0)


def test_dual_kernel_routes_agree(beta2_delta):
    auto = CopulaKernel(beta2_delta)
    quad = CopulaKernel(beta2_delta, mode="quadrature")
    rng = np.random.default_rng(3)
    U = rng.random((400, 2))
    a = c_delta_density(auto, U)
    b = c_delta_density(quad, U)
    assert np.array_equal(a > 0, b > 0)
    m = a > 0
    assert np.max(np.abs(a[m] - b[m]) / a[m]) <= 1e-9


def test_independence_fixture_is_flat():
    kernel = CopulaKernel(multidiagonal_of_iid_uniform(2))
    rng = np.random.default_rng(5)
    U = rng.random((500, 2))
    assert np.allclose(c_delta_density(kernel, U), 1.0, atol=1e-10)
    assert copula_entropy_closed(multidiagonal_of_iid_uniform(2)) == \
        pytest.approx(0.0, abs=1e-12)


def test_copula_entropy_closed_vs_quadrature(beta2_delta, beta2_kernel):
    closed = copula_entropy_closed(beta2_delta)
    parts = (-j_functional_delta(beta2_delta) + math.log(2.0) + 1.0
             + sum(c.entropy() for c in beta2_delta.components))
    assert closed == pytest.approx(parts, abs=1e-12)
    hq = 2.0 * quad_entropy(lambda U: c_delta_density(beta2_kernel, U),
                            2, 0.0, 1.0)
    assert hq == pytest.approx(closed, abs=1e-6)
    # the order-statistics copula itself has entropy d - 1 - J
    assert order_stat_copula_entropy(beta2_delta) == pytest.approx(-1.0, abs=1e-12)


def test_shift_of_order_stat_copula_is_exchangeable_copula(beta2, beta2_delta,
                                                           beta2_kernel):
    # symmetrizing the order-statistics copula density lands exactly on
    # the exchangeable maximum-entropy copula of the multidiagonal
    sfun = symmetrize_density(beta2_delta, lambda U: c_F_density(beta2, U))
    rng = np.random.default_rng(11)
    U = rng.random((400, 2))
    a = sfun(U)
    b = c_delta_density(beta2_kernel, U)
    assert np.array_equal(a > 0, b > 0)
    m = b > 0
    assert np.max(np.abs(a[m] - b[m]) / b[m]) <= 1e-9


def test_unsymmetrize_inverts_on_ordered_image(beta2, beta2_delta):
    cfun = lambda U: c_F_density(beta2, U)
    back = unsymmetrize_density(beta2_delta, symmetrize_density(beta2_delta, cfun))
    rng = np.random.default_rng(13)
    U = rng.random((500, 2))
    a, b = cfun(U), back(U)
    assert np.array_equal(a > 0, b > 0)
    m = a > 0
    assert np.max(np.abs(a[m] - b[m]) / a[m]) <= 1e-9


def test_sampler_recovers_components(beta2_delta):
    kernel = CopulaKernel(beta2_delta)
    n = 4000
    S = sample_copula(kernel, n, seed=0)
    assert S.shape == (n, 2)
    assert np.all((S > 0.0) & (S < 1.0))
    bound = 1.63 / math.sqrt(n)
    # coordinates are uniform, sorted coordinates follow the components
    for j in range(2):
        assert ks_distance(S[:, j], lambda s: s) < bound * 1.5
    V = np.sort(S, axis=1)
    for i in range(2):
        assert ks_distance(V[:, i], beta2_delta.components[i].cdf) < bound * 1.5
    assert np.array_equal(S, sample_copula(kernel, n, seed=0))
    assert not np.array_equal(S, sample_copula(kernel, n, seed=1))


@pytest.mark.parametrize("name", ["beta2_delta", "exp3_delta"])
def test_quadrature_mode_sampler_matches_auto(name, request):
    # the tabulated hazards of the components against the source's own
    delta = request.getfixturevalue(name)
    quad = sample_copula(CopulaKernel(delta, mode="quadrature"), 200, seed=3)
    auto = sample_copula(CopulaKernel(delta), 200, seed=3)
    assert np.max(np.abs(np.sort(quad, axis=1) - np.sort(auto, axis=1))) <= 1e-12


def test_quadrature_mode_sampler_reads_no_hazard_after_build(exp3_delta, monkeypatch):
    # the tables invert their stored series: once the kernel is built, its
    # rows read no hazard value, each of which would solve G^{-1} again
    seen = []
    ell = TableHazard.ell
    monkeypatch.setattr(TableHazard, "ell",
                        lambda self, t: (seen.append(np.size(t)), ell(self, t))[1])
    kernel = CopulaKernel(exp3_delta, mode="quadrature")
    assert seen
    seen.clear()
    S = sample_copula(kernel, 2000)
    assert S.shape == (2000, 3) and np.all(np.isfinite(S))
    assert seen == []


def test_transported_table_hazard_solves_g_inverse_once_per_call(beta2_delta, monkeypatch):
    # the table hazard of a quadrature-mode kernel reads f_cur and the gap
    # at one G^{-1}(t); the ratio is the one the components' pdf, cdf and
    # sf give, to the last bit
    hz = CopulaKernel(beta2_delta, mode="quadrature")._hazards[2]
    fp, fc = beta2_delta.components
    t = np.concatenate([np.linspace(0.0, 1.0, 20001), [np.nan, 1e-300, -0.5, 1.5]])
    f = fc.pdf(t)
    gap = _cdf_gap(fp, fc, t)
    expect = np.zeros(len(t))
    good = (f > 0.0) & (gap > 0.0)
    expect[good] = f[good] / gap[good]
    expect[(f > 0.0) & ~good] = math.inf
    calls = []
    ppf = AverageCdf.ppf
    monkeypatch.setattr(AverageCdf, "ppf", lambda self, u: (calls.append(1), ppf(self, u))[1])
    got = hz.ell(t)
    assert len(calls) == 1
    assert got.tobytes() == expect.tobytes()
    assert np.count_nonzero(got) > 19000


@pytest.mark.parametrize("margins, anchors", [
    ([ExponentialCdf(r) for r in (3.0, 2.0, 1.0)],
     {2: ["-0x1.9d0cc7016bd73p+0"], 3: ["-0x1.9d0cc7016bd73p-1"]}),
    ([BetaOneKCdf(k) for k in (5, 4, 3, 2, 1)],
     {2: ["-0x1.4002b88701746p+2"], 3: ["-0x1.e00414ca822e8p+1"],
      4: ["-0x1.4002b88701746p+1"], 5: ["-0x1.4002b88701746p+0"]}),
])
def test_kernel_anchors_solve_g_inverse_once(margins, anchors, monkeypatch):
    # one G^{-1} call solves the midpoints of every hazard's Psi intervals
    # (the other is validate_multidiagonal's grid); the anchors keep the
    # bits of one call per hazard
    delta = multidiagonal_from_marginals(MarginalVector(tuple(margins)))
    calls = []
    quantile = AverageCdf._quantile
    monkeypatch.setattr(AverageCdf, "_quantile",
                        lambda self, u: (calls.append(1), quantile(self, u))[1])
    kernel = CopulaKernel(delta)
    assert len(calls) <= 2
    assert {i: [float(v).hex() for v in a] for i, a in kernel._anchors.items()} == anchors


def test_comonotone_multidiagonal_has_no_density():
    comonotone = Multidiagonal((UniformCdf(0.0, 1.0), UniformCdf(0.0, 1.0)))
    kernel = CopulaKernel(comonotone)
    with pytest.raises(NotAbsolutelyContinuous):
        c_delta_density(kernel, np.array([[0.3, 0.6]]))
    with pytest.raises(NotAbsolutelyContinuous):
        sample_copula(kernel, 10)


def test_kernel_rejects_non_multidiagonal():
    with pytest.raises(InvalidMarginal):
        CopulaKernel(Multidiagonal((UniformCdf(0.0, 1.0),
                                    OrderStatUniformCdf(2, 2))))


@pytest.mark.parametrize("name", ["exp3_delta", "beta2_delta"])
def test_density_solves_g_inverse_once_per_column(name, request, monkeypatch):
    # every factor a_i, a_1 included, reads the one quantile G^{-1}(u_(i)),
    # and all d columns go to G^{-1} in one call
    delta = request.getfixturevalue(name)
    kernel = CopulaKernel(delta)
    calls = []
    ppf = AverageCdf.ppf
    monkeypatch.setattr(AverageCdf, "ppf", lambda self, u: (calls.append(1), ppf(self, u))[1])
    u = np.random.default_rng(5).random((500, delta.d))
    c = c_delta_density(kernel, u)
    assert np.count_nonzero(c) > 0
    assert len(calls) == 1


def _tent_components():
    return (PiecewiseLinearCdf(((0, 0), (0.5, 0.75), (1, 1))),
            PiecewiseLinearCdf(((0, 0), (0.5, 0.25), (1, 1))))


def _tent_delta():
    return Multidiagonal(_tent_components())


@pytest.mark.parametrize("name", ["beta2_delta", "exp3_delta", "tent_from_margins", "iid3"])
def test_density_matches_factor_product(name, request):
    # the density reads the joint law at x = G^{-1}(u_(i)); the factors
    # a_i read the kernels one coordinate at a time
    if name == "iid3":
        delta = multidiagonal_of_iid_uniform(3)
    elif name == "tent_from_margins":
        delta = multidiagonal_from_marginals(MarginalVector(_tent_components()))
    else:
        delta = request.getfixturevalue(name)
    kernel = CopulaKernel(delta)
    d = delta.d
    rng = np.random.default_rng(17)
    U = rng.random((2000, d))
    U[:50] = U[:50, :1]                             # all coordinates tied
    U[50:100, 0] = 0.0
    U[100:150, -1] = 1.0
    c = c_delta_density(kernel, U)
    V = np.sort(U, axis=1)
    prod = np.prod([kernel.a(i, V[:, i - 1]) for i in range(1, d + 1)],
                   axis=0) / math.factorial(d)
    assert np.array_equal(c > 0, prod > 0)
    m = c > 0
    assert np.count_nonzero(m) > 1500
    assert np.max(np.abs(c[m] - prod[m]) / c[m]) <= 1e-13


def test_sampler_is_joint_sampler_through_g(exp3, exp3_delta, exp3_model, monkeypatch):
    # the sorted rows are the joint model's draws mapped by G, permuted
    # after them from the same generator; nothing inverts G
    kernel = CopulaKernel(exp3_delta)
    calls = []
    ppf = AverageCdf.ppf
    monkeypatch.setattr(AverageCdf, "ppf", lambda self, u: (calls.append(1), ppf(self, u))[1])
    n, seed = 5000, 3
    S = sample_copula(kernel, n, seed=seed)
    assert len(calls) == 0
    X = sample(exp3_model, n, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(exp3.d):
        rng.random(n)                               # one uniform per coordinate
    expect = rng.permuted(average_cdf(exp3).cdf(X), axis=1)
    assert np.max(np.abs(S - expect)) <= 4e-15


@pytest.mark.parametrize("name", ["iid3", "exp3_delta", "tent"])
def test_density_matches_row_by_row_support(name, request):
    # the support decided one row at a time from the interval sets, and
    # the kernel's log-density read on the rows kept; equal to the last bit
    if name == "iid3":
        delta = multidiagonal_of_iid_uniform(3)
    elif name == "tent":
        delta = _tent_delta()
    else:
        delta = request.getfixturevalue(name)
    kernel = CopulaKernel(delta)
    d = delta.d
    rng = np.random.default_rng(11)
    U = rng.random((3000, d))
    U[:100, 0] = np.nan
    U[100:200, -1] = 1.0 + rng.random(100) * 1e-3
    U[200:300, 0] = -rng.random(100) * 1e-3
    U[300:400, 0] = 0.0
    U[400:500, -1] = 1.0
    U[500:600] = U[500:600, :1]                     # all coordinates tied
    U[600:650, 0] = np.inf
    U[650:700, -1] = -np.inf
    U[700:750, 0] = U[700:750, 1] + 1e-13           # gap inside the slack

    def on_support(row):
        if not all(0.0 <= x <= 1.0 for x in row):
            return False
        v = sorted(row)
        gaps = all(kernel.psis[i].contains_gap(v[i - 2], v[i - 1], GAP_TOL)
                   for i in range(2, d + 1))
        return gaps and all(kernel.psis[i].locate(v[i - 1]) >= 0
                            and kernel.psis[i + 1].locate(v[i - 1]) >= 0
                            for i in range(1, d + 1))

    valid = np.array([on_support(row) for row in U])
    assert 0 < valid.sum() < len(U)
    expect = np.zeros(len(U))
    expect[valid] = np.exp(kernel._log_density(np.sort(U[valid], axis=1)))
    np.testing.assert_array_equal(c_delta_density(kernel, U), expect)
    # rows that are all on the support take the path without a gather
    np.testing.assert_array_equal(c_delta_density(kernel, U[valid]), expect[valid])


def test_density_is_zero_across_separation_intervals():
    # gaps that straddle the end e of psi_2's first interval by under
    # GAP_TOL pass the support mask, but their ends lie in two intervals
    # whose thetas carry unrelated constants; the joint density reads 0
    # at the matching point x = 0.5 -+ 1e-13, and so must the copula
    # (it read 1.99e60 and 9.38e59 from the difference of those thetas)
    margins = MarginalVector((BetaOneKCdf(2),
                              PiecewiseLinearCdf([(0, 0), (0.5, 0.75), (1, 1)])))
    kernel = CopulaKernel(multidiagonal_from_marginals(margins))
    e = kernel.psis[2].intervals[0][1]
    assert e == 0.7499999999999978
    rows = np.array([[e - 2e-13, e + 2e-13], [e - 4e-13, e + 4e-13]])
    assert c_delta_density(kernel, rows).tolist() == [0.0, 0.0]
    block = _level_block([(rows[:, 0], np.arange(2)), (rows[:, 1], np.arange(2))])
    assert c_delta_density(kernel, block).tolist() == [0.0, 0.0]
    model = build_model(margins)
    assert f_F_density(model, np.array([[0.5 - 1e-13, 0.5 + 1e-13]])).tolist() == [0.0]


def _exp_pair_c_F(u1, u2, rate_prev, rate_cur):
    """c_F(u1, u2) of two exponential margins at 50 digits:
    exp(theta(x1) - theta(x2)) / (F_1(x2) - u2) with x_j = F_j^{-1}(u_j) and
    theta(t) = rate_cur (t + log(1 - e^{-drop t}) / drop), drop their
    difference."""
    with mp.workdps(50):
        u1, u2 = mp.mpf(u1), mp.mpf(u2)
        rp, rc = mp.mpf(rate_prev), mp.mpf(rate_cur)
        drop = rp - rc
        theta = lambda t: rc * (t + mp.log(-mp.expm1(-drop * t)) / drop)
        x1, x2 = -mp.log1p(-u1) / rp, -mp.log1p(-u2) / rc
        return mp.exp(theta(x1) - theta(x2)) / (-mp.expm1(-rp * x2) - u2)


@pytest.mark.parametrize("u1", [1e-301, 1e-310])
def test_c_F_density_reads_levels_below_1e_300(u1):
    # near u1 = 0 the density falls like x1^(rate_cur / drop), here x1^(1/29);
    # levels clipped at 1e-300 all read 4.515e-11, its value there
    margins = MarginalVector((ExponentialCdf(3.0), ExponentialCdf(0.1)))
    got = c_F_density(margins, np.array([[u1, 0.5]]))[0]
    expect = _exp_pair_c_F(u1, 0.5, 3.0, 0.1)
    assert abs(got - expect) <= 1e-14 * expect, (got, float(expect))


@pytest.mark.parametrize("psi_count", [1, 2])
def test_anchored_theta_matches_interval_search(psi_count):
    # each point takes the anchor of the last interval starting at or
    # below it (the first interval below every start); equal to the last bit
    fp = (PiecewiseLinearCdf(((0, 0), (0.5, 0.75), (1, 1))) if psi_count == 1 else
          PiecewiseLinearCdf(((0, 0), (0.25, 0.5), (0.5, 0.5), (0.75, 0.9), (1, 1))))
    fc = PiecewiseLinearCdf(((0, 0), (0.5, 0.25 if psi_count == 1 else 0.5), (1, 1)))
    hz = pair_hazard(fp, fc)
    assert len(hz.psi) == psi_count
    anchors = np.array([1.5, -2.25, 0.125][:psi_count])
    starts = np.array([g for g, _ in hz.psi])
    x = np.concatenate([np.linspace(-0.1, 1.1, 241), starts,
                        np.nextafter(starts, -np.inf), [np.nan]])
    idx = np.clip(np.searchsorted(starts, x, side="right") - 1, 0, psi_count - 1)
    expect = np.asarray(hz.theta(x), dtype=float) - anchors[idx]
    np.testing.assert_array_equal(_anchored_theta(hz, anchors, x), expect)


@functools.cache
def _iid_kernel(d):
    return CopulaKernel(multidiagonal_of_iid_uniform(d))


# ties, signed zeros, the ends of [0, 1], values beyond them and infinities
_entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5, -1.0, 2.0,
                                      math.inf, -math.inf, math.nan]),
                     st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def _row_blocks(draw):
    d = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_entries, min_size=d, max_size=d),
                         min_size=1, max_size=12))
    return np.array(rows, dtype=float).reshape(-1, d)


@settings(max_examples=300, deadline=None)
@given(_row_blocks())
def test_sort_rows_matches_np_sort(U):
    v = _sort_rows(U)
    nan_rows = np.isnan(U).any(axis=1)
    clean = U[~nan_rows]
    got = np.ascontiguousarray(v[~nan_rows])
    # np.sort's values, each row keeping its own bit patterns
    np.testing.assert_array_equal(got, np.sort(clean, axis=1))
    np.testing.assert_array_equal(np.sort(got.view(np.int64), axis=1),
                                  np.sort(clean.view(np.int64), axis=1))
    # equal values keep their order: np.sort's own order of 0.0 and -0.0
    # between themselves is unspecified, so rows holding both may differ
    # from it in that order alone
    for row, out in zip(clean, got):
        assert np.array_equal(np.signbit(out[out == 0.0]), np.signbit(row[row == 0.0]))
    zeros = clean == 0.0
    one_sign = ~(np.any(zeros & np.signbit(clean), axis=1)
                 & np.any(zeros & ~np.signbit(clean), axis=1))
    np.testing.assert_array_equal(got[one_sign].view(np.int64),
                                  np.sort(clean[one_sign], axis=1).view(np.int64))
    # a NaN fills its row, so the row is off the support
    assert np.isnan(v[nan_rows]).all()
    c = c_delta_density(_iid_kernel(U.shape[1]), U)
    assert np.all(c[nan_rows] == 0.0)


@pytest.mark.parametrize("name", ["tent", "beta3_exp1"])
def test_shift_density_is_zero_on_nan_rows(name):
    # G^{-1} reads a NaN as a number, so the shift must drop NaN rows itself
    comps = (_tent_components() if name == "tent"
             else (BetaOneKCdf(3), ExponentialCdf(1.0)))
    margins = MarginalVector(comps)
    delta = multidiagonal_from_marginals(margins)
    model = build_model(margins)
    s = symmetrize_density(delta, lambda V: c_F_density(margins, V,
                                                        hazards=model.hazards))
    U = np.random.default_rng(5).random((400, 2))
    U[:100, 0] = np.nan
    U[100:200, 1] = np.nan
    U[200:300] = np.nan
    vals = s(U)
    assert np.all(vals[:300] == 0.0)
    assert np.count_nonzero(vals[300:]) > 50
