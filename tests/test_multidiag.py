import math
import pickle

import numpy as np
import pytest
from scipy import special

from maxentos import (CopulaKernel, MarginalVector, Multidiagonal,
                      average_cdf, copula_entropy_closed,
                      delta_inverse, delta_psi, j_functional, j_functional_delta,
                      multidiagonal_from_marginals, multidiagonal_of_iid_uniform,
                      sigma_measure, validate_multidiagonal)
from maxentos.cdfs import (BetaOneKCdf, ExponentialCdf, OrderStatUniformCdf,
                           PiecewiseLinearCdf, UniformCdf)


def test_sum_identity(exp3_delta, beta2_delta):
    s = np.linspace(0.0, 1.0, 1024)
    for delta in (exp3_delta, beta2_delta,
                  *(multidiagonal_of_iid_uniform(d) for d in range(1, 9))):
        total = sum(np.asarray(c.cdf(s), dtype=float) for c in delta.components)
        assert np.abs(total - delta.d * s).max() <= 1e-9


def test_validate_classes():
    rep = validate_multidiagonal(multidiagonal_of_iid_uniform(3))
    assert rep.is_D and rep.is_D0 and rep.sigma == pytest.approx(0.0, abs=1e-12)

    comonotone = Multidiagonal((UniformCdf(0.0, 1.0), UniformCdf(0.0, 1.0)))
    rep = validate_multidiagonal(comonotone)
    assert rep.is_D and not rep.is_D0
    assert rep.sigma == pytest.approx(1.0, abs=1e-12)

    # unordered components
    rep = validate_multidiagonal(Multidiagonal(
        (OrderStatUniformCdf(2, 2), OrderStatUniformCdf(2, 1))))
    assert not rep.is_D and not rep.ordering_ok

    # components that do not sum to d*s
    rep = validate_multidiagonal(Multidiagonal(
        (UniformCdf(0.0, 1.0), OrderStatUniformCdf(2, 2))))
    assert not rep.is_D and rep.sum_residual > 1e-3


def test_lipschitz_violation_detected():
    # slope 3 on the first piece exceeds the d = 2 bound
    steep = PiecewiseLinearCdf(((0.0, 0.0), (0.25, 0.75), (1.0, 1.0)))
    flat = PiecewiseLinearCdf(((0.0, 0.0), (0.25, 0.25 / 3), (1.0, 1.0)))
    rep = validate_multidiagonal(Multidiagonal((steep, flat)))
    assert not rep.lipschitz_ok and not rep.is_D


def test_delta_inverse_routes_agree(exp3_delta):
    raw = Multidiagonal(exp3_delta.components)
    u = np.linspace(0.01, 0.99, 37)
    for i in (1, 2, 3):
        a = np.asarray(delta_inverse(exp3_delta, i, u), dtype=float)
        b = np.asarray(delta_inverse(raw, i, u), dtype=float)
        assert np.abs(a - b).max() <= 1e-9
        comp = exp3_delta.components[i - 1]
        assert np.allclose(comp.cdf(a), u, atol=1e-10)
    # the ends: G o F_i^{-1} reads [0, 1] through G; the component's own
    # inverse keeps -inf/+inf, and at u = 1 gives where its cdf, rounded,
    # first reaches 1 (exactly 1 for the last component)
    ends = np.array([-0.5, 0.0, 1.0, 1.5])
    for i in (1, 2, 3):
        a = delta_inverse(exp3_delta, i, ends)
        b = delta_inverse(raw, i, ends)
        np.testing.assert_array_equal(a, [0.0, 0.0, 1.0, 1.0])
        assert b[0] == b[1] == -math.inf and b[3] == math.inf
        assert 1.0 - 1e-5 < b[2] <= 1.0 and raw.components[i - 1].cdf(b[2]) == 1.0
    assert b[2] == 1.0


def test_cdf_matrix_routes_agree_at_the_ends(exp3_delta):
    # F_i(G^{-1}(s)) reads 0 below [0, 1], 1 from s = 1 on, and NaN at NaN,
    # through the source as through the components
    raw = Multidiagonal(exp3_delta.components)
    s = np.array([-0.5, -0.0, 0.0, 1.0, 1.5, math.nan])
    expect = np.tile([0.0, 0.0, 0.0, 1.0, 1.0, math.nan], (3, 1))
    np.testing.assert_array_equal(exp3_delta.cdf_matrix(s), expect)
    np.testing.assert_array_equal(raw.cdf_matrix(s), expect)


@pytest.mark.parametrize("margins", [
    MarginalVector((BetaOneKCdf(3), ExponentialCdf(1.0))),
    MarginalVector((ExponentialCdf(3.0), ExponentialCdf(2.0), ExponentialCdf(1.0))),
], ids=["beta3_exp1", "exp3"])
def test_nan_maps_to_nan(margins):
    # G^{-1}, the components' cdf, sf and ppf, and delta^{-1} give NaN at
    # NaN, as the family ppfs do; pdf gives 0 there, as the family pdfs do
    delta = multidiagonal_from_marginals(margins)
    u = np.array([np.nan, 0.3, np.nan])
    nan_at_ends = [True, False, True]
    funcs = [average_cdf(margins).ppf]
    for i, comp in enumerate(delta.components, start=1):
        funcs += [comp.cdf, comp.sf, comp.ppf,
                  lambda v, i=i: delta_inverse(delta, i, v)]
        assert comp.pdf(math.nan) == 0.0
        assert comp.pdf(u)[0] == 0.0 and comp.pdf(u)[2] == 0.0
    for fn in funcs:
        assert math.isnan(fn(math.nan))
        assert np.isnan(fn(u)).tolist() == nan_at_ends


def test_delta_psi_full_interval():
    iid3 = multidiagonal_of_iid_uniform(3)
    for i in (2, 3):
        ps = delta_psi(iid3, i)
        assert [(a, b) for a, b in ps] == [(0.0, 1.0)]
    comonotone = Multidiagonal((UniformCdf(0.0, 1.0), UniformCdf(0.0, 1.0)))
    assert len(delta_psi(comonotone, 2)) == 0


def test_j_delta_closed_matches_quadrature():
    iid3 = multidiagonal_of_iid_uniform(3)
    ja = j_functional_delta(iid3)
    jq = j_functional_delta(iid3, method="quadrature")
    assert jq == pytest.approx(ja, abs=1e-9)
    # d = 2 closed value: 2 - log 2
    assert j_functional_delta(multidiagonal_of_iid_uniform(2)) == pytest.approx(
        2.0 - math.log(2.0), abs=1e-10)


def test_j_transport_to_delta_scale(exp3, exp3_delta, beta2, beta2_delta):
    assert j_functional_delta(exp3_delta) == pytest.approx(
        j_functional(exp3), abs=1e-9)
    assert j_functional_delta(beta2_delta) == pytest.approx(
        j_functional(beta2), abs=1e-9)


def test_same_multidiagonal_across_families(beta3, exp3):
    # the components only see the margins through ranks, and the two
    # examples are increasing transforms of each other
    da = multidiagonal_from_marginals(beta3)
    db = multidiagonal_from_marginals(exp3)
    s = np.linspace(1e-6, 1.0 - 1e-6, 1001)
    for i in range(3):
        assert np.abs(np.asarray(da.components[i].cdf(s))
                      - np.asarray(db.components[i].cdf(s))).max() <= 1e-12
    assert j_functional_delta(da) == pytest.approx(j_functional_delta(db), abs=1e-10)
    assert copula_entropy_closed(da) == pytest.approx(
        copula_entropy_closed(db), abs=1e-10)


def test_comonotone_entropy_is_minus_inf():
    comonotone = Multidiagonal((UniformCdf(0.0, 1.0), UniformCdf(0.0, 1.0)))
    assert j_functional_delta(comonotone) == math.inf
    assert copula_entropy_closed(comonotone) == -math.inf


def test_validate_sigma_matches_marginal_sigma(exp3):
    # sigma read from the kernel's separation sets on [0, 1] equals sigma
    # on the marginal scale; the second vector has the 0.3 defect
    F2 = PiecewiseLinearCdf(((0.0, 0.0), (0.3, 0.3), (0.9, 0.5), (1.0, 1.0)))
    for mv in (exp3, MarginalVector((UniformCdf(0.0, 1.0), F2))):
        rep = validate_multidiagonal(multidiagonal_from_marginals(mv))
        assert rep.sigma == pytest.approx(sigma_measure(mv), abs=1e-12)


@pytest.mark.parametrize("margins", [
    (BetaOneKCdf(2), BetaOneKCdf(1)),
    (PiecewiseLinearCdf(((0.0, 0.0), (0.5, 0.75), (1.0, 1.0))),
     PiecewiseLinearCdf(((0.0, 0.0), (0.5, 0.25), (1.0, 1.0)))),
], ids=["beta2", "tent"])
def test_transported_j_matches_general_route(margins):
    # the general route over the plain components (probed sets, three
    # G^{-1} solves per node) is the reference for the transported records
    delta = multidiagonal_from_marginals(MarginalVector(margins))
    ref = j_functional(list(delta.components), method="quadrature")
    assert j_functional_delta(delta, method="quadrature") == pytest.approx(ref, rel=1e-14)


def _exp_route_j(rate_prev, rate_cur):
    return 1.0 + np.euler_gamma + float(special.digamma(rate_cur / (rate_prev - rate_cur) + 1.0))


_TENT = (PiecewiseLinearCdf(((0.0, 0.0), (0.5, 0.75), (1.0, 1.0))),
         PiecewiseLinearCdf(((0.0, 0.0), (0.5, 0.25), (1.0, 1.0))))


@pytest.mark.parametrize("margins, expect", [
    ((UniformCdf(0.0, 1.0), UniformCdf(0.0, 2.0)), 1.0 + math.log(2.0)),
    (_TENT, 1.0 + math.log(2.0)),
    ((UniformCdf(0.0, 1.0), UniformCdf(0.5, 1.5)), 0.5 + math.log(2.0)),
    ((ExponentialCdf(2.0), ExponentialCdf(1.0)), _exp_route_j(2.0, 1.0)),
    ((ExponentialCdf(5.0), ExponentialCdf(4.9)), _exp_route_j(5.0, 4.9)),
    ((BetaOneKCdf(3), BetaOneKCdf(2)), _exp_route_j(3.0, 2.0)),
    # mpmath at 40 digits
    ((BetaOneKCdf(3), ExponentialCdf(1.0)), 1.4948250647889279),
], ids=["uniform_0_2", "tent", "uniform_shift", "exp_2_1", "exp_5_4.9", "beta_3_2",
        "beta3_exp1"])
def test_j_quadrature_matches_closed_value_on_both_scales(margins, expect):
    F = MarginalVector(margins)
    assert j_functional(F, method="quadrature") == pytest.approx(expect, rel=1e-13)
    assert j_functional_delta(multidiagonal_from_marginals(F), method="quadrature") == \
        pytest.approx(expect, rel=1e-13)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_j_quadrature_matches_order_stat_closed_terms(d):
    iid = multidiagonal_of_iid_uniform(d)
    closed = j_functional_delta(iid)
    assert j_functional_delta(iid, method="quadrature") == pytest.approx(closed, rel=1e-13)
    # the same vector as marginals: G is the identity, solved by Newton
    transported = multidiagonal_from_marginals(MarginalVector(iid.components))
    assert j_functional_delta(transported, method="quadrature") == \
        pytest.approx(closed, rel=1e-13)


def test_pickle_drops_pair_records(exp3):
    for delta in (multidiagonal_from_marginals(exp3), multidiagonal_of_iid_uniform(3)):
        CopulaKernel(delta)          # fills the records' sets and hazards
        j_functional_delta(delta, method="quadrature")
        back = pickle.loads(pickle.dumps(delta))
        assert "pairs" not in back.__dict__
        assert back.kind == delta.kind and back.d == delta.d
        assert (back.source is None) == (delta.source is None)
        assert [delta_psi(back, i) for i in range(1, back.d + 2)] == \
            [delta_psi(delta, i) for i in range(1, delta.d + 2)]
        assert j_functional_delta(back) == j_functional_delta(delta)


def test_cdf_matrix_solves_g_inverse_once(monkeypatch, exp3):
    from maxentos.cdfs import AverageCdf
    delta = multidiagonal_from_marginals(exp3)
    s = np.concatenate([[-0.5, 0.0], np.linspace(0.0, 1.0, 1025), [1.0, 1.5]])
    # per-component evaluation, each component inverting G on its own
    ref = np.vstack([c.cdf(s) for c in delta.components])
    calls = [0]
    orig = AverageCdf.ppf

    def counted(self, u):
        calls[0] += 1
        return orig(self, u)

    monkeypatch.setattr(AverageCdf, "ppf", counted)
    M = delta.cdf_matrix(s)
    assert calls[0] == 1
    assert np.array_equal(M, ref)
