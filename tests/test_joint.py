import math

import numpy as np
import pytest

from maxentos import (CopulaKernel, MarginalVector, build_model,
                      detect_degenerate, f_F_density, hazard, j_functional,
                      j_functional_delta, joint_entropy_closed, ks_distance,
                      marginals, multidiag, multidiagonal_from_marginals,
                      multidiagonal_of_iid_uniform, sample, sigma_measure,
                      validate_multidiagonal)
from maxentos.cdfs import BetaOneKCdf, ExponentialCdf, PiecewiseLinearCdf
from maxentos.errors import Degenerate, InvalidMarginal


def closed_beta_entropy(d):
    return (-math.log(math.factorial(d)) + 2 * d
            - (d + 1) * sum(1.0 / i for i in range(1, d + 1)))


def test_build_model_requires_stochastic_order():
    with pytest.raises(InvalidMarginal):
        build_model(MarginalVector((ExponentialCdf(1.0), ExponentialCdf(3.0))))


def test_density_point_values(beta2_model):
    # margins 2t - t^2 and t give f = f_1(x_1) exp(theta(x_1) - theta(x_2))
    # / (x_2 - x_2^2) with theta = log(t / (1 - t)); hand evaluation at
    # (0.1, 0.2) gives 1.8 * 6.25 / 2.25 = 5 and at (0.5, 0.8) gives 1.5625
    pts = np.array([[0.5, 0.8], [0.8, 0.5], [0.1, 0.2]])
    f = f_F_density(beta2_model, pts)
    assert f[0] == pytest.approx(1.5625, rel=1e-12)
    assert f[1] == 0.0
    assert f[2] == pytest.approx(5.0, rel=1e-12)


def test_density_matches_closed_product(exp3_model):
    rng = np.random.default_rng(17)
    X = rng.exponential(size=(200, 3)).cumsum(axis=1)
    f = f_F_density(exp3_model, X)
    lam = (3.0, 2.0, 1.0)
    x1, x2, x3 = X[:, 0], X[:, 1], X[:, 2]
    # consecutive rate gaps are all 1 here
    g = (lam[0] * np.exp(-x1) * (1 - np.exp(-x1)) ** 2
         * lam[1] * np.exp(-x2) * (1 - np.exp(-x2)) / (1 - np.exp(-x2)) ** 3
         * lam[2] * np.exp(-x3) / (1 - np.exp(-x3)) ** 2)
    assert np.allclose(f, g, rtol=1e-11)


def test_entropy_closed_matches_harmonic_form():
    for d in (2, 3, 5):
        mv = MarginalVector(tuple(BetaOneKCdf(k) for k in range(d, 0, -1)))
        assert joint_entropy_closed(mv) == pytest.approx(
            closed_beta_entropy(d), abs=1e-12)


def test_degeneracy_classification(exp3, uu):
    rep = detect_degenerate(exp3)
    assert rep.verdict == "ok" and rep.in_f0 and rep.ok
    assert rep.entropy == pytest.approx(joint_entropy_closed(exp3), abs=1e-12)

    rep = detect_degenerate(uu)
    assert rep.verdict == "j_infinite"
    assert not rep.in_f0 and not rep.ok
    assert rep.entropy == -math.inf and rep.j_value == math.inf


def test_sample_rows_sorted_and_reproducible(exp3_model):
    X = sample(exp3_model, 500, seed=5)
    assert X.shape == (500, 3)
    assert np.all(X[:, 1:] >= X[:, :-1])
    assert np.all(X > 0)
    assert np.array_equal(X, sample(exp3_model, 500, seed=5))
    assert not np.array_equal(X, sample(exp3_model, 500, seed=6))


def test_sample_marginals(beta2_model, beta2):
    n = 4000
    X = sample(beta2_model, n, seed=1)
    bound = 1.63 / math.sqrt(n)
    for j in range(2):
        assert ks_distance(X[:, j], beta2.margins[j].cdf) < bound * 1.5


def test_sample_refuses_degenerate(uu):
    model = build_model(uu)
    with pytest.raises(Degenerate):
        sample(model, 10)
    # forcing is only honest when the vector is in the admissible class,
    # which a full residual separation set rules out
    with pytest.raises(Degenerate):
        sample(model, 10, allow_infinite_entropy=True)


def test_density_zero_off_support(exp3_model):
    pts = np.array([[1.0, 0.5, 2.0],
                    [-1.0, 0.5, 2.0],
                    [0.5, 0.4, 0.3]])
    assert np.all(f_F_density(exp3_model, pts) == 0.0)


def test_hazard_matches_gap_ratio(exp3_model, exp3):
    t = np.linspace(0.2, 3.0, 50)
    for i in (2, 3):
        fp, fc = exp3.margins[i - 2], exp3.margins[i - 1]
        naive = np.asarray(fc.pdf(t), dtype=float) / (
            np.asarray(fp.cdf(t), dtype=float)
            - np.asarray(fc.cdf(t), dtype=float))
        assert np.allclose(hazard(exp3_model, i, t), naive, rtol=1e-11)
    with pytest.raises(ValueError):
        hazard(exp3_model, 1, t)


@pytest.mark.parametrize("margins", [
    (ExponentialCdf(3.0), ExponentialCdf(2.0), ExponentialCdf(1.0)),
    (BetaOneKCdf(3), BetaOneKCdf(2), BetaOneKCdf(1)),
    (PiecewiseLinearCdf(((0.0, 0.0), (0.5, 0.75), (1.0, 1.0))),
     PiecewiseLinearCdf(((0.0, 0.0), (0.5, 0.25), (1.0, 1.0)))),
    (BetaOneKCdf(3), ExponentialCdf(1.0)),
], ids=["exponential", "beta", "piecewise", "general"])
def test_separation_set_computed_once_per_pair(monkeypatch, margins):
    calls = []
    psi_pair = marginals.psi_pair
    monkeypatch.setattr(marginals, "psi_pair",
                        lambda fp, fc: calls.append(1) or psi_pair(fp, fc))
    mv = MarginalVector(margins)
    model = build_model(mv)
    detect_degenerate(mv)
    f_F_density(model, np.linspace(0.1, 0.5, mv.d)[None, :])
    sigma_measure(mv)
    j_functional(mv)
    assert len(calls) == mv.d - 1


@pytest.mark.parametrize("build", [
    lambda: multidiagonal_of_iid_uniform(4),
    lambda: multidiagonal_from_marginals(MarginalVector(
        (ExponentialCdf(3.0), ExponentialCdf(2.0), ExponentialCdf(1.0)))),
], ids=["iid4", "exp3_delta"])
def test_separation_set_computed_once_per_multidiagonal_pair(monkeypatch, build):
    # a multidiagonal keeps its pair records; one built from marginals
    # reads its sets from the source's records and adds none of its own
    calls = []
    psi_pair = marginals.psi_pair

    def counted(fp, fc):
        calls.append(1)
        return psi_pair(fp, fc)

    monkeypatch.setattr(marginals, "psi_pair", counted)
    monkeypatch.setattr(multidiag, "psi_pair", counted, raising=False)
    delta = build()
    validate_multidiagonal(delta)
    CopulaKernel(delta)
    j_functional_delta(delta, "quadrature")
    assert len(calls) == delta.d - 1
