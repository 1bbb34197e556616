import math

import numpy as np
import pytest

from maxentos import (IntervalSet, MarginalVector, average_cdf,
                      check_stochastic_order, in_support_LF, j_functional,
                      marginal_vector_from_dict, marginals, psi_intervals,
                      sigma_measure)
from maxentos.cdfs import (BetaOneKCdf, ExponentialCdf, PiecewiseLinearCdf,
                           UniformCdf)
from maxentos.errors import InvalidMarginal
from maxentos.joint import detect_degenerate


def test_stochastic_order_detects_violation(exp3):
    assert check_stochastic_order(exp3).ordered
    rev = MarginalVector((ExponentialCdf(1.0), ExponentialCdf(3.0)))
    rep = check_stochastic_order(rev)
    assert not rep.ordered
    assert rep.violations
    i, s, fp, fc = rep.violations[0]
    assert i == 2 and fp < fc


@pytest.mark.parametrize("pair, witness, tol", [
    # general route: the witness is sharpened on 257 points between the
    # probes around the worst one, toward the argmin of F_prev - F_cur,
    # the root of exp(-t) = 2 (1 - t)
    ((ExponentialCdf(1.0), BetaOneKCdf(2)), 0.7680390470134656, 1e-4),
    # piecewise route: the gap is linear between knots, worst at the knot
    ((UniformCdf(0.5, 1.5), UniformCdf(0.0, 1.0)), 0.5, 0.0),
])
def test_stochastic_order_violation_names_its_witness(pair, witness, tol):
    F = MarginalVector(pair)
    rep = check_stochastic_order(F)
    assert not rep.ordered and len(rep.violations) == 1
    i, s, fp, fc = rep.violations[0]
    assert i == 2 and abs(s - witness) <= tol
    assert (fp, fc) == (float(pair[0].cdf(s)), float(pair[1].cdf(s))) and fp < fc
    with pytest.raises(InvalidMarginal, match=f"margins 1 and 2 .* at t={s!r}:"):
        detect_degenerate(F)


def test_average_cdf_closed_value(beta2):
    G = average_cdf(beta2)
    t = np.linspace(0.0, 1.0, 21)
    # margins 2t - t^2 and t average to (3t - t^2) / 2
    assert np.allclose(G.cdf(t), (3 * t - t * t) / 2, atol=1e-13)


def test_psi_intervals_shapes(exp3, uu):
    ps = psi_intervals(exp3, 2)
    assert len(ps) == 1
    lo, hi = list(ps)[0]
    assert lo == 0.0 and math.isinf(hi)
    assert len(psi_intervals(uu, 2)) == 0


def test_psi_intervals_interior_touch_splits():
    # second margin touches the first at t = 0.5 only, so the separation
    # set falls apart into two open intervals
    F1 = UniformCdf(0.0, 1.0)
    F2 = PiecewiseLinearCdf(((0.0, 0.0), (0.2, 0.1), (0.5, 0.5),
                             (0.8, 0.6), (1.0, 1.0)))
    ps = psi_intervals(MarginalVector((F1, F2)), 2)
    assert [(a, b) for a, b in ps] == [(0.0, 0.5), (0.5, 1.0)]


def test_sigma_measure_values(exp3, uu):
    assert sigma_measure(exp3) == pytest.approx(0.0, abs=1e-12)
    assert sigma_measure(uu) == pytest.approx(1.0, abs=1e-12)
    # equality on [0, 0.3] only: the separation defect has measure 0.3
    F2 = PiecewiseLinearCdf(((0.0, 0.0), (0.3, 0.3), (0.9, 0.5), (1.0, 1.0)))
    mv = MarginalVector((UniformCdf(0.0, 1.0), F2))
    assert sigma_measure(mv) == pytest.approx(0.3, abs=1e-9)


def test_in_support_membership(exp3):
    pts = np.array([[0.1, 0.5, 1.0],
                    [0.5, 0.1, 1.0],
                    [-0.1, 0.5, 1.0],
                    [0.3, 0.3, 0.9]])
    assert list(in_support_LF(exp3, pts)) == [True, False, False, True]


def test_j_functional_closed_values(beta2, exp3, uu):
    assert j_functional(beta2) == pytest.approx(2.0, abs=1e-12)
    assert j_functional(exp3) == pytest.approx(4.5, abs=1e-10)
    assert j_functional(uu) == math.inf


def test_j_functional_routes_agree(beta2, exp3):
    for mv in (beta2, exp3):
        closed = j_functional(mv, method="auto")
        quad = j_functional(mv, method="quadrature")
        assert quad == pytest.approx(closed, abs=1e-8)


def test_j_quadrature_refuses_gap_above_one_where_density_is_positive():
    psi = IntervalSet(((0.0, 1.0),))

    def half_corrupt(t):
        # gap 1.5 on (0, 1/2), where f_cur is 0, and 1/2 beyond
        return np.where(t < 0.5, 0.0, 1.0), np.where(t < 0.5, 1.5, 0.5)

    assert marginals._pair_j_quad(half_corrupt, psi, [0.5]) == pytest.approx(
        0.5 * math.log(2.0), rel=1e-13)
    with pytest.raises(InvalidMarginal, match="above 1"):
        marginals._pair_j_quad(lambda t: (np.ones_like(t), np.full_like(t, 1.5)), psi, [])


def test_marginal_vector_from_dict():
    spec = {"margins": [{"family": "exponential", "rate": 3.0},
                        {"family": "exponential", "rate": 1.0}]}
    mv = marginal_vector_from_dict(spec)
    assert mv.d == 2
    assert isinstance(mv.margins[0], ExponentialCdf)
    with pytest.raises((KeyError, TypeError, ValueError)):
        marginal_vector_from_dict({"margins": "nope"})
    with pytest.raises((KeyError, TypeError, ValueError)):
        marginal_vector_from_dict({})


def test_marginal_vector_needs_margins():
    with pytest.raises(InvalidMarginal):
        MarginalVector(())
