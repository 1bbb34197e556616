"""Separation sets of general-route pairs against closed conditions and mpmath.

A pair (F_prev, F_cur) with no shared closed form takes the general route:
its separation set comes from the exact-side gap on one probe pass, and its
J term from quadrature.  The pairs here have a closed order condition, so
the set is known, and mpmath integrates J at high precision.
"""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxentos import MarginalVector, build_model, cli, marginals, sample
from maxentos.cdfs import (BetaOneKCdf, ExponentialCdf, OrderStatUniformCdf,
                           PiecewiseLinearCdf, UniformCdf)
from maxentos.joint import detect_degenerate
from maxentos.marginals import j_functional, psi_intervals, sigma_measure
from maxentos.verify import KS_FACTOR, ks_distance


def _uniform_exp_j() -> float:
    """J of (Uniform(0, 1), Exp(1)) by mpmath at 40 digits.

    The gap is t + expm1(-t) on (0, 1) and exp(-t) above; below t = 1e-8
    its series replaces the plain form, which reads 0 there at 40 digits.
    """
    with mp.workdps(40):
        def gap(t):
            if t < mp.mpf("1e-8"):
                return sum((-1) ** n * t ** n / mp.factorial(n) for n in range(2, 8))
            return t + mp.expm1(-t)

        j = mp.quad(lambda t: mp.exp(-t) * -mp.log(gap(t)), [0, 1]) + 2 / mp.e
        return float(j)


@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_uniform_exp_one_is_ordered_with_finite_j(scale, tmp_path):
    # Uniform(0, 1)/Exp(1) and its common rescaling by 1/2: the gap closes
    # like t^2/2 at the shared endpoint 0, yet the pair is separated there
    F = MarginalVector((UniformCdf(0.0, scale), ExponentialCdf(1.0 / scale)))
    assert psi_intervals(F, 2).intervals == ((0.0, math.inf),)
    assert sigma_measure(F) == 0.0
    report = detect_degenerate(F)
    assert report.verdict == "ok"
    j_ref = _uniform_exp_j()
    assert j_ref == pytest.approx(2.85087624323149652, rel=1e-15)
    j = j_functional(F, method="quadrature")
    assert abs(j - j_ref) <= 1e-12 * j_ref
    # H(U(0, s)) + H(Exp(1/s)) = 1 + 2 log s, and the entropy is that + 1 - J
    assert report.entropy == pytest.approx(2.0 - j_ref + 2.0 * math.log(scale), abs=1e-12)
    X = sample(build_model(F), 4000, seed=0)
    for i, m in enumerate(F.margins):
        assert ks_distance(X[:, i], m.cdf) <= KS_FACTOR / math.sqrt(4000)
    spec = tmp_path / "spec.json"
    spec.write_text('{"margins": [{"family": "uniform", "a": 0.0, "b": %r}, '
                    '{"family": "exponential", "rate": %r}]}' % (scale, 1.0 / scale))
    assert cli.main(["validate", "--input", str(spec)]) == 0


# mpmath forms of the families: (cdf, sf, pdf), each on the real line
def _mp_uniform(b):
    b = mp.mpf(b)
    return (lambda t: min(max(t / b, 0), 1), lambda t: min(max((b - t) / b, 0), 1),
            lambda t: 1 / b if 0 < t < b else mp.mpf(0))


def _mp_exponential(r):
    r = mp.mpf(r)
    return (lambda t: -mp.expm1(-r * t) if t > 0 else mp.mpf(0),
            lambda t: mp.exp(-r * t) if t > 0 else mp.mpf(1),
            lambda t: r * mp.exp(-r * t) if t > 0 else mp.mpf(0))


def _mp_beta(k):
    def cdf(t):
        return mp.mpf(0) if t <= 0 else mp.mpf(1) if t >= 1 else -mp.expm1(k * mp.log1p(-t))

    return (cdf, lambda t: mp.mpf(1) if t <= 0 else (1 - t) ** k if t < 1 else mp.mpf(0),
            lambda t: k * (1 - t) ** (k - 1) if 0 < t < 1 else mp.mpf(0))


def _mp_j(prev, cur, cuts) -> float:
    """int f_cur |log(F_prev - F_cur)| over the cuts, by mpmath at 30 digits.

    The gap is read as the package reads it, from the CDFs where F_prev <= 1/2
    and from the survival functions above, with digits added near 0 where
    both CDFs are about t and their difference about t^2.
    """
    (Fp, Sp, _), (Fc, Sc, fc) = prev, cur

    def integrand(t):
        with mp.workdps(30 + max(0, int(-2 * mp.log10(t)))):
            a = Fp(t)
            gap = a - Fc(t) if a <= 0.5 else Sc(t) - Sp(t)
            # a gap of exactly 0 is a node rounded onto the end of a cut
            # where the gap closes, as in a cut one ulp wide; its weight
            # is far below the working precision
            return fc(t) * -mp.log(gap) if gap else mp.mpf(0)

    with mp.workdps(30):
        return float(mp.quad(integrand, [mp.mpf(c) for c in cuts]))


def _assert_one_interval_with_mpmath_j(fp, fc, prev, cur, cuts):
    F = MarginalVector((fp, fc))
    assert psi_intervals(F, 2).intervals == ((fp.support[0], fc.support[1]),)
    assert sigma_measure(F) == 0.0
    assert detect_degenerate(F).verdict == "ok"
    assert abs(j_functional(F, method="quadrature") - _mp_j(prev, cur, cuts)) <= 1e-10


def _at_most(x, limit, factor):
    """The largest float <= x whose exact product with factor is <= limit.

    The order conditions below hold in exact arithmetic, which the mpmath
    oracle uses: r = q / b can round to an r with r b just above 1.
    """
    while Fraction(x) * Fraction(factor) > limit:
        x = math.nextafter(x, -math.inf)
    return x


_ORACLE = settings(max_examples=6, deadline=None)
_scale = st.floats(0.25, 4.0)
_fraction = st.floats(0.05, 1.0)


@_ORACLE
@given(b=_scale, q=_fraction)
@example(b=1.0, q=1.0)
@example(b=1.25, q=1.0)
def test_uniform_over_exponential_matches_mpmath(b, q):
    # ordered iff r b <= 1: F_cur is concave from slope r, F_prev linear 1/b
    r = _at_most(q / b, 1, b)
    _assert_one_interval_with_mpmath_j(UniformCdf(0.0, b), ExponentialCdf(r),
                                       _mp_uniform(b), _mp_exponential(r), [0, b, mp.inf])


@_ORACLE
@given(k=st.integers(1, 5), q=_fraction)
@example(k=3, q=1.0)
def test_beta_over_exponential_matches_mpmath(k, q):
    # Beta(1, k) is Exp(k) in s = -log(1 - t) >= t: ordered iff r <= k
    r = q * k
    _assert_one_interval_with_mpmath_j(BetaOneKCdf(k), ExponentialCdf(r),
                                       _mp_beta(k), _mp_exponential(r), [0, 1, mp.inf])


@_ORACLE
@given(k=st.integers(2, 5), q=_fraction)
@example(k=2, q=1.0)
@example(k=5, q=1.0)
def test_uniform_over_beta_matches_mpmath(k, q):
    # ordered iff k b <= 1: F_cur is concave from slope k, F_prev linear 1/b
    b = _at_most(q / k, 1, k)
    _assert_one_interval_with_mpmath_j(UniformCdf(0.0, b), BetaOneKCdf(k),
                                       _mp_uniform(b), _mp_beta(k), [0, b, 1])


@_ORACLE
@given(k=st.integers(2, 5), b=st.floats(1.0, 4.0))
@example(k=2, b=1.0)
@example(k=2, b=1.0000000000000002)
def test_beta_over_uniform_matches_mpmath(k, b):
    # ordered iff b >= 1: F_prev >= t >= t / b; at b = 1 + 1 ulp the J
    # panel (1, b) is one ulp wide
    _assert_one_interval_with_mpmath_j(BetaOneKCdf(k), UniformCdf(0.0, b),
                                       _mp_beta(k), _mp_uniform(b), [0, 1, b])


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_identical_laws_by_different_formulas_stay_unseparated(d):
    # the minimum of d uniforms is Beta(1, d): the two formulas differ by
    # rounding only, which the separation test must not read as a gap
    F = MarginalVector((OrderStatUniformCdf(d, 1), BetaOneKCdf(d)))
    assert psi_intervals(F, 2).is_empty
    assert sigma_measure(F) == 1.0
    assert detect_degenerate(F).verdict == "j_infinite"


def _knot_touch():
    # Beta(1, 2) against a piecewise CDF: the gap is t (1/2 - t) on the
    # left and (t - 1/2)(1 - t) on the right, so it touches 0 at the knot 1/2
    return MarginalVector((BetaOneKCdf(2),
                           PiecewiseLinearCdf([(0.0, 0.0), (0.5, 0.75), (1.0, 1.0)])))


def test_knot_touch_splits_at_the_knot():
    F = _knot_touch()
    (g0, d0), (g1, d1) = psi_intervals(F, 2)
    assert (g0, d1) == (0.0, 1.0)
    assert abs(d0 - 0.5) <= 1e-14 and abs(g1 - 0.5) <= 1e-14
    assert detect_degenerate(F).verdict == "ok"
    assert abs(j_functional(F, method="quadrature") - (2.0 + 2.0 * math.log(2.0))) <= 1e-12


def test_general_pair_reads_one_probe_pass_and_one_solve_per_direction(monkeypatch):
    probes, solves = [], []
    probe_points, newton_level = marginals._probe_points, marginals._newton_level
    monkeypatch.setattr(marginals, "_probe_points",
                        lambda *a: probes.append(1) or probe_points(*a))
    monkeypatch.setattr(marginals, "_newton_level",
                        lambda *a: solves.append(1) or newton_level(*a))
    for F in (MarginalVector((BetaOneKCdf(3), ExponentialCdf(1.0))), _knot_touch()):
        probes.clear()
        pair = F.pairs[0]
        assert pair.psi and pair.order
        assert len(probes) == 1
    # the knot-touch pair's two interior boundaries: one solve per direction
    assert len(solves) <= 2
