import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import maxentos
from maxentos import verify
from maxentos.cdfs import (_PANEL_ATOL, _PANEL_RTOL, AverageCdf, BetaOneKCdf,
                           ComposedDeltaCdf, ExponentialCdf, MarginalCdf,
                           OrderStatUniformCdf, PiecewiseLinearCdf, UniformCdf,
                           _panel_integral, _tanh_sinh, generalized_inverse,
                           marginal_from_dict)
from maxentos.errors import InvalidMarginal


def test_uniform_basics():
    F = UniformCdf(0.0, 2.0)
    assert F.cdf(1.0) == 0.5
    assert F.sf(1.5) == 0.25
    assert F.ppf(0.25) == 0.5
    assert F.pdf(1.0) == 0.5
    assert F.pdf(3.0) == 0.0
    assert F.entropy() == pytest.approx(math.log(2.0), abs=1e-12)
    with pytest.raises(InvalidMarginal):
        UniformCdf(1.0, 1.0)


def test_exponential_roundtrip_and_tail():
    F = ExponentialCdf(2.0)
    # ppf(cdf(x)) loses the far tail once cdf rounds to 1, so stay below that
    x = np.geomspace(1e-12, 5.0, 200)
    assert np.allclose(F.ppf(F.cdf(x)), x, rtol=1e-12)
    u = np.linspace(1e-9, 1.0 - 1e-9, 200)
    assert np.allclose(F.cdf(F.ppf(u)), u, rtol=1e-12)
    # deep tail must keep relative accuracy, not cancel through 1 - cdf
    assert F.sf(50.0) == pytest.approx(math.exp(-100.0), rel=1e-13)
    assert F.entropy() == pytest.approx(1.0 - math.log(2.0), abs=1e-12)
    assert F.cdf(-1.0) == 0.0


def test_beta_one_k_closed_forms():
    for k in (1, 2, 5):
        F = BetaOneKCdf(k)
        t = np.linspace(0.01, 0.99, 50)
        assert np.allclose(F.cdf(t), 1.0 - (1.0 - t) ** k, rtol=1e-13)
        assert np.allclose(F.pdf(t), k * (1.0 - t) ** (k - 1), rtol=1e-13)
        assert F.entropy() == pytest.approx((k - 1) / k - math.log(k), abs=1e-10)
    with pytest.raises(InvalidMarginal):
        BetaOneKCdf(0)
    with pytest.raises(InvalidMarginal):
        BetaOneKCdf(2.5)


def test_beta_one_k_tiny_arguments():
    # cdf(t) ~ k t for t near 0; the naive 1-(1-t)^k loses everything
    # below 1e-16 and the inverse then collapses tiny roots to zero
    F = BetaOneKCdf(3)
    t = 10.0 ** -np.arange(1, 290, 12, dtype=float)
    c = np.asarray(F.cdf(t), dtype=float)
    small = t < 1e-6
    assert np.allclose(c[small], 3.0 * t[small], rtol=1e-9)
    assert np.allclose(F.ppf(c), t, rtol=1e-12)
    u = 10.0 ** -np.arange(1, 290, 12, dtype=float)
    assert np.allclose(F.cdf(F.ppf(u)), u, rtol=1e-12)


def test_piecewise_linear_roundtrip_and_entropy():
    F = PiecewiseLinearCdf(((0.0, 0.0), (0.5, 0.75), (1.0, 1.0)))
    t = np.linspace(0.01, 1.0, 100)
    assert np.allclose(F.ppf(F.cdf(t)), t, atol=1e-12)
    assert F.pdf(0.25) == 1.5
    assert F.pdf(0.75) == 0.5
    closed = -(0.5 * 1.5 * math.log(1.5) + 0.5 * 0.5 * math.log(0.5))
    assert F.entropy() == pytest.approx(closed, abs=1e-10)
    with pytest.raises(InvalidMarginal):
        PiecewiseLinearCdf(((0.0, 0.0), (1.0, 0.5)))
    with pytest.raises(InvalidMarginal):
        PiecewiseLinearCdf(((0.0, 0.0), (0.0, 0.5), (1.0, 1.0)))


def test_piecewise_singular_marker():
    F = PiecewiseLinearCdf(((0.0, 0.0), (1.0, 1.0)), absolutely_continuous=False)
    assert not F.is_absolutely_continuous
    assert F.entropy() == -math.inf


_PLATEAU = PiecewiseLinearCdf(((0.0, 0.0), (0.4, 0.5), (0.6, 0.5), (1.0, 1.0)))


def test_generalized_inverse_plateau_takes_infimum():
    F = PiecewiseLinearCdf(((0.0, 0.0), (0.4, 0.5), (0.6, 0.5), (1.0, 1.0)))
    assert generalized_inverse(F.cdf, 0.5, 0.0, 1.0) == pytest.approx(0.4, abs=1e-9)
    assert generalized_inverse(F.cdf, 0.5 + 1e-6, 0.0, 1.0) > 0.6 - 1e-6
    # CDF objects route through their own quantile function
    assert generalized_inverse(F, 0.5) == pytest.approx(0.4, abs=1e-9)


_expcdf = lambda x: -math.expm1(-x) if x > 0 else 0.0


def _counted_inverse(J, t, lo, hi):
    """generalized_inverse(J, t, lo, hi) as a hex string, and the type of
    every value J read."""
    seen = []

    def counted(x):
        seen.append(type(x))
        return J(x)

    return generalized_inverse(counted, t, lo, hi).hex(), seen


@pytest.mark.parametrize("J, t, lo, hi, expect", [
    # a plateau at the level, and just above it
    (_PLATEAU.cdf, 0.5, 0.0, 1.0, "0x1.999999999999ap-2"),
    (_PLATEAU.cdf, 0.5 + 1e-6, 0.0, 1.0, "0x1.33334e0b25cdfp-1"),
    (_expcdf, 0.3, -1.0, 1.0, "0x1.6d3c324e13f4ep-2"),
    (lambda x: 1.0 / (1.0 + math.exp(-x)), 0.8, -1.0, 3.0, "0x1.62e42fefa39edp+0"),
    (lambda x: x ** 3, 5.0, -1.0, 2.0, "0x1.b5c0fbcfec4d4p+0"),
    (math.tanh, -0.5, -1.0, 1.0, "-0x1.193ea7aad030ap-1"),
    (lambda x: 1.0 if x >= 0.25 else 0.0, 1.0, -1.0, 1.0, "0x1.0000000000000p-2"),
    (lambda x: x, 7.5, -1.0, 8.0, "0x1.e000000000000p+2"),
])
def test_generalized_inverse_bisects_on_floats(J, t, lo, hi, expect):
    # J reads one Python float at a time: two reads check the bracket's
    # ends, at most 200 bisect it
    value, seen = _counted_inverse(J, t, lo, hi)
    assert value == expect
    assert set(seen) == {float}
    assert len(seen) <= 202


@pytest.mark.parametrize("J, t, lo, hi, expect", [
    # bisection on the float ordering crosses the binades from [-1, 1] down
    # to 1e-300 in a few dozen reads before it settles the root's digits
    (_expcdf, 1e-300, -1.0, 1.0, "0x1.56e1fc2f8f359p-997"),
    (lambda x: x, 1e-300, -1.0, 1.0, "0x1.56e1fc2f8f359p-997"),
    (lambda x: x, 0.3, -1e300, 1e300, "0x1.3333333333333p-2"),
    # the smallest level on the widest bracket tried
    (lambda x: x, 5e-324, -1e300, 1e300, "0x0.0000000000001p-1022"),
])
def test_generalized_inverse_bisects_to_tiny_and_far_roots(J, t, lo, hi, expect):
    # two reads check the bracket's ends, at most 100 bisect it
    value, seen = _counted_inverse(J, t, lo, hi)
    assert value == expect
    assert set(seen) == {float}
    assert len(seen) <= 102


@pytest.mark.parametrize("J, t, expect", [
    # the default bracket [-1, 1] grows until it straddles the level
    (lambda x: x, 1e6, 1e6),
    # no s reaches the level, or every s does
    (math.tanh, 2.0, math.inf),
    (math.tanh, -2.0, -math.inf),
])
def test_generalized_inverse_expands_its_bracket(J, t, expect):
    assert generalized_inverse(J, t) == expect


def test_order_stat_uniform_polynomials():
    d = 3
    t = np.linspace(0.0, 1.0, 64)
    expect = [1.0 - (1.0 - t) ** 3, 3 * t ** 2 - 2 * t ** 3, t ** 3]
    for i in (1, 2, 3):
        F = OrderStatUniformCdf(d, i)
        assert np.allclose(F.cdf(t), expect[i - 1], atol=1e-13)
        assert np.allclose(F.ppf(F.cdf(t[1:-1])), t[1:-1], rtol=1e-10)


def test_panel_rule_splits_an_unconverged_panel_once():
    # sqrt|t - 1/2| has an infinite slope inside [0, 1], where one pass of
    # the rule stops 1.3e-5 off; its halves put the singularity at their ends
    def fn(t):
        return np.sqrt(np.abs(t - 0.5))

    val = _panel_integral(fn, [0.0, 0.0], [1.0, 0.5])
    assert val == pytest.approx([2 * 0.5 ** 1.5 / 1.5, 0.5 ** 1.5 / 1.5], rel=1e-13)
    assert _panel_integral(fn, [], []).size == 0


#: integrands for the oracle test: smooth, log-singular at 0, with an
#: infinite slope at 0.3, NaN at 0.5 (the midpoint of the panels drawn
#: around it), NaN throughout, and 1/t
_ORACLE_INTEGRANDS = {
    "polynomial": lambda t: 1.0 + t * (0.5 - 0.25 * t),
    "log_end": lambda t: np.log(np.abs(t)),
    "sqrt_kink": lambda t: np.sqrt(np.abs(t - 0.3)),
    "nan_mid": lambda t: np.where(t == 0.5, math.nan, np.exp(-np.abs(t))),
    "all_nan": lambda t: np.full(t.shape, math.nan),
    "inverse": lambda t: 1.0 / t,
}
_LIMITS = st.one_of(st.sampled_from([-math.inf, math.inf, 0.0, 0.3, 0.5, 1.0]),
                    st.floats(-8.0, 8.0))


@st.composite
def _panels(draw):
    """Limits a, b: finite, reversed, equal, semi-infinite or doubly
    infinite, and panels centred on 0.5."""
    a, b = [], []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["any", "equal", "around_half"]))
        lo = draw(_LIMITS)
        if kind == "equal":
            hi = lo
        elif kind == "around_half":
            r = draw(st.floats(1e-3, 4.0))
            lo, hi = (0.5 - r, 0.5 + r) if draw(st.booleans()) else (0.5 + r, 0.5 - r)
        else:
            hi = draw(_LIMITS)
        a.append(lo)
        b.append(hi)
    return np.array(a), np.array(b)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(_ORACLE_INTEGRANDS)), ab=_panels())
def test_tanh_sinh_matches_scipy(name, ab):
    # the package's rule runs scipy.integrate.tanhsinh's algorithm at the
    # panel rule's settings: the same success flags, integrals within 2
    # ulps (and bit for bit on the scipy this was written against)
    fn, (a, b) = _ORACLE_INTEGRANDS[name], ab
    with np.errstate(all="ignore"):
        ref = integrate.tanhsinh(
            lambda t: np.asarray(fn(t.ravel()), dtype=float).reshape(t.shape),
            a, b, atol=_PANEL_ATOL, rtol=_PANEL_RTOL)
        val, ok = _tanh_sinh(fn, a.copy(), b.copy())
    want = np.atleast_1d(ref.integral)
    assert np.array_equal(ok, np.atleast_1d(ref.success))
    close = (val == want) | (np.isnan(val) & np.isnan(want)) | (
        np.abs(val - want) <= 2.0 * np.spacing(np.fmax(np.abs(val), np.abs(want))))
    assert close.all(), (a[~close], b[~close], val[~close], want[~close])


def test_panel_rule_reads_the_integrand_once_per_level():
    # one call at the midpoints, then one per level on every open panel's
    # nodes: 66 at the first level (levels 0 to 2), then 64, 128, ...
    sizes = []

    def counted(fn):
        return lambda t: (sizes.append(t.size), fn(t))[1]

    val = _panel_integral(counted(lambda t: np.exp(-t) * np.sqrt(t)),
                          [1.0, 0.0, 0.0], [2.0, 1.0, math.inf])
    assert sizes == [3, 3 * 66, 3 * 64, 1 * 128]
    assert val[2] == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-14)
    # a panel that runs to the last level, then its halves in one more rule
    sizes.clear()
    _panel_integral(counted(lambda t: np.sqrt(np.abs(t - 0.5))), [0.0, 0.0], [1.0, 0.5])
    assert sizes == [2, 2 * 66, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 2, 2 * 66, 64]


def _tent():
    return (PiecewiseLinearCdf([[0, 0], [0.5, 0.75], [1, 1]]),
            PiecewiseLinearCdf([[0, 0], [0.5, 0.25], [1, 1]]))


def _degenerate(margins):
    r = maxentos.detect_degenerate(maxentos.MarginalVector(margins))
    return [r.j_value, r.entropy]


def _kernel_tail(delta):
    return verify._delta_checks(delta, seed=0, n_samples=1000, grid=256)


_BETA2 = (BetaOneKCdf(2), BetaOneKCdf(1))
#: the package's quadrature outputs, as hex, pinned before the panel rule
#: left scipy.integrate.tanhsinh
_QUADRATURE_PINS = {
    "tent": (lambda: _degenerate(_tent()),
             ["0x1.b17217f7d1cf2p+0", "-0x1.e8d7c710ccf26p-1"]),
    "beta3_exp1": (lambda: _degenerate((BetaOneKCdf(3), ExponentialCdf(1.0))),
                   ["0x1.7eacdafe82705p+0", "0x1.2bf28015809b0p-4"]),
    "uniform_exp1": (lambda: _degenerate((UniformCdf(0.0, 1.0), ExponentialCdf(1.0))),
                     ["0x1.6ce98342cfdcbp+1", "-0x1.b3a60d0b3f72cp-1"]),
    "j_exp3": (lambda: [maxentos.j_functional(maxentos.MarginalVector(
        tuple(ExponentialCdf(r) for r in (3.0, 2.0, 1.0))), method="quadrature")],
        ["0x1.1fffffffffff4p+2"]),
    "j_beta5": (lambda: [maxentos.j_functional(maxentos.MarginalVector(
        tuple(BetaOneKCdf(k) for k in (5, 4, 3, 2, 1))), method="quadrature")],
        ["0x1.4d55555555555p+3"]),
    "piecewise_entropy": (lambda: [MarginalCdf.entropy(_tent()[0])],
                          ["-0x1.0be72e4252a82p-3"]),
    "beta2_delta_entropy": (
        lambda: [c.entropy() for c in maxentos.multidiagonal_from_marginals(
            maxentos.MarginalVector(_BETA2)).components],
        ["-0x1.fea645f0ef4e9p-5", "-0x1.72838ef330cf0p-5"]),
    "beta2_kernel_tail": (
        lambda: [dict(_kernel_tail(maxentos.multidiagonal_from_marginals(
            maxentos.MarginalVector(_BETA2))))["kernel_tail_integral"]().value],
        ["0x1.0000000000000p-50"]),
    "iid3_kernel_tail": (
        lambda: [dict(_kernel_tail(maxentos.multidiagonal_of_iid_uniform(3)))[
            "kernel_tail_integral"]().value],
        ["0x1.0000000000000p-50"]),
}


@pytest.mark.parametrize("name", sorted(_QUADRATURE_PINS))
def test_quadrature_outputs_keep_their_bits(name):
    # J and entropy of detect_degenerate, J by quadrature, 1-D entropies by
    # the panel rule and the battery's kernel tail check, bit for bit
    fn, expect = _QUADRATURE_PINS[name]
    assert [float(v).hex() for v in fn()] == expect


def test_panel_rule_reads_a_panel_a_few_ulps_wide():
    # tanh-sinh returns NaN or a value far off on these: its nodes round
    # onto a few floats, and those on an end weigh 0
    ulp = np.spacing(1.0)
    widths = np.arange(1, 5) * ulp
    val = _panel_integral(lambda t: 2.0 + 0.0 * t, np.ones(4), 1.0 + widths)
    assert np.array_equal(val, 2.0 * widths)
    # and the same way round from the other end
    val = _panel_integral(lambda t: 2.0 + 0.0 * t, 1.0 + widths, np.ones(4))
    assert np.array_equal(val, -2.0 * widths)


@pytest.mark.parametrize("fn", [lambda t: 1.0 / t, lambda t: -1.0 - 0.0 * t])
def test_panel_rule_gives_zero_on_equal_ends(fn):
    # the rule's exact +0.0, with only its call at the midpoint: no
    # midpoint rule writes 0 * fn(mid) (NaN at 1/0, -0.0 below 0) over it
    sizes = []
    val = _panel_integral(lambda t: (sizes.append(t.size), fn(t))[1], [0.0], [0.0])
    assert val.tobytes() == np.zeros(1).tobytes()
    assert sizes == [1]


def test_panel_rule_integrates_a_reversed_panel():
    # a reversed panel is no narrow one: the rule gives minus its integral
    val = _panel_integral(lambda t: t * t, [1.0, 2.0], [0.0, -1.0])
    assert val == pytest.approx([-1.0 / 3.0, -3.0], rel=1e-14)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_extreme_order_stat_entropy_is_beta_one_d(d):
    # the first and last of d iid uniforms are Beta(1, d) and Beta(d, 1),
    # whose entropy is -log d + (d - 1) / d
    expect = -math.log(d) + (d - 1) / d
    for i in (1, d):
        assert OrderStatUniformCdf(d, i).entropy() == pytest.approx(expect, rel=1e-13)


_EXP3 = (ExponentialCdf(3.0), ExponentialCdf(2.0), ExponentialCdf(1.0))


_EVERY_FAMILY = pytest.mark.parametrize("F", [
    UniformCdf(0.0, 2.0), ExponentialCdf(2.0), BetaOneKCdf(3),
    PiecewiseLinearCdf(((0.0, 0.0), (0.5, 0.75), (1.0, 1.0))),
    OrderStatUniformCdf(3, 2), AverageCdf(_EXP3), ComposedDeltaCdf(_EXP3[0], AverageCdf(_EXP3)),
], ids=["uniform", "exponential", "beta_1_k", "piecewise", "order_stat", "average_exp3",
        "composed"])


@_EVERY_FAMILY
def test_nan_reads_nan_in_every_family(F):
    x = np.array([math.nan, 0.25])
    for fn in (F.cdf, F.sf):
        out = np.asarray(fn(x))
        assert math.isnan(out[0]) and not math.isnan(out[1])
        assert math.isnan(fn(math.nan))
    assert np.asarray(F.pdf(x))[0] == 0.0


@_EVERY_FAMILY
def test_every_family_keeps_one_contract(F):
    # a scalar or 0-d input gives a float, an array keeps its shape
    for fn in (F.cdf, F.sf, F.pdf, F.ppf):
        for v in (0.25, np.float64(0.25), np.array(0.25)):
            assert type(fn(v)) is float
        for shape in ((4,), (2, 3)):
            x = np.linspace(0.1, 0.6, math.prod(shape)).reshape(shape)
            assert np.asarray(fn(x)).shape == shape
    # the generalized inverse's ends, scalar and array alike
    ends = [-0.5, -0.0, 0.0, 1.5, math.inf, math.nan]
    expect = [-math.inf, -math.inf, -math.inf, math.inf, math.inf, math.nan]
    np.testing.assert_array_equal(F.ppf(np.array(ends)), expect)
    for v, e in zip(ends, expect):
        np.testing.assert_array_equal(F.ppf(v), e)


def test_minimal_subclass_answers_sf():
    # a family that writes only the public cdf, pdf and ppf still gets sf
    class Unit(MarginalCdf):
        def cdf(self, x):
            return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)

        def pdf(self, x):
            x = np.asarray(x, dtype=float)
            return np.where((x > 0.0) & (x < 1.0), 1.0, 0.0)

        def ppf(self, u):
            return np.asarray(u, dtype=float)

    F = Unit()
    assert F.sf(0.25) == 0.75
    np.testing.assert_array_equal(F.sf(np.array([-1.0, 0.5, 2.0])), [1.0, 0.5, 0.0])


def test_average_cdf_mixes_components():
    comps = (OrderStatUniformCdf(2, 1), OrderStatUniformCdf(2, 2))
    G = AverageCdf(comps)
    t = np.linspace(0.0, 1.0, 33)
    # (2t - t^2 + t^2) / 2 = t: the average of the iid pair is uniform
    assert np.allclose(G.cdf(t), t, atol=1e-13)
    assert np.allclose(G.pdf(t[1:-1]), 1.0, atol=1e-13)
    assert np.allclose(G.ppf(t[1:-1]), t[1:-1], atol=1e-10)


def test_marginal_from_dict_families():
    F = marginal_from_dict({"family": "exponential", "rate": 2.0})
    assert isinstance(F, ExponentialCdf) and F.rate == 2.0
    F = marginal_from_dict({"family": "uniform", "a": 0.0, "b": 2.0})
    assert isinstance(F, UniformCdf) and F.b == 2.0
    F = marginal_from_dict({"family": "beta_1_k", "k": 3})
    assert isinstance(F, BetaOneKCdf) and F.k == 3
    F = marginal_from_dict({"family": "piecewise_linear",
                            "knots": [[0.0, 0.0], [1.0, 1.0]]})
    assert isinstance(F, PiecewiseLinearCdf)
    with pytest.raises(KeyError):
        marginal_from_dict({"family": "gaussian", "mu": 0.0})


def test_round_trip_through_dict():
    for F in (ExponentialCdf(1.5), UniformCdf(-1.0, 4.0), BetaOneKCdf(4),
              PiecewiseLinearCdf(((0.0, 0.0), (0.3, 0.6), (1.0, 1.0)))):
        G = marginal_from_dict(F.to_dict())
        t = np.linspace(-0.5, 3.5, 41)
        assert np.allclose(G.cdf(t), F.cdf(t), atol=1e-14)
