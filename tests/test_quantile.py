"""G^{-1} for averages of CDFs: a 50-digit oracle and the solver's work."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxentos import cdfs
from maxentos.cdfs import (AverageCdf, BetaOneKCdf, ComposedDeltaCdf,
                           ExponentialCdf, PiecewiseLinearCdf)

TENT = (((0.0, 0.0), (0.5, 0.75), (1.0, 1.0)),
        ((0.0, 0.0), (0.5, 0.25), (1.0, 1.0)))
# both margins are flat on [1, 2] and on [3, 4]; their average sits at the
# levels 0.25 and 0.75 there, one on each side of the 1/2 split of ppf
PLATEAU = (((0.0, 0.0), (1.0, 0.3), (2.0, 0.3), (3.0, 0.9), (4.0, 0.9), (5.0, 1.0)),
           ((0.0, 0.0), (1.0, 0.2), (2.0, 0.2), (3.0, 0.6), (4.0, 0.6), (5.0, 1.0)))


class _Exp:
    def __init__(self, rate):
        self.cdf_obj = ExponentialCdf(rate)
        self.rate = mp.mpf(rate)

    def cdf(self, x):
        return -mp.expm1(-self.rate * x) if x > 0 else mp.mpf(0)

    def ppf(self, u):
        return -mp.log1p(-u) / self.rate


class _Beta:
    def __init__(self, k):
        self.cdf_obj = BetaOneKCdf(k)
        self.k = k

    # through log1p/expm1: 50 digits do not survive 1 - (1 - 1e-300)
    def cdf(self, x):
        x = min(max(x, mp.mpf(0)), mp.mpf(1))
        return -mp.expm1(self.k * mp.log1p(-x)) if x < 1 else mp.mpf(1)

    def ppf(self, u):
        return -mp.expm1(mp.log1p(-u) / self.k)


class _Piecewise:
    def __init__(self, knots):
        self.cdf_obj = PiecewiseLinearCdf(knots)
        self.xs = [mp.mpf(x) for x, _ in knots]
        self.Fs = [mp.mpf(F) for _, F in knots]

    def cdf(self, x):
        if x <= self.xs[0]:
            return self.Fs[0]
        for j in range(1, len(self.xs)):
            if x <= self.xs[j]:
                w = (x - self.xs[j - 1]) / (self.xs[j] - self.xs[j - 1])
                return self.Fs[j - 1] + w * (self.Fs[j] - self.Fs[j - 1])
        return self.Fs[-1]

    def ppf(self, u):
        # inf{x : F(x) >= u}: the first knot at or above the level closes
        # a segment that climbs to it
        j = next(j for j, F in enumerate(self.Fs) if F >= u)
        w = (u - self.Fs[j - 1]) / (self.Fs[j] - self.Fs[j - 1])
        return self.xs[j - 1] + w * (self.xs[j] - self.xs[j - 1])


AVERAGES = {
    "exp3": [_Exp(r) for r in (3.0, 2.0, 1.0)],
    "beta2": [_Beta(k) for k in (2, 1)],
    "beta5": [_Beta(k) for k in (5, 4, 3, 2, 1)],
    "tent": [_Piecewise(k) for k in TENT],
    "plateau": [_Piecewise(k) for k in PLATEAU],
}


def _oracle(comps, u):
    """inf{x : G(x) >= u} at 50 digits, bisecting between the component
    quantiles (the level of the average lies between them)."""
    with mp.workdps(50):
        u = mp.mpf(u)
        qs = [c.ppf(u) for c in comps]
        lo, hi = min(qs), max(qs)
        n = len(comps)
        while hi - lo > mp.mpf(10) ** -24 * hi:
            mid = (lo + hi) / 2
            if sum(c.cdf(mid) for c in comps) / n >= u:
                hi = mid
            else:
                lo = mid
        return hi


def _ulps(x, exact):
    """|x - exact| in units of the spacing of doubles at exact."""
    with mp.workdps(50):
        return float(abs(mp.mpf(float(x)) - exact) / mp.mpf(np.spacing(float(exact))))


levels = st.one_of(
    st.floats(min_value=5e-324, max_value=1.0 - 2.0 ** -53),
    st.floats(min_value=5e-324, max_value=1e-6),
    st.floats(min_value=2.0 ** -53, max_value=1e-6).map(lambda e: 1.0 - e),
)


@pytest.mark.parametrize("name", sorted(AVERAGES))
@settings(max_examples=25, deadline=None)
@given(us=st.lists(levels, min_size=1, max_size=6))
@example(us=[1.0 - 1e-8, 1.0 - 1e-12, 1.0 - 2.0 ** -53])
@example(us=[5e-324, 1e-300, 1e-16, 0.25, 0.5, 0.75])
def test_average_ppf_matches_oracle(name, us):
    comps = AVERAGES[name]
    G = AverageCdf([c.cdf_obj for c in comps])
    got = G.ppf(np.array(us))
    for u, x in zip(us, got):
        exact = _oracle(comps, u)
        assert _ulps(x, exact) <= 4.0, (u, float(x), float(exact))


def test_plateau_levels_give_left_ends():
    G = AverageCdf([PiecewiseLinearCdf(k) for k in PLATEAU])
    assert G.ppf(0.25) == 1.0
    assert G.ppf(0.75) == 3.0
    # just past a plateau level the quantile jumps to the plateau's right end
    assert G.ppf(np.nextafter(0.25, 1.0)) == pytest.approx(2.0, abs=1e-14)
    assert G.ppf(np.nextafter(0.75, 1.0)) == pytest.approx(4.0, abs=1e-14)


class _Counter:
    """Points passed to cdf/sf of the patched classes; a survival function
    that goes through cdf counts once."""

    def __init__(self):
        self.points = 0
        self._depth = 0

    def wrap(self, fn):
        def counted(obj, x):
            if self._depth == 0:
                self.points += np.size(x)
            self._depth += 1
            try:
                return fn(obj, x)
            finally:
                self._depth -= 1
        return counted


@pytest.mark.parametrize("name", ["exp3", "beta2", "tent"])
def test_average_ppf_evaluation_count(name, monkeypatch):
    comps = [c.cdf_obj for c in AVERAGES[name]]
    G = AverageCdf(comps)
    counter = _Counter()
    for cls in {type(c) for c in comps}:
        for meth in ("cdf", "sf"):
            monkeypatch.setattr(cls, meth, counter.wrap(getattr(cls, meth)))
    u = np.random.default_rng(3).random(100_000)
    G.ppf(u)
    per_point = counter.points / (u.size * len(comps))
    assert per_point <= 8.0, per_point


def test_newton_level_cap_returns_bracket_hi():
    # one evaluation at the midpoint 0.5 lands above the level 0.3 and
    # leaves the bracket (0, 0.5]; a point cut off there gets its hi
    from maxentos.cdfs import _newton_level
    ident = lambda x: x
    one = lambda x: np.ones_like(x)
    assert _newton_level(ident, one, np.array([0.3]), 0.0, 1.0, iters=1)[0] == 0.5
    assert _newton_level(ident, one, np.array([0.3]), 0.0, 1.0)[0] == 0.3


@pytest.mark.parametrize("u", [np.linspace(0.01, 0.99, 99), np.array([1.0])])
def test_composed_ppf_solves_g_inverse_once_per_iterate(u, monkeypatch):
    # a Newton iterate reads the cdf and the pdf at one x, both from one
    # G^{-1} solve, and lands where separate reads of the two land
    comps = [ExponentialCdf(r) for r in (3.0, 2.0, 1.0)]
    F = ComposedDeltaCdf(comps[0], AverageCdf(comps))
    expect = cdfs._newton_level(F.cdf, F.pdf, u, 0.0, 1.0)
    solves, iterates, outer = [], [], []
    solve, newton = AverageCdf._solve_levels, cdfs._newton_level
    monkeypatch.setattr(AverageCdf, "_solve_levels",
                        lambda self, v: (solves.append(1), solve(self, v))[1])

    def counted(cdf_vec, pdf_vec, *args, **kwargs):
        # the iterates of the outer solve only: G^{-1} runs a Newton too
        if outer:
            return newton(cdf_vec, pdf_vec, *args, **kwargs)
        outer.append(1)
        try:
            return newton(lambda x: (iterates.append(1), cdf_vec(x))[1], pdf_vec,
                          *args, **kwargs)
        finally:
            outer.pop()

    monkeypatch.setattr(cdfs, "_newton_level", counted)
    got = F.ppf(u)
    np.testing.assert_array_equal(got, expect)
    assert len(iterates) > 0 and len(solves) == len(iterates)


def _exp3_components():
    comps = [ExponentialCdf(r) for r in (3.0, 2.0, 1.0)]
    G = AverageCdf(comps)
    return [ComposedDeltaCdf(c, G) for c in comps]


def test_composed_ppf_at_one_is_where_cdf_first_reads_one(monkeypatch):
    # the first two components read 1 on a stretch below t = 1: a probe
    # that lands on it again bisects, so the point ends where the cdf,
    # rounded, first reaches 1, and does not creep down the stretch a few
    # ulps per G^{-1} solve for all 100 iterations
    solves = []
    solve = AverageCdf._solve_levels
    monkeypatch.setattr(AverageCdf, "_solve_levels",
                        lambda self, v: (solves.append(1), solve(self, v))[1])
    for F in _exp3_components():
        solves.clear()
        r = F.ppf(1.0)
        assert len(solves) <= 64
        assert F.cdf(r) == 1.0 and F.cdf(np.nextafter(r, 0.0)) < 1.0


# F.ppf at 0.1, 0.5, 0.9 and 0.99 before flat stretches were bisected; each
# of these solves settles through a probe that falls below the level
_PROBE_BELOW_BITS = (
    ("0x1.144341ff27d39p-4", "0x1.6f63eeb78bf7ap-2", "0x1.7af2a74b23d4ep-1",
     "0x1.d19a488f6923fp-1"),
    ("0x1.96306484107f6p-4", "0x1.eb4b6eed61988p-2", "0x1.b3911c794e18ap-1",
     "0x1.ed0e560418938p-1"),
    ("0x1.7ef9db22d0e57p-3", "0x1.6aaaaaaaaaaabp-1", "0x1.ed0e560418937p-1",
     "0x1.fe46ae3a3a8e7p-1"),
)


def test_composed_ppf_keeps_bits_where_probe_falls_below():
    u = np.array([0.1, 0.5, 0.9, 0.99])
    for F, bits in zip(_exp3_components(), _PROBE_BELOW_BITS):
        assert [x.hex() for x in F.ppf(u)] == list(bits)


# beta2 levels where one float step below the root moves G by less than an
# ulp of the level, so the rounded G reads the level over a few ulps; the
# inverse is where it first does (the values G^{-1} gave before the stretch
# was told from a true plateau)
_ROUNDING_STRETCH_BITS = ((0.31895045615400885, "0x1.d7af943402795p-3"),
                          (0.33772838245894776, "0x1.f62732d76001bp-3"))


@pytest.mark.parametrize("level, bits", _ROUNDING_STRETCH_BITS)
def test_rounding_stretch_gives_its_left_end(level, bits):
    G = AverageCdf([BetaOneKCdf(2), BetaOneKCdf(1)])
    x = G.ppf(np.array([level]))[0]
    assert x.hex() == bits
    assert G.cdf(x) >= level > G.cdf(np.nextafter(x, 0.0))


@pytest.mark.parametrize("name", ["beta2", "exp3"])
def test_newton_level_iterations_on_rounding_stretches(name, monkeypatch):
    # a stretch that is only rounding is probed a plateau width below, not
    # bisected from a far bracket end: with 2 such levels among them (beta2),
    # the lower half of 20,000 levels took 30 evaluations, and 31 on exp3
    G = AverageCdf([c.cdf_obj for c in AVERAGES[name]])
    evaluations = []
    newton = cdfs._newton_level

    def counted(cdf_vec, *args, **kwargs):
        evaluations.append(0)

        def cdf(x):
            evaluations[-1] += 1
            return cdf_vec(x)
        return newton(cdf, *args, **kwargs)

    monkeypatch.setattr(cdfs, "_newton_level", counted)
    u = np.random.default_rng(1).random(20_000)
    if name == "beta2":
        assert all(level in u for level, _ in _ROUNDING_STRETCH_BITS)
    x = G.ppf(u)
    assert np.all(np.isfinite(x))
    assert len(evaluations) == 2 and max(evaluations) <= 12, evaluations
