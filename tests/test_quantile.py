"""G^{-1} for averages of CDFs: a 50-digit oracle and the solver's work."""

import threading
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxentos import MarginalVector, average_cdf, cdfs, multidiagonal_from_marginals
from maxentos.cdfs import (AverageCdf, BetaOneKCdf, ComposedDeltaCdf,
                           ExponentialCdf, OrderStatUniformCdf, PiecewiseLinearCdf)
from maxentos.errors import RootBracketFailure
from maxentos.hazards import TableHazard, _cdf_gap_terms
from maxentos.marginals import _excess

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


def _count_reads(monkeypatch):
    """[calls, levels, points]: the calls of _newton_level, the levels
    handed to it and the points its read sees, summed from now on."""
    counts = [0, 0, 0]
    newton = cdfs._newton_level

    def counted(read, targets, *args):
        counts[0] += 1
        counts[1] += np.size(targets)

        def counted_read(x, idx):
            counts[2] += np.size(x)
            return read(x, idx)
        return newton(counted_read, targets, *args)

    monkeypatch.setattr(cdfs, "_newton_level", counted)
    return counts


@pytest.mark.parametrize("name", ["exp3", "beta2", "tent"])
def test_average_ppf_evaluation_count(name, monkeypatch):
    # reads per level: every read evaluates each component once per point
    G = AverageCdf([c.cdf_obj for c in AVERAGES[name]])
    counts = _count_reads(monkeypatch)
    u = np.random.default_rng(3).random(100_000)
    G.ppf(u)
    assert counts[:2] == [1, np.unique(u).size]
    per_level = counts[2] / counts[1]
    assert 1.0 <= per_level <= 8.0, per_level


def test_newton_level_raises_at_the_cap(monkeypatch):
    # one read at the midpoint 0.5 lands above the level 0.3 and leaves
    # the bracket (0, 0.5] open: a point still moving at the cap raises
    ident = lambda x, _: (x, np.ones_like(x))
    assert cdfs._newton_level(ident, np.array([0.3]), 0.0, 1.0)[0] == 0.3
    monkeypatch.setattr(cdfs, "_NEWTON_READS", 1)
    with pytest.raises(RootBracketFailure):
        cdfs._newton_level(ident, np.array([0.3]), 0.0, 1.0)


@pytest.mark.parametrize("u", [np.linspace(0.01, 0.99, 99), np.array([1.0])])
def test_composed_ppf_solves_g_inverse_once_per_iterate(u, monkeypatch):
    # a Newton iterate reads the cdf and the pdf at one x, both from one
    # G^{-1} solve, and lands where separate reads of the two land
    comps = [ExponentialCdf(r) for r in (3.0, 2.0, 1.0)]
    # the reference on a G of its own, whose kept levels F does not see
    ref = ComposedDeltaCdf(comps[0], AverageCdf(comps))
    expect = cdfs._newton_level(lambda x, _: (ref.cdf(x), ref.pdf(x)), u, 0.0, 1.0)
    F = ComposedDeltaCdf(comps[0], AverageCdf(comps))
    solves, iterates, outer = [], [], []
    solve, newton = AverageCdf._solve_levels, cdfs._newton_level
    monkeypatch.setattr(AverageCdf, "_solve_levels",
                        lambda self, v: (solves.append(1), solve(self, v))[1])

    def counted(read, *args, **kwargs):
        # the iterates of the outer solve only: G^{-1} runs a Newton too
        if outer:
            return newton(read, *args, **kwargs)
        outer.append(1)
        try:
            return newton(lambda x, idx: (iterates.append(1), read(x, idx))[1],
                          *args, **kwargs)
        finally:
            outer.pop()

    monkeypatch.setattr(cdfs, "_newton_level", counted)
    got = F.ppf(u)
    np.testing.assert_array_equal(got, expect)
    assert len(iterates) > 0 and len(solves) == len(iterates)


def _solver_reads(F, u, x):
    """What the root solver compares at x, and the level it compares with:
    G^{-1} reads G's cdf against u up to 1/2 and its -sf against -(1 - u)
    above; a delta_i reads its cdf."""
    if isinstance(F, AverageCdf):
        low = u <= 0.5
        return np.where(low, F.cdf(x), -F.sf(x)), np.where(low, u, -(1.0 - u))
    return F.cdf(x), u


def _assert_left_ends(F, u, x):
    """x = inf{s : F(s) >= u} to the float, on the function the solver
    reads: F(x) >= u > F(the float below x)."""
    value, level = _solver_reads(F, u, x)
    below, _ = _solver_reads(F, u, np.nextafter(x, -np.inf))
    miss = ~((value >= level) & (level > below))
    assert not miss.any(), (u[miss], x[miss])


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


# F.ppf at 0.1, 0.5, 0.9 and 0.99: left ends, where a solver that settles on
# an unread Newton estimate lands a float or two off at five of the twelve
_EXP3_DELTA_BITS = (
    ("0x1.144341ff27d38p-4", "0x1.6f63eeb78bf7cp-2", "0x1.7af2a74b23d4dp-1",
     "0x1.d19a488f6923fp-1"),
    ("0x1.96306484107f6p-4", "0x1.eb4b6eed61989p-2", "0x1.b3911c794e18ap-1",
     "0x1.ed0e560418937p-1"),
    ("0x1.7ef9db22d0e58p-3", "0x1.6aaaaaaaaaaabp-1", "0x1.ed0e560418938p-1",
     "0x1.fe46ae3a3a8e7p-1"),
)


def test_composed_ppf_settles_at_left_ends():
    u = np.array([0.1, 0.5, 0.9, 0.99])
    for F, bits in zip(_exp3_components(), _EXP3_DELTA_BITS):
        x = F.ppf(u)
        assert [v.hex() for v in x] == list(bits)
        _assert_left_ends(F, u, x)


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
    # the lower half of 20,000 levels took 30 evaluations, and 31 on exp3;
    # both halves run in one solve
    G = AverageCdf([c.cdf_obj for c in AVERAGES[name]])
    evaluations = []
    newton = cdfs._newton_level

    def counted(cdf_vec, *args, **kwargs):
        evaluations.append(0)

        def cdf(x, idx):
            evaluations[-1] += 1
            return cdf_vec(x, idx)
        return newton(cdf, *args, **kwargs)

    monkeypatch.setattr(cdfs, "_newton_level", counted)
    u = np.random.default_rng(1).random(20_000)
    if name == "beta2":
        assert all(level in u for level, _ in _ROUNDING_STRETCH_BITS)
    x = G.ppf(u)
    assert np.all(np.isfinite(x))
    assert len(evaluations) == 1 and max(evaluations) <= 12, evaluations


# -- bits of every root solve ------------------------------------------------

_PIN_VECTORS = {
    "exp3": tuple(ExponentialCdf(r) for r in (3.0, 2.0, 1.0)),
    "beta2": (BetaOneKCdf(2), BetaOneKCdf(1)),
    "tent": tuple(PiecewiseLinearCdf(k) for k in TENT),
    "beta3_exp1": (BetaOneKCdf(3), ExponentialCdf(1.0)),
}
_PIN_LEVELS = (1e-300, 1e-100, 1e-16, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99,
               1.0 - 1e-16, 1.0)
# per vector, G^{-1} and then each component delta_i's ppf at _PIN_LEVELS;
# at 1e-300 and 1e-100 each delta_i's bracket [0, 1] spans hundreds of
# binades, which bisection on the float ordering crosses in a few dozen reads
_ROOT_BITS = {
    "exp3": (
        ("0x1.56e1fc2f8f359p-998", "0x1.bff2ee48e0530p-334", "0x1.cd2b297d889bcp-55",
         "0x1.499b0e8417041p-8", "0x1.b369b1bc1859bp-5", "0x1.2dfeb7a952cfbp-3",
         "0x1.79df78456dfaap-2", "0x1.95f55026a4bcdp-1", "0x1.74e0bf4da5497p+0",
         "0x1.c49eaf95181b0p+1", "0x1.1d1b02751cfe2p+5", "inf"),
        ("0x1.c92d503f699ccp-998", "0x1.2aa1f430958cap-333", "0x1.33721ba905bd2p-54",
         "0x1.b56501f5f6144p-8", "0x1.144341ff27d38p-4", "0x1.603a2d4eae6b2p-3",
         "0x1.6f63eeb78bf7cp-2", "0x1.2617491469cc7p-1", "0x1.7af2a74b23d4dp-1",
         "0x1.d19a488f6923fp-1", "0x1.ffffc276b3b7dp-1", "0x1.ffffd5554aaabp-1"),
        ("0x1.56e1fc2f8f359p-997", "0x1.bff2ee48e0530p-333", "0x1.cd2b297d889bcp-54",
         "0x1.47682ce55a582p-7", "0x1.96306484107f6p-4", "0x1.f56368c874d1ep-3",
         "0x1.eb4b6eed61989p-2", "0x1.6aaaaaaaaaaabp-1", "0x1.b3911c794e18ap-1",
         "0x1.ed0e560418937p-1", "0x1.ffffffdb0cb17p-1", "0x1.ffffffeaaaaabp-1"),
        ("0x1.56e1fc2f8f359p-996", "0x1.bff2ee48e0530p-332", "0x1.cd2b297d889bap-53",
         "0x1.45803cd141a69p-6", "0x1.7ef9db22d0e58p-3", "0x1.b000000000001p-2",
         "0x1.6aaaaaaaaaaabp-1", "0x1.c800000000000p-1", "0x1.ed0e560418938p-1",
         "0x1.fe46ae3a3a8e7p-1", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ),
    "beta2": (
        ("0x1.c92d503f699ccp-998", "0x1.2aa1f430958cbp-333", "0x1.33721ba905bd3p-54",
         "0x1.b5e1c4d43464bp-8", "0x1.176ba565326dcp-4", "0x1.6ac02b16838b2p-3",
         "0x1.8722191a02d61p-2", "0x1.4498517a7b356p-1", "0x1.a88a3abb00d9ep-1",
         "0x1.f5f4fdafe3867p-1", "0x1.fffffffffffffp-1", "0x1.0000000000000p+0"),
        ("0x1.01297d23ab683p-997", "0x1.4ff632b6a83e4p-333", "0x1.59e05f1e2674dp-54",
         "0x1.ebee8153feb41p-8", "0x1.35e587f1b1674p-4", "0x1.8930a2f4f66abp-3",
         "0x1.95f619980c433p-2", "0x1.4000000000001p-1", "0x1.957218dd45422p-1",
         "0x1.e3d70a3d70a3cp-1", "0x1.ffffffc8930a2p-1", "0x1.ffffffe000000p-1"),
        ("0x1.01297d23ab683p-996", "0x1.4ff632b6a83e4p-332", "0x1.59e05f1e2674dp-53",
         "0x1.e9e1b089a0275p-7", "0x1.28f5c28f5c290p-3", "0x1.6000000000000p-2",
         "0x1.4000000000001p-1", "0x1.b000000000000p-1", "0x1.e3d70a3d70a3dp-1",
         "0x1.fd6a161e4f766p-1", "0x1.fffffffffffffp-1", "0x1.0000000000000p+0"),
    ),
    "tent": (
        ("0x1.56e1fc2f8f359p-997", "0x1.bff2ee48e0530p-333", "0x1.cd2b297d889bcp-54",
         "0x1.47ae147ae147bp-7", "0x1.999999999999ap-4", "0x1.0000000000000p-2",
         "0x1.0000000000000p-1", "0x1.8000000000000p-1", "0x1.ccccccccccccdp-1",
         "0x1.fae147ae147aep-1", "0x1.fffffffffffffp-1", "0x1.0000000000000p+0"),
        ("0x1.c92d503f699ccp-998", "0x1.2aa1f430958cbp-333", "0x1.33721ba905bd3p-54",
         "0x1.b4e81b4e81b4fp-8", "0x1.1111111111111p-4", "0x1.5555555555555p-3",
         "0x1.5555555555555p-2", "0x1.0000000000000p-1", "0x1.999999999999ap-1",
         "0x1.f5c28f5c28f5bp-1", "0x1.ffffffffffffep-1", "0x1.fffffffffffffp-1"),
        ("0x1.56e1fc2f8f359p-996", "0x1.bff2ee48e0530p-332", "0x1.cd2b297d889bcp-53",
         "0x1.47ae147ae147bp-6", "0x1.999999999999ap-3", "0x1.0000000000000p-1",
         "0x1.5555555555556p-1", "0x1.aaaaaaaaaaaabp-1", "0x1.ddddddddddddep-1",
         "0x1.fc962fc962fc9p-1", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ),
    "beta3_exp1": (
        ("0x1.56e1fc2f8f359p-998", "0x1.bff2ee48e0530p-334", "0x1.cd2b297d889bcp-55",
         "0x1.491fb40825c6fp-8", "0x1.ace82931831b6p-5", "0x1.2251179dbca1fp-3",
         "0x1.5bc9b85ea0bf7p-2", "0x1.76ed69f9d5c75p-1", "0x1.9c041f7ed8d35p+0",
         "0x1.f4bd2b7ac1baep+1", "0x1.205966f2b4f13p+5", "inf"),
        ("0x1.c92d503f699ccp-998", "0x1.2aa1f430958cbp-333", "0x1.33721ba905bd3p-54",
         "0x1.b516f87c55c9dp-8", "0x1.1245a740163fap-4", "0x1.597b1a05785b6p-3",
         "0x1.5f71361b4e181p-2", "0x1.0f2dd26347817p-1", "0x1.50983f77cdd61p-1",
         "0x1.889f1eb7da62cp-1", "0x1.a1d2853259a1fp-1", "0x1.a1d28f9bf31b9p-1"),
        ("0x1.56e1fc2f8f359p-996", "0x1.bff2ee48e0530p-332", "0x1.cd2b297d889bbp-53",
         "0x1.46716647a98f3p-6", "0x1.8929d3df6bb8dp-3", "0x1.c6f2ed81460ddp-2",
         "0x1.789a7a72620e0p-1", "0x1.c000000000000p-1", "0x1.e666666666667p-1",
         "0x1.fd70a3d70a3d7p-1", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ),
}


@pytest.mark.parametrize("name", sorted(_ROOT_BITS))
def test_root_solves_keep_their_bits(name):
    # every pin solved by Newton is its level's left end: G^{-1}(1) alone
    # is read off the components' tops
    F = MarginalVector(_PIN_VECTORS[name])
    u = np.array(_PIN_LEVELS)
    G = average_cdf(F)
    g_bits, *delta_bits = _ROOT_BITS[name]
    x = G.ppf(u)
    assert [v.hex() for v in x] == list(g_bits)
    _assert_left_ends(G, u[:-1], x[:-1])
    for c, bits in zip(multidiagonal_from_marginals(F).components, delta_bits, strict=True):
        x = c.ppf(u)
        assert [v.hex() for v in x] == list(bits)
        _assert_left_ends(c, u, x)


@pytest.mark.parametrize("name", sorted(_ROOT_BITS))
def test_tiny_roots_lie_within_a_float_of_their_level(name):
    # the pinned delta_i roots, down to 1e-300 and 1e-100: one float each
    # side brackets the level, where the old solves read F 1e-67 to 1e-30
    # at those two
    comps = multidiagonal_from_marginals(MarginalVector(_PIN_VECTORS[name])).components
    u = np.array(_PIN_LEVELS)
    for c in comps:
        x = c.ppf(u)
        assert np.all(c.cdf(np.nextafter(x, -np.inf)) < u)
        assert np.all(u <= c.cdf(np.nextafter(x, np.inf)))


@pytest.mark.parametrize("name", sorted(_PIN_VECTORS))
def test_roots_are_left_ends_at_random_levels(name):
    # 2,000 levels of G^{-1} and 500 of each delta_i's ppf; a solver that
    # settles on an unread Newton estimate lands below the level or right
    # of the left end at about a third of these levels (of G's none on
    # tent)
    rng = np.random.default_rng(29)
    F = MarginalVector(_PIN_VECTORS[name])
    G = average_cdf(F)
    u = rng.random(2000)
    _assert_left_ends(G, u, G.ppf(u))
    for c in multidiagonal_from_marginals(F).components:
        u = rng.random(500)
        _assert_left_ends(c, u, c.ppf(u))


def _tail_reaches(hz, s, target, monkeypatch):
    """hz.solve_tail(s, target) on a segment hazard, and per point solved
    inside its segment the rise the solver reads at its root and one float
    below, with the level w that rise must reach."""
    calls = []
    reach = type(hz)._reach

    def recorded(self, k, w):
        calls.append((k, w, reach(self, k, w)))
        return calls[-1][2]

    monkeypatch.setattr(type(hz), "_reach", recorded)
    out = hz.solve_tail(s, target)
    (k, w, t), = calls
    inside = w < hz._top[k] - hz._C[k]
    rise = lambda x: hz._rise(np.searchsorted(hz._x0, x) - 1, x)
    return out, rise(t)[inside], rise(np.nextafter(t, -np.inf))[inside], w[inside]


def test_table_tail_solves_are_left_ends(monkeypatch):
    # theta(t) - theta(s) >= target > theta(float below t) - theta(s) as the
    # solver reads it: the rise into t's segment against theta(s) + target
    # less the segment's start value.  The sums C_k + rise and theta(s) +
    # target round apart, so the theta differences themselves can miss the
    # target by an ulp either way
    hz = MarginalVector(_PIN_VECTORS["beta3_exp1"]).pairs[0].hazard
    assert isinstance(hz, TableHazard)
    rng = np.random.default_rng(29)
    s = np.concatenate([3.0 * rng.random(1000), 30.0 * rng.random(1000)])
    _, at, below, w = _tail_reaches(hz, s, rng.exponential(size=s.size), monkeypatch)
    assert w.size >= 1990
    assert np.all(at >= w) and np.all(w > below)


def test_table_tail_and_separation_crossings_keep_their_bits(monkeypatch):
    hz = MarginalVector(_PIN_VECTORS["beta3_exp1"]).pairs[0].hazard
    assert isinstance(hz, TableHazard)
    s = np.array([1e-9, 0.1, 0.5, 1.0, 2.0, 5.0])
    t, at, below, w = _tail_reaches(hz, s, 0.7, monkeypatch)
    assert [x.hex() for x in t] == [
        "0x1.16abd50baf699p-28", "0x1.793f480ab1561p-2", "0x1.2ad8ad5405283p+0",
        "0x1.b33333333332ep+0", "0x1.5999999999997p+1", "0x1.6ccccccccccccp+2"]
    assert w.size == s.size and np.all(at >= w) and np.all(w > below)
    # the knot-touch pair's two solved crossings, either side of the knot
    # 1/2: the first x where the excess gap, rounded, falls to 0 (d0) and
    # rises from it (g1)
    fp, fc = BetaOneKCdf(2), PiecewiseLinearCdf(TENT[0])
    (_, d0), (g1, _) = MarginalVector((fp, fc)).pairs[0].psi
    assert (d0.hex(), g1.hex()) == ("0x1.fffffffffffe0p-2", "0x1.0000000000010p-1")
    for x, sign in ((d0, -1.0), (g1, 1.0)):
        excess = sign * _excess(*_cdf_gap_terms(fp, fc, np.array([x, np.nextafter(x, 0.0)])))
        assert excess[0] >= 0.0 > excess[1]


def test_g_inverse_reads_no_top_below_one(monkeypatch):
    # G(s) = 1 only where every component reaches 1: that end is read only
    # when some level is 1
    tops = []
    ppf = ExponentialCdf.ppf
    monkeypatch.setattr(ExponentialCdf, "ppf", lambda self, u: (
        tops.extend(np.atleast_1d(u)[np.atleast_1d(u) == 1.0]), ppf(self, u))[1])
    G = AverageCdf([ExponentialCdf(r) for r in (3.0, 2.0, 1.0)])
    G.ppf(np.array([0.1, 0.5, 0.9, 1.0 - 1e-16]))
    assert tops == []
    assert G.ppf(np.array([0.5, 1.0]))[1] == np.inf
    assert len(tops) == 3


def _order_stat_inverse(d, i, u):
    """The root t of I_t(i, d-i+1) = sum_{k>=i} C(d, k) t^k (1-t)^(d-k) = u,
    by Newton at 50 digits from its leading term (u / C(d, i))^(1/i)."""
    with mp.workdps(50):
        u = mp.mpf(u)
        t = (u / mp.binomial(d, i)) ** (mp.mpf(1) / i)
        for _ in range(40):
            value = sum(mp.binomial(d, k) * t ** k * (1 - t) ** (d - k) for k in range(i, d + 1))
            slope = i * mp.binomial(d, i) * t ** (i - 1) * (1 - t) ** (d - i)
            t -= (value - u) / slope
        return t


@pytest.mark.parametrize("u", [1e-100, 1e-200, 1e-300])
def test_order_stat_quantile_at_tiny_levels(u):
    # betaincinv reads NaN at some of these levels; the leading term of
    # I_t inverts them
    comps = [OrderStatUniformCdf(5, i) for i in range(1, 6)]
    for i, comp in enumerate(comps, start=1):
        t = comp.ppf(u)
        assert np.isfinite(t)
        expect = _order_stat_inverse(5, i, u)
        assert abs(t - expect) <= 1e-13 * expect, (i, u)
    # G is the identity on [0, 1], and its inverse is too
    x = AverageCdf(comps).ppf(np.array([u]))[0]
    assert abs(x - u) <= 1e-13 * u


# -- the memo of solved levels -----------------------------------------------


def _memo_levels():
    """Random levels and the edge classes: tiny, next to 1, exactly 1, NaN."""
    rng = np.random.default_rng(11)
    return np.concatenate([rng.random(2_000),
                           [5e-324, 1e-300, 1.0 - 2.0 ** -53, 1.0, np.nan]])


def _assert_kept_store(G):
    """The store holds strictly increasing levels, no NaN, one root each."""
    known, roots = G._solved
    assert known.size == roots.size
    assert not np.isnan(known).any() and np.all(np.diff(known) > 0.0)


@pytest.mark.parametrize("name", sorted(_PIN_VECTORS))
def test_kept_roots_are_fresh_solves(name, monkeypatch):
    comps = _PIN_VECTORS[name]
    u = _memo_levels()
    G = AverageCdf(comps)
    first = G.ppf(u)
    _assert_kept_store(G)
    assert G._solved[0].size == u.size - 1
    # the same levels again, shuffled and repeated: all kept, no solve
    counts = _count_reads(monkeypatch)
    again = np.concatenate([u[np.random.default_rng(12).permutation(u.size)], u[:50]])
    x = G.ppf(again)
    assert counts == [0, 0, 0]
    # a fresh G solves them in another batch, and a few one at a time
    monkeypatch.undo()
    assert x.tobytes() == AverageCdf(comps).ppf(again).tobytes()
    assert first.tobytes() == AverageCdf(comps).ppf(u).tobytes()
    for v, kept in zip(u[-25:], first[-25:]):
        assert AverageCdf(comps).ppf(np.array([v])).tobytes() == np.array([kept]).tobytes()
    # a NaN that reaches the lookup is solved to NaN and not kept
    got = G._quantile(np.array([np.nan, u[0]]))
    assert np.isnan(got[0]) and got[1] == first[0]
    _assert_kept_store(G)


def test_kept_levels_stop_at_the_cap(monkeypatch):
    monkeypatch.setattr(cdfs, "_MEMO_LEVELS", 100)
    comps = _PIN_VECTORS["exp3"]
    G = AverageCdf(comps)
    rng = np.random.default_rng(13)
    for n in (60, 60, 500):
        u = rng.random(n)
        assert G.ppf(u).tobytes() == AverageCdf(comps).ppf(u).tobytes()
        _assert_kept_store(G)
        assert G._solved[0].size <= 100
    assert G._solved[0].size == 100
    known = G._solved[0]
    assert G.ppf(known).tobytes() == AverageCdf(comps).ppf(known).tobytes()


@pytest.mark.parametrize("name", sorted(_ROOT_BITS))
def test_threads_on_one_g_keep_the_pinned_bits(name):
    # two threads ask one G for the pinned levels and new ones, each round
    # reading the store while the other replaces it
    comps = _PIN_VECTORS[name]
    G = AverageCdf(comps)
    pins = np.array(_PIN_LEVELS)
    start = threading.Barrier(2)

    def work(seed):
        rng = np.random.default_rng(seed)
        start.wait()
        runs = []
        for _ in range(20):
            u = np.concatenate([pins, rng.random(300)])
            runs.append((u, G.ppf(u)))
        return runs

    with ThreadPoolExecutor(2) as pool:
        runs = [r for f in [pool.submit(work, s) for s in (1, 2)] for r in f.result()]
    for u, x in runs:
        assert [v.hex() for v in x[:pins.size]] == list(_ROOT_BITS[name][0])
    u = np.concatenate([u for u, _ in runs])
    x = np.concatenate([x for _, x in runs])
    assert x.tobytes() == AverageCdf(comps).ppf(u).tobytes()
    _assert_kept_store(G)
