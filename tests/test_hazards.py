import math

import mpmath
import numpy as np
import pytest

from maxentos import MarginalVector, build_model, f_F_density
from maxentos.cdfs import (BetaOneKCdf, ExponentialCdf, OrderStatUniformCdf,
                           PiecewiseLinearCdf)
from maxentos.errors import RootBracketFailure
from maxentos.hazards import (ExpPairHazard, PiecewisePairHazard, TableHazard,
                              pair_hazard)
from maxentos.verify import simplex_integral


def _pl(*knots):
    return PiecewiseLinearCdf(knots)


# piecewise-linear pairs: the tent; slopes equal only up to rounding on the
# middle segment; a flat stretch of F_cur; two separation intervals
PIECEWISE = {
    "tent": (_pl((0, 0), (0.5, 0.75), (1, 1)), _pl((0, 0), (0.5, 0.25), (1, 1))),
    "near_parallel": (_pl((0, 0), (0.2, 0.4), (0.6, 0.8), (1, 1)),
                      _pl((0, 0), (0.2, 0.2), (0.6, 0.6), (1, 1))),
    "flat_cur": (_pl((0, 0), (0.3, 0.6), (1, 1)),
                 _pl((0, 0), (0.3, 0.3), (0.5, 0.3), (1, 1))),
    "two_interval": (_pl((0, 0), (0.25, 0.5), (0.5, 0.5), (0.75, 0.9), (1, 1)),
                     _pl((0, 0), (0.5, 0.5), (1, 1))),
}


@pytest.fixture(scope="module")
def exp_pair():
    return ExpPairHazard(ExponentialCdf(3.0), ExponentialCdf(2.0))


def test_theta_matches_direct_form(exp_pair):
    # lam t + (lam/drop) log(1 - exp(-drop t)) is numerically fine on
    # moderate arguments; the branched evaluation must agree there,
    # including on drop*t between log 2 and 1 where a careless guard
    # once evaluated the wrong branch argument
    t = np.linspace(0.3, 3.0, 1500)
    lam, drop = 2.0, 1.0
    direct = lam * t + (lam / drop) * np.log(1.0 - np.exp(-drop * t))
    assert np.allclose(exp_pair.theta(t), direct, rtol=1e-13)


def test_theta_smooth_across_branch_switch(exp_pair):
    # second differences across drop*t = log 2 stay at the smooth scale
    h = 1e-3
    t = np.arange(0.6, 0.8, h)
    th = np.asarray(exp_pair.theta(t), dtype=float)
    second = np.abs(th[2:] - 2 * th[1:-1] + th[:-2])
    # h^2 * theta'' scale, with no isolated spike at the switch point
    assert second.max() < 1e-5
    assert second.max() < 3.0 * np.median(second)


def test_theta_tiny_argument(exp_pair):
    t = 1e-18
    # theta ~ lam t + (lam/drop) log(drop t) near zero
    expect = 2.0 * t + 2.0 * math.log(1.0 * t)
    assert exp_pair.theta(t) == pytest.approx(expect, rel=1e-12)
    assert np.isfinite(exp_pair.theta(np.array([1e-300]))[0])


def test_ell_matches_density_ratio(exp_pair):
    fp, fc = ExponentialCdf(3.0), ExponentialCdf(2.0)
    t = np.linspace(0.2, 4.0, 200)
    naive = np.asarray(fc.pdf(t), dtype=float) / (
        np.asarray(fp.cdf(t), dtype=float) - np.asarray(fc.cdf(t), dtype=float))
    assert np.allclose(exp_pair.ell(t), naive, rtol=1e-11)
    # near zero the ratio tends to lam / (drop t)
    t0 = 1e-300
    assert exp_pair.ell(t0) == pytest.approx(2.0 / t0, rel=1e-10)


@pytest.mark.parametrize("fp, fc, s_hi, force_table", [
    (ExponentialCdf(3.0), ExponentialCdf(2.0), 2.0, False),
    (BetaOneKCdf(5), BetaOneKCdf(4), 0.95, False),
    (BetaOneKCdf(2), BetaOneKCdf(1), 0.95, False),
    (OrderStatUniformCdf(3, 1), OrderStatUniformCdf(3, 2), 0.95, False),
    (*PIECEWISE["tent"], 0.95, False),
    (*PIECEWISE["near_parallel"], 0.95, False),
    (*PIECEWISE["flat_cur"], 0.95, False),
    (*PIECEWISE["two_interval"], 0.95, False),
    (BetaOneKCdf(3), ExponentialCdf(1.0), 2.0, False),
    (ExponentialCdf(3.0), ExponentialCdf(2.0), 2.0, True),
], ids=["exp", "beta54", "beta21", "order_stat", "tent", "near_parallel",
        "flat_cur", "two_interval", "beta3_exp1_table", "exp_forced_table"])
def test_solve_tail_roundtrip(fp, fc, s_hi, force_table):
    hz = pair_hazard(fp, fc, force_table=force_table)
    rng = np.random.default_rng(7)
    s = rng.uniform(0.05, s_hi, 64)
    target = rng.uniform(0.01, 5.0, 64)
    t = np.asarray(hz.solve_tail(s, target), dtype=float)
    assert np.all(t > s)
    got = np.asarray(hz.theta(t), dtype=float) - np.asarray(
        hz.theta(s), dtype=float)
    assert np.allclose(got, target, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("name", sorted(PIECEWISE))
def test_piecewise_solve_tail_at_zero_target_and_beyond_reach(name):
    hz = pair_hazard(*PIECEWISE[name])
    g, d = hz.psi.intervals[-1]
    s = np.array([g + 0.3 * (d - g), g + 0.7 * (d - g)])
    assert np.array_equal(hz.solve_tail(s, 0.0), s)
    far = hz.solve_tail(s, 1e6)
    assert np.all((far > s) & (far < d))


def _mp_piecewise(m: PiecewiseLinearCdf):
    xs = [mpmath.mpf(float(x)) for x in m.xs]
    Fs = [mpmath.mpf(float(F)) for F in m.Fs]

    def seg(t):
        return max(j for j in range(len(xs) - 1) if xs[j] <= t)

    def cdf(t):
        j = seg(t)
        return Fs[j] + (Fs[j + 1] - Fs[j]) * (t - xs[j]) / (xs[j + 1] - xs[j])

    def pdf(t):
        j = seg(t)
        return (Fs[j + 1] - Fs[j]) / (xs[j + 1] - xs[j])

    return cdf, pdf


@pytest.mark.parametrize("name", sorted(PIECEWISE))
def test_piecewise_theta_matches_mpmath_quadrature(name):
    fp, fc = PIECEWISE[name]
    hz = pair_hazard(fp, fc)
    assert isinstance(hz, PiecewisePairHazard)
    Fp, _ = _mp_piecewise(fp)
    Fc, fcd = _mp_piecewise(fc)
    knots = sorted({float(k) for k in (*fp.xs, *fc.xs)})
    mpmath.mp.dps = 30
    rng = np.random.default_rng(11)
    for g, d in hz.psi:
        pts = np.sort(rng.uniform(g + 0.02 * (d - g), d - 0.02 * (d - g), 8))
        s, t = pts[:4], pts[4:]
        got = np.asarray(hz.theta(t)) - np.asarray(hz.theta(s))
        for a, b, v in zip(s, t, got):
            cuts = [a, *(k for k in knots if a < k < b), b]
            ref = mpmath.quad(lambda x: fcd(x) / (Fp(x) - Fc(x)), cuts)
            assert abs(v - float(ref)) <= 1e-10 * max(1.0, abs(float(ref)))


def test_near_parallel_density_has_unit_mass():
    fp, fc = PIECEWISE["near_parallel"]
    model = build_model(MarginalVector((fp, fc)))
    mass = simplex_integral(lambda X: f_F_density(model, X), 2, 0.0, 1.0,
                            cuts=(0.2, 0.6))
    assert mass == pytest.approx(1.0, abs=1e-6)


def _counting(monkeypatch, cls, name):
    """Count the points passed to cls.name."""
    seen = [0]
    orig = getattr(cls, name)

    def counted(self, t):
        seen[0] += np.size(t)
        return orig(self, t)

    monkeypatch.setattr(cls, name, counted)
    return seen


def test_piecewise_tail_solve_reads_theta_once_per_row(monkeypatch):
    fp, fc = PIECEWISE["tent"]
    hz = pair_hazard(fp, fc)
    rng = np.random.default_rng(3)
    n = 5000
    s = np.asarray(fp.ppf(rng.random(n)), dtype=float)
    target = -np.log1p(-rng.random(n))
    seen = _counting(monkeypatch, PiecewisePairHazard, "theta")
    hz.solve_tail(s, target)
    assert seen[0] <= 2 * n


@pytest.mark.parametrize("fp, fc, force_table", [
    (BetaOneKCdf(3), ExponentialCdf(1.0), False),
    (ExponentialCdf(3.0), ExponentialCdf(2.0), True),
], ids=["beta3_exp1", "exp_forced"])
def test_table_tail_solve_work_per_row(monkeypatch, fp, fc, force_table):
    # the table reads its integrand, the hazard's ell, only when it is
    # built: the tail solve inverts the stored series
    seen = _counting(monkeypatch, TableHazard, "ell")
    hz = pair_hazard(fp, fc, force_table=force_table)
    assert isinstance(hz, TableHazard)
    rng = np.random.default_rng(4)
    n = 2000
    s = np.asarray(fp.ppf(rng.random(n)), dtype=float)
    target = -np.log1p(-rng.random(n))
    assert seen[0] > 0
    seen[0] = 0
    hz.solve_tail(s, target)
    assert seen[0] == 0


def test_table_route_matches_closed_exponential(exp_pair):
    table = pair_hazard(ExponentialCdf(3.0), ExponentialCdf(2.0),
                        force_table=True)
    t = np.linspace(0.05, 3.0, 400)
    anchor = np.full_like(t, 0.05)
    closed = np.asarray(exp_pair.theta(t)) - np.asarray(exp_pair.theta(anchor))
    tab = np.asarray(table.theta(t)) - np.asarray(table.theta(anchor))
    assert np.abs(closed - tab).max() <= 1e-8
    assert np.allclose(table.ell(t), exp_pair.ell(t), rtol=1e-7)


def test_table_route_matches_closed_beta():
    closed = pair_hazard(BetaOneKCdf(2), BetaOneKCdf(1))
    table = pair_hazard(BetaOneKCdf(2), BetaOneKCdf(1), force_table=True)
    t = np.linspace(0.05, 0.95, 300)
    anchor = np.full_like(t, 0.5)
    a = np.asarray(closed.theta(t)) - np.asarray(closed.theta(anchor))
    b = np.asarray(table.theta(t)) - np.asarray(table.theta(anchor))
    assert np.abs(a - b).max() <= 1e-8


def test_order_stat_pair_table_agreement():
    fp, fc = OrderStatUniformCdf(3, 1), OrderStatUniformCdf(3, 2)
    closed = pair_hazard(fp, fc)
    table = pair_hazard(fp, fc, force_table=True)
    t = np.linspace(0.05, 0.95, 300)
    anchor = np.full_like(t, 0.5)
    a = np.asarray(closed.theta(t)) - np.asarray(closed.theta(anchor))
    b = np.asarray(table.theta(t)) - np.asarray(table.theta(anchor))
    assert np.abs(a - b).max() <= 1e-7


def test_pair_hazard_picks_closed_forms():
    assert type(pair_hazard(ExponentialCdf(2.0), ExponentialCdf(1.0))).__name__ \
        == "ExpPairHazard"
    assert type(pair_hazard(BetaOneKCdf(2), BetaOneKCdf(1))).__name__ \
        == "BetaPairHazard"


# -- where the tail solve places its conditioning point --


def test_tail_solve_moves_a_closed_end_inside():
    # s = 1 is where a beta_1_k inverse rounds to 1: it lands 1e-12 of
    # (0, 1) inside, and solves as from there
    hz = pair_hazard(BetaOneKCdf(3), BetaOneKCdf(2))
    assert hz.solve_tail(1.0, 0.5)[0] == hz.solve_tail(1.0 - 1e-12, 0.5)[0] < 1.0


def test_tail_solve_from_the_start_of_an_unbounded_interval():
    # (0, inf) has no finite width: s = 0 moves 1e-12 of the slack's scale
    # 1 inside, not 1e-12 * inf
    hz = pair_hazard(ExponentialCdf(3.0), ExponentialCdf(2.0))
    t = hz.solve_tail(0.0, 0.5)[0]
    assert math.isfinite(t) and t > 0.0
    assert t == hz.solve_tail(1e-12, 0.5)[0]


def test_tail_solve_snaps_points_between_two_intervals():
    # the knot-touch pair: Psi = (0, d0) and (g1, 1), d0 and g1 2^-49 either
    # side of the knot 1/2, slack 1e-9 times the wider interval.  A point in
    # [d0, g1], or just past 1 or 0, lands in the nearest interval, 1e-12 of
    # its width inside, and the knot itself, at a tie, in the first
    hz = MarginalVector((BetaOneKCdf(2), PiecewiseLinearCdf(((0.0, 0.0), (0.5, 0.75),
                                                              (1.0, 1.0))))).pairs[0].hazard
    (_, d0), (g1, _) = hz.psi
    assert 0.5 - d0 == g1 - 0.5 == 2.0 ** -49
    s = np.array([d0, np.nextafter(d0, 1.0), 0.5, np.nextafter(g1, 0.0), g1,
                  1.0, 1.0 + 1e-10, 0.0, -4e-10])
    left, right = "0x1.fffffffffdcb1p-2", "0x1.00000000011a8p-1"
    top, bottom = "0x1.fffffffffee68p-1", "0x1.19799812de9ffp-41"
    # a zero target solves to the placed point itself
    assert [x.hex() for x in hz.solve_tail(s, 0.0)] == \
        [left, left, left, right, right, top, top, bottom, bottom]
    placed = np.array([float.fromhex(x) for x in (left, right, top, bottom)])
    assert np.array_equal(hz.solve_tail(s, 0.7)[[0, 3, 5, 7]], hz.solve_tail(placed, 0.7))


@pytest.mark.parametrize("s", [1.0 + 1e-8, -1e-3, 1.5, math.inf, math.nan])
def test_tail_solve_refuses_a_point_beyond_the_slack(s):
    hz = pair_hazard(BetaOneKCdf(3), BetaOneKCdf(2))
    with pytest.raises(RootBracketFailure):
        hz.solve_tail([0.3, s], 0.7)


def test_tail_solve_on_an_empty_separation_set_raises():
    # equal rates: the pair is separated nowhere
    hz = pair_hazard(ExponentialCdf(2.0), ExponentialCdf(2.0))
    assert hz.psi.is_empty
    with pytest.raises(RootBracketFailure):
        hz.solve_tail([0.5], 0.7)
