import math

import numpy as np
import pytest

from maxentos.cdfs import BetaOneKCdf, ExponentialCdf, OrderStatUniformCdf
from maxentos.hazards import ExpPairHazard, pair_hazard


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


@pytest.mark.parametrize("fp, fc, s_hi", [
    (ExponentialCdf(3.0), ExponentialCdf(2.0), 2.0),
    (BetaOneKCdf(5), BetaOneKCdf(4), 0.95),
    (BetaOneKCdf(2), BetaOneKCdf(1), 0.95),
    (OrderStatUniformCdf(3, 1), OrderStatUniformCdf(3, 2), 0.95),
], ids=["exp", "beta54", "beta21", "order_stat"])
def test_solve_tail_roundtrip(fp, fc, s_hi):
    hz = pair_hazard(fp, fc)
    rng = np.random.default_rng(7)
    s = rng.uniform(0.05, s_hi, 64)
    target = rng.uniform(0.01, 5.0, 64)
    t = np.asarray(hz.solve_tail(s, target), dtype=float)
    assert np.all(t > s)
    got = np.asarray(hz.theta(t), dtype=float) - np.asarray(
        hz.theta(s), dtype=float)
    assert np.allclose(got, target, rtol=1e-8, atol=1e-10)


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
