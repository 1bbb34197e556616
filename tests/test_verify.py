import itertools
import json
import math
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from maxentos import (MarginalVector, Multidiagonal, marginals,
                      multidiagonal_from_marginals, multidiagonal_of_iid_uniform,
                      run_full_verification)
from maxentos.cdfs import (AverageCdf, BetaOneKCdf, ExponentialCdf,
                           PiecewiseLinearCdf, UniformCdf)
from maxentos.copula import CopulaKernel, c_delta_density, copula_entropy_closed
from maxentos.errors import DimensionTooLarge
from maxentos.hazards import TableHazard, pair_hazard
from maxentos.verify import (_BLOCK, DEFAULT_NODES, _axis_panels,
                             _run_pattern_sum, ks_distance, mc_entropy,
                             quad_entropy, simplex_integral)


def test_axis_rule_integrates_polynomials():
    # at d = 1 the ordered rule is the graded composite rule on [0, 1]
    for k in range(0, 12):
        val = simplex_integral(lambda X: X[:, 0] ** k, 1, 0.0, 1.0, nodes=128)
        assert val == pytest.approx(1.0 / (k + 1), abs=1e-13)


def test_cube_and_simplex_integrals():
    assert simplex_integral(lambda X: np.ones(len(X)), 3, 0.0, 1.0) == \
        pytest.approx(1.0 / 6.0, abs=1e-10)
    assert simplex_integral(lambda X: np.ones(len(X)), 2, 0.0, 2.0) == \
        pytest.approx(2.0, abs=1e-10)
    with pytest.raises(DimensionTooLarge):
        simplex_integral(lambda X: np.ones(len(X)), 4, 0.0, 1.0)


def test_simplex_cuts_restore_accuracy_on_kinks():
    # |x - 0.5| has a kink; splitting there brings the panel rule back to
    # machine accuracy
    fn = lambda X: np.abs(X[:, 0] - 0.5) * np.abs(X[:, 1] - 0.5)
    exact = 0.5 * (1.0 / 4.0) ** 2  # exchangeable product, ordered half
    split = simplex_integral(fn, 2, 0.0, 1.0, nodes=64, cuts=[0.5])
    assert abs(split - exact) < 1e-12


def test_simplex_integral_peak_memory():
    # one chunk holds its points, the integrand's output and the weights;
    # the old point-by-point index arrays pushed this pass to 128 MB
    fn = lambda X: np.column_stack([np.ones(len(X)), X[:, 0]])
    tracemalloc.start()
    try:
        val = simplex_integral(fn, 3, 0.0, 1.0, nodes=128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(val, [1.0 / 6.0, 1.0 / 24.0], rtol=1e-12)
    assert peak <= 110e6


def test_simplex_integral_peak_memory_in_blocks():
    # a block of 1 << 15 points holds its points, the integrand's output
    # and the weights, a few MB in all
    fn = lambda X: np.column_stack([np.ones(len(X)), X[:, 0]])
    tracemalloc.start()
    try:
        val = simplex_integral(fn, 3, 0.0, 1.0, nodes=128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(val, [1.0 / 6.0, 1.0 / 24.0], rtol=1e-12)
    assert peak <= 16e6


def _substitution_reference(fn, cells, assign, pts, wts):
    # every point of the product rule (pts, wts on [0, 1] on each axis)
    # mapped on its own: x_i = a + (top - a) w_i, top the next coordinate
    # in the same cell or else the cell's end
    d = len(assign)
    idx = np.array(list(itertools.product(range(len(pts)), repeat=d)))
    W = pts[idx]
    w = np.prod(wts[idx], axis=1)
    X = np.empty_like(W)
    for i in reversed(range(d)):
        a, b = cells[assign[i]]
        top = X[:, i + 1] if i + 1 < d and assign[i + 1] == assign[i] else b
        X[:, i] = a + (top - a) * W[:, i]
        w = w * (top - a)
    return w @ fn(X)


def _unit_gauss(q):
    # q Gauss-Legendre nodes and weights on [0, 1]
    t, wt = leggauss(q)
    return 0.5 * (t + 1.0), 0.5 * wt


def _positive_columns(X):
    f = np.exp(-X.sum(axis=1)) * (1.0 + X[:, 0] * X[:, -1])
    return np.column_stack([f, 1.0 + X[:, 0] ** 2])


@pytest.mark.parametrize("assign", [(0,), (1,), (0, 1), (1, 1), (0, 0, 1),
                                    (0, 1, 1), (1, 1, 1), (0, 0, 0)])
def test_ordered_cells_match_pointwise_substitution(assign):
    # one nondecreasing assignment of the coordinates to two panels: runs
    # sharing a panel are ordered inside it, distinct panels decouple
    panels = [(-0.5, 0.25), (0.25, 1.5)]
    starts = np.array([a for a, _ in panels])
    widths = np.array([b - a for a, b in panels])
    runs = [len(list(run)) for _, run in itertools.groupby(assign)]
    choice = np.array([sorted(set(assign))])
    got = _run_pattern_sum(_positive_columns, runs, choice, starts, widths, 8)
    expect = _substitution_reference(_positive_columns, panels, assign, *_unit_gauss(8))
    np.testing.assert_allclose(got, expect, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_simplex_integral_sums_every_panel_assignment(d):
    # the graded panels of each cut cell, and the rule of every
    # nondecreasing assignment of the coordinates to them
    lo, hi, cuts, nodes = -0.5, 1.5, [0.25], 16
    unit, q = _axis_panels(nodes)
    cells = [(lo, 0.25), (0.25, hi)]
    edges = [a + (b - a) * u for a, b in cells for u in unit[:-1]] + [hi]
    panels = list(zip(edges[:-1], edges[1:]))
    expect = sum(_substitution_reference(_positive_columns, panels, assign, *_unit_gauss(q))
                 for assign in itertools.combinations_with_replacement(
                     range(len(panels)), d))
    got = simplex_integral(_positive_columns, d, lo, hi, nodes=nodes, cuts=cuts)
    np.testing.assert_allclose(got, expect, rtol=1e-13, atol=0.0)


def _graded_rule(nodes):
    # the graded composite Gauss-Legendre rule on [0, 1], point by point
    unit, q = _axis_panels(nodes)
    t, wt = _unit_gauss(q)
    a, h = unit[:-1, None], np.diff(unit)[:, None]
    return (a + h * t).ravel(), (h * wt).ravel()


def test_simplex_cuts_match_pointwise_substitution():
    # three cells from two cuts: the integral is the sum over every
    # nondecreasing assignment of coordinates to cells
    lo, hi, cuts = -0.5, 1.5, [0.25, 0.75]
    cells = list(zip([lo, *cuts], [*cuts, hi]))
    expect = sum(_substitution_reference(_positive_columns, cells, assign, *_graded_rule(16))
                 for assign in itertools.combinations_with_replacement(range(3), 3))
    got = simplex_integral(_positive_columns, 3, lo, hi, nodes=16, cuts=cuts)
    np.testing.assert_allclose(got, expect, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("d, nodes", [(1, None), (2, None), (3, 128)])
def test_integrand_calls_stay_within_a_block(d, nodes):
    # the ordered rule hands each call whole panel assignments of q^d
    # points, at most _BLOCK
    sizes = []

    def fn(X):
        sizes.append(len(X))
        return np.ones(len(X))

    unit, q = _axis_panels(nodes or DEFAULT_NODES[d])
    panels = 2 * (len(unit) - 1)  # the graded panels of both cells
    assert simplex_integral(fn, d, 0.0, 1.0, nodes, cuts=[0.5]) == \
        pytest.approx(1.0 / math.factorial(d), rel=1e-12)
    assert max(sizes) <= _BLOCK
    assert all(size % q ** d == 0 for size in sizes)
    assert sum(sizes) == q ** d * math.comb(panels + d - 1, d)


# (t, theta(t)) of the quadrature tables: six table nodes, where theta is
# the cumulative Gauss sum, then four points inside panels, where it adds
# the panel's series
_TABLE_THETA = {
    "beta3_exp1": (BetaOneKCdf(3), ExponentialCdf(1.0), [
        ("0x1.1adee3998d630p-34", "-0x1.b217f17e94954p+4"),
        ("0x1.14becbe75c0bfp-25", "-0x1.805cb08e400f5p+4"),
        ("0x1.028625be317c3p+3", "-0x1.01449139f0d34p+3"),
        ("0x1.01e55b7c11278p+4", "0x0.0p+0"),
        ("0x1.01e553060be02p+5", "0x1.01e54a9006990p+4"),
        ("0x1.01e55b7c0ef1cp+5", "0x1.01e55b7c0cbc4p+4"),
        ("0x1.a59019291e665p-32", "-0x1.a3cfb3fe191dcp+4"),
        ("0x1.8ac404d9cc792p-5", "-0x1.0e844fe891c0ap+4"),
        ("0x1.26299c5983911p+4", "0x1.222206eb934c8p+1"),
        ("0x1.01e55b7a70b00p+5", "0x1.01e55b78d038cp+4")]),
    "unif_exp1": (UniformCdf(0.0, 1.0), ExponentialCdf(1.0), [
        ("0x1.1adee3998d630p-34", "-0x1.cf5d1a5ebe5fep+34"),
        ("0x1.14becbe75c0bfp-25", "-0x1.d99e99e386400p+25"),
        ("0x1.028625be317c3p+3", "-0x1.0144400000000p+3"),
        ("0x1.01e55b7c11278p+4", "0x0.0p+0"),
        ("0x1.01e553060be02p+5", "0x1.01e5200000000p+4"),
        ("0x1.01e55b7c0ef1cp+5", "0x1.01e5300000000p+4"),
        ("0x1.a59019291e665p-32", "-0x1.36eb51bad9ff6p+32"),
        ("0x1.8ac404d9cc792p-5", "-0x1.975be3975bf72p+5"),
        ("0x1.26299c5983911p+4", "0x1.2221ab6f82250p+1"),
        ("0x1.01e55b7a70b00p+5", "0x1.01e5300114be6p+4")]),
}


def test_gauss_rules_keep_their_bits():
    # the hazard tables and the battery's ordered rule read one unit
    # Gauss-Legendre rule; the values below were taken with a copy of it
    # per caller
    for fp, fc, pins in _TABLE_THETA.values():
        hz = pair_hazard(fp, fc)
        assert isinstance(hz, TableHazard)
        t = np.array([float.fromhex(a) for a, _ in pins])
        assert [float(v).hex() for v in hz.theta(t)] == [b for _, b in pins]
    fn = lambda X: np.exp(-X.sum(axis=1)) * (1.0 + X[:, 0] * X[:, -1])
    for d, pin in [(1, "0x1.de699d1e5d7e1p+0"), (2, "0x1.0d3a9b69390b8p+0"),
                   (3, "0x1.b7b511ed4830ap-2")]:
        got = simplex_integral(fn, d, -0.5, 1.5, nodes=64, cuts=[0.25, 0.8])
        assert got.hex() == pin


def _shift_identity_cF_half(margins, monkeypatch):
    """The entropy_shift_identity verdict, and the c_F half's integrand,
    dimension, region and cuts as the check hands them to the ordered rule:
    its first simplex_integral call, on the marginal scale."""
    from maxentos import verify
    calls = []
    simplex = verify.simplex_integral

    def recorded(fn, d, *args, **kwargs):
        calls.append((fn, d, args, kwargs))
        return simplex(fn, d, *args, **kwargs)

    monkeypatch.setattr(verify, "simplex_integral", recorded)
    checks = dict(verify._marginal_checks(margins, seed=0, n_samples=500, grid=256))
    result = checks["entropy_shift_identity"]()
    monkeypatch.undo()
    assert len(calls) == 2
    return result, calls[0]


SHIFT_SUBJECTS = {
    "beta2": (BetaOneKCdf(2), BetaOneKCdf(1)),
    "beta3_exp1": (BetaOneKCdf(3), ExponentialCdf(1.0)),
    "tent": (PiecewiseLinearCdf(((0, 0), (0.5, 0.75), (1, 1))),
             PiecewiseLinearCdf(((0, 0), (0.5, 0.25), (1, 1)))),
}


@pytest.mark.parametrize("subject", sorted(SHIFT_SUBJECTS))
def test_shift_identity_cF_half_reads_few_levels(subject, monkeypatch):
    # the ordered rule's x1 column repeats a few nodes per panel, and the
    # half maps each through F_1 once, so c_F sees a few thousand u1
    # levels; a fresh inner rule per outer node of a curved-region rule
    # sent 282,140 (beta2) and 242,061 (beta3_exp1)
    margins = MarginalVector(SHIFT_SUBJECTS[subject])
    result, (fn, d, args, kwargs) = _shift_identity_cF_half(margins, monkeypatch)
    assert result.passed and result.value < 1e-8
    from maxentos import verify
    levels = []
    c_F = verify.c_F_density

    def counted(m, U, **kw):
        levels.append(U[:, 0].copy())
        return c_F(m, U, **kw)

    monkeypatch.setattr(verify, "c_F_density", counted)
    simplex_integral(fn, d, *args, **kwargs)
    assert np.unique(np.concatenate(levels)).size <= 20_000


def test_shift_identity_cF_half_peak_memory(beta2, monkeypatch):
    # blocks of at most _BLOCK points; one call on every point peaked at
    # 36.9 MB
    _, (fn, d, args, kwargs) = _shift_identity_cF_half(beta2, monkeypatch)
    tracemalloc.start()
    try:
        simplex_integral(fn, d, *args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def test_quad_entropy_constant_density():
    # density 2 on the ordered triangle of the unit square
    h = quad_entropy(lambda X: np.full(len(X), 2.0), 2, 0.0, 1.0)
    assert h == pytest.approx(-math.log(2.0), abs=1e-10)


def test_mc_entropy_zero_variance():
    samples = np.random.default_rng(0).random((500, 2))
    est, se = mc_entropy(lambda X: np.ones(len(X)), samples)
    assert est == 0.0 and se == 0.0


def test_ks_distance_detects_shift():
    u = (np.arange(2000) + 0.5) / 2000
    assert ks_distance(u, lambda s: s) < 1e-3
    assert ks_distance(u * 0.5, lambda s: s) > 0.4


DELTA_CHECKS = [
    "multidiagonal_class", "sum_identity", "lipschitz_bound", "j_delta_routes",
    "c_delta_normalization", "c_delta_symmetry", "c_delta_dual_route",
    "c_delta_vanishes_off_support", "BE_identity", "K_singular_growth",
    "kernel_tail_integral", "copula_sampler_recovery", "copula_entropy_quad",
    "component_entropy_bound"]


def test_battery_passes_on_smooth_example(beta2):
    rep = run_full_verification(beta2)
    assert rep.all_passed
    assert rep.subject_kind == "marginal_vector" and rep.d == 2
    names = [c.name for c in rep.checks]
    assert len(names) == len(set(names))
    assert names == [
        "stochastic_order", "degeneracy_class", "sigma_measure_zero",
        "delta_inverse_consistency", "j_transport", "j_routes", "j_lower_bound",
        *("delta_" + name for name in DELTA_CHECKS),
        "normalization_quad", "entropy_three_way", "sampler_marginal_ks",
        "f_vanishes_off_support", "cF_consistency", "product_form_locality",
        "entropy_shift_identity"]
    payload = json.loads(rep.to_json())
    assert payload["all_passed"] is True
    assert {"name", "status", "value", "tol", "detail"} <= set(payload["checks"][0])
    for check in payload["checks"]:
        assert {"name", "status", "value", "tol", "detail"} <= set(check)
        assert check["seconds"] >= 0.0


def test_battery_passes_on_exp3(exp3):
    # the d = 3 battery from margins: every check passes but the shift
    # identity, whose quadrature route is kept to d = 2 and skips
    rep = run_full_verification(exp3, n_samples=2000)
    assert rep.all_passed
    assert [c.name for c in rep.checks if c.passed is None] == ["entropy_shift_identity"]


def test_exp3_copula_pass_solves_few_levels(exp3_delta, monkeypatch):
    # the ordered rule's columns repeat a few levels per panel, so exp3's
    # c_delta mass and entropy pass solves G^{-1} on a few thousand levels
    from maxentos import verify
    kernel = CopulaKernel(exp3_delta)
    cuts = sorted({float(k) for comp in exp3_delta.components
                   for k in comp.knots() if 0.0 < float(k) < 1.0})
    levels = []
    solve = AverageCdf._solve_levels
    monkeypatch.setattr(AverageCdf, "_solve_levels",
                        lambda self, u: (levels.append(u.size), solve(self, u))[1])
    mass, ent = verify._mass_and_entropy(lambda U: c_delta_density(kernel, U),
                                         3, 0.0, 1.0, cuts, scale=6.0)()
    assert abs(mass - 1.0) <= 1e-7
    assert abs(ent - copula_entropy_closed(exp3_delta)) <= 1e-6
    assert sum(levels) <= 20_000


def test_battery_passes_on_iid_multidiagonal():
    rep = run_full_verification(multidiagonal_of_iid_uniform(3),
                                n_samples=2000, grid=512)
    assert rep.all_passed
    assert rep.subject_kind == "multidiagonal" and rep.d == 3
    assert [c.name for c in rep.checks] == DELTA_CHECKS


def test_battery_passes_on_piecewise_multidiagonal():
    tent = Multidiagonal((PiecewiseLinearCdf(((0, 0), (0.5, 0.75), (1, 1))),
                          PiecewiseLinearCdf(((0, 0), (0.5, 0.25), (1, 1)))))
    rep = run_full_verification(tent, n_samples=2000, grid=256)
    assert rep.all_passed


def test_battery_reports_degeneracy_without_raising(uu):
    rep = run_full_verification(uu, n_samples=500, grid=256)
    assert not rep.all_passed
    by_name = {c.name: c for c in rep.checks}
    assert by_name["sigma_measure_zero"].passed is False
    assert by_name["model_checks"].passed is None  # skipped, not failed
    assert by_name["degeneracy_class"].passed


def test_quadrature_checks_skip_beyond_range():
    # called directly, the quadrature checks skip at d = 4; a body that
    # ran would raise DimensionTooLarge from the quadrature
    from maxentos import verify
    exp4 = MarginalVector(tuple(ExponentialCdf(r) for r in (4.0, 3.0, 2.0, 1.0)))
    gated = [
        (verify._delta_checks(multidiagonal_of_iid_uniform(4), seed=0,
                              n_samples=500, grid=256),
         ["c_delta_normalization", "copula_entropy_quad"]),
        (verify._marginal_checks(exp4, seed=0, n_samples=500, grid=256),
         ["delta_c_delta_normalization", "delta_copula_entropy_quad",
          "normalization_quad", "entropy_three_way"]),
    ]
    for named, names in gated:
        checks = dict(named)
        for name in names:
            result = checks[name]()
            assert (result.name, result.status, result.detail) == \
                (name, "SKIP", "d=4 beyond quadrature range")


def test_check_that_raises_fails_under_its_name(monkeypatch):
    from maxentos import verify
    named = verify._delta_checks(multidiagonal_of_iid_uniform(2), seed=0,
                                 n_samples=500, grid=256, prefix="delta_")

    def broken(*args):
        raise RuntimeError("no distance")

    monkeypatch.setattr(verify, "ks_distance", broken)
    results = verify._run_checks(named)
    assert [r.name for r in results] == ["delta_" + name for name in DELTA_CHECKS]
    failed = [r for r in results if r.status == "FAIL"]
    assert [(r.name, r.detail) for r in failed] == [
        ("delta_copula_sampler_recovery", "RuntimeError: no distance")]


def test_verdicts_are_python_bools():
    # a numpy False from a check body fails the report; the battery's
    # verdicts are all Python bools or None
    from maxentos import verify
    failed = verify.CheckResult("numpy_false", *verify._verdict(np.bool_(False)))
    report = verify.VerificationReport("marginal_vector", 2, (failed,))
    assert not report.all_passed
    assert json.loads(report.to_json())["all_passed"] is False
    assert str(report).startswith("verification of marginal_vector (d=2): FAILURES PRESENT")
    rep = run_full_verification(MarginalVector((UniformCdf(0.0, 1.0), ExponentialCdf(1.0))),
                                n_samples=4000)
    assert {type(c.passed) for c in rep.checks} <= {bool, type(None)}


def test_nan_check_value_fails_its_check():
    # on Uniform(0,1)/Exp(1), B_2 is inf and E_1 is 0 at t = 1/1024 and
    # 2/1024, so B E - gap is NaN there; a running max that kept the
    # earlier value over a NaN read PASS 5.55e-17
    from maxentos import verify
    delta = multidiagonal_from_marginals(
        MarginalVector((UniformCdf(0.0, 1.0), ExponentialCdf(1.0))))
    named = dict(verify._delta_checks(delta, seed=0, n_samples=4000, grid=1024,
                                      prefix="delta_"))
    # B_2 overflows to inf and B E - gap reads inf * 0 there
    with np.errstate(invalid="ignore", over="ignore"):
        result = named["delta_BE_identity"]()
    assert result.status == "FAIL" and math.isnan(result.value)


def test_check_times_sum_within_battery_wall_time():
    # the checks run one after another, each timed on its own
    start = time.perf_counter()
    rep = run_full_verification(MarginalVector((BetaOneKCdf(2), BetaOneKCdf(1))),
                                n_samples=1000, grid=256)
    wall = time.perf_counter() - start
    assert all(c.seconds >= 0.0 for c in rep.checks)
    assert sum(c.seconds for c in rep.checks) <= wall


def test_copula_mass_and_entropy_share_one_pass(monkeypatch):
    # c_delta_normalization and copula_entropy_quad read one quadrature
    # pass
    from maxentos import verify
    delta = multidiagonal_of_iid_uniform(2)
    passes = []
    simplex = verify.simplex_integral

    def counted(fn, d, *args, **kwargs):
        if d == delta.d:
            passes.append(d)
        return simplex(fn, d, *args, **kwargs)

    monkeypatch.setattr(verify, "simplex_integral", counted)
    rep = run_full_verification(delta, n_samples=1000, grid=256)
    by_name = {c.name: c for c in rep.checks}
    assert by_name["c_delta_normalization"].passed
    assert by_name["copula_entropy_quad"].passed
    assert len(passes) == 1


def test_f_mass_and_entropy_share_one_pass(beta2, monkeypatch):
    # normalization_quad and entropy_three_way read one quadrature pass
    from maxentos import verify
    passes = []
    simplex = verify.simplex_integral

    def counted(fn, d, *args, **kwargs):
        if d == beta2.d:
            passes.append(d)
        return simplex(fn, d, *args, **kwargs)

    named = dict(verify._marginal_checks(beta2, seed=0, n_samples=1000, grid=256))
    monkeypatch.setattr(verify, "simplex_integral", counted)
    results = [named[name]() for name in ("normalization_quad", "entropy_three_way")]
    assert all(r.passed for r in results)
    assert len(passes) == 1


def test_kernel_tail_integral_solves_g_inverse_once_per_integrand_call(beta2_delta, monkeypatch):
    # the panel rule hands the integrand all of a level's nodes at once, and
    # K_i' and K_i are read at one x = G^{-1}(t) for all of them
    from maxentos import verify
    named = dict(verify._delta_checks(beta2_delta, seed=0, n_samples=1000, grid=256))
    solves, per_call = [], []
    ppf = AverageCdf.ppf
    monkeypatch.setattr(AverageCdf, "ppf",
                        lambda self, u: (solves.append(1), ppf(self, u))[1])
    panel_integral = verify._panel_integral

    def counted(fn, *args):
        def integrand(t):
            before = len(solves)
            value = fn(t)
            per_call.append(len(solves) - before)
            return value
        return panel_integral(integrand, *args)

    monkeypatch.setattr(verify, "_panel_integral", counted)
    assert named["kernel_tail_integral"]().passed
    assert len(per_call) > 0 and set(per_call) == {1}


def test_j_checks_share_one_transported_integral(monkeypatch):
    # j_transport and delta_j_delta_routes read one J(delta) term, whose
    # integrand solves G^{-1} once per call of the panel rule, on all of
    # that call's nodes
    from maxentos import verify
    margins = MarginalVector((BetaOneKCdf(2), BetaOneKCdf(1)))
    named = dict(verify._marginal_checks(margins, seed=0, n_samples=1000, grid=256))
    calls = []
    ppf = AverageCdf.ppf

    def counted(self, u):
        calls.append(1)
        return ppf(self, u)

    monkeypatch.setattr(AverageCdf, "ppf", counted)
    results = [named[name]() for name in ("j_transport", "delta_j_delta_routes")]
    assert all(r.passed for r in results)
    assert len(calls) <= 12


def test_battery_raises_no_runtime_warning():
    # edge rows of the shift identity's quadrature read x = inf; neither
    # they nor the panel rule's log of a zero gap may warn
    margins = MarginalVector((ExponentialCdf(2.0), ExponentialCdf(1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = run_full_verification(margins, n_samples=1000, grid=256)
    failed = [(c.name, c.detail) for c in rep.checks if c.passed is False]
    assert failed == []


def _count_j_integrations(monkeypatch):
    calls = []
    quad = marginals._pair_j_quad

    def counted(*args):
        calls.append(1)
        return quad(*args)

    monkeypatch.setattr(marginals, "_pair_j_quad", counted)
    return calls


def test_j_term_integrated_once_per_pair_across_threads(monkeypatch):
    # j_transport, j_routes and delta_j_delta_routes share the quadrature
    # J terms of the marginal pair and of its transport
    calls = _count_j_integrations(monkeypatch)
    rep = run_full_verification(MarginalVector((BetaOneKCdf(2), BetaOneKCdf(1))),
                                n_samples=1000, grid=256)
    by_name = {c.name: c for c in rep.checks}
    for name in ("j_transport", "j_routes", "delta_j_delta_routes"):
        assert by_name[name].passed
    assert len(calls) == 2


def test_j_term_lock_under_contention(monkeypatch):
    calls = _count_j_integrations(monkeypatch)
    pair = marginals._pair(BetaOneKCdf(3), ExponentialCdf(1.0))
    pair.psi
    out = []
    threads = [threading.Thread(target=lambda: out.append(pair.j_quad))
               for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(out) == 8 and len(set(out)) == 1
    assert len(calls) == 1
