"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line for its criterion and then asserts,
so a terse run shows the whole scoreboard.  Tolerances and runtimes are
part of the contract and are asserted, not logged.
"""

import json
import math
import time

import numpy as np
import pytest

from maxentos import (BetaOneKCdf, CopulaKernel, ExponentialCdf,
                      MarginalVector, Multidiagonal, UniformCdf, build_model,
                      c_F_density, c_delta_density, copula_entropy_closed,
                      f_F_density, j_functional, j_functional_delta,
                      joint_entropy_closed, ks_distance,
                      multidiagonal_from_marginals,
                      multidiagonal_of_iid_uniform, sample, sample_copula,
                      symmetrize_density)
from maxentos import cli
from maxentos.errors import NotAbsolutelyContinuous
from maxentos.marginals import average_cdf
from maxentos.verify import mc_entropy, quad_entropy, simplex_integral


def beta_margins(d):
    return MarginalVector(tuple(BetaOneKCdf(d - i) for i in range(d)))


def exp_margins():
    return MarginalVector((ExponentialCdf(3.0), ExponentialCdf(2.0),
                           ExponentialCdf(1.0)))


def report(num, label, ok, detail=""):
    print(f"acceptance {num} ({label}): {'PASS' if ok else 'FAIL'}"
          + (f"  [{detail}]" if detail else ""))


def harmonic_form(d):
    return (-math.log(math.factorial(d)) + 2 * d
            - (d + 1) * sum(1.0 / i for i in range(1, d + 1)))


def test_acceptance_1_beta_entropy_three_ways():
    t0 = time.perf_counter()
    errs = {}
    for d in (2, 3, 5):
        closed = joint_entropy_closed(beta_margins(d))
        errs[f"closed d={d}"] = abs(closed - harmonic_form(d))
    for d in (2, 3):
        model = build_model(beta_margins(d))
        hq = quad_entropy(lambda X: f_F_density(model, X), d, 0.0, 1.0)
        errs[f"quad d={d}"] = abs(hq - harmonic_form(d))
    model5 = build_model(beta_margins(5))
    X5 = sample(model5, 200000, seed=0)
    est, se = mc_entropy(lambda Y: f_F_density(model5, Y), X5)
    mc_dev = abs(est - harmonic_form(5))
    elapsed = time.perf_counter() - t0

    ok = (all(errs[f"closed d={d}"] <= 1e-12 for d in (2, 3, 5))
          and all(errs[f"quad d={d}"] <= 1e-3 for d in (2, 3))
          and mc_dev <= 3.0 * se
          and elapsed < 30.0)
    report(1, "beta example entropy three ways", ok,
           f"mc dev {mc_dev:.2e} vs 3se {3 * se:.2e}, {elapsed:.1f}s")
    assert all(errs[f"closed d={d}"] <= 1e-12 for d in (2, 3, 5)), errs
    assert all(errs[f"quad d={d}"] <= 1e-3 for d in (2, 3)), errs
    assert mc_dev <= 3.0 * se, (est, harmonic_form(5), se)
    assert elapsed < 30.0, elapsed


def test_acceptance_2_exponential_density_closed_product():
    lam = np.array([3.0, 2.0, 1.0, 0.0])

    def displayed(x):
        # leading factor, then the ratio chain with gaps Delta_i
        d2 = lam[0] - lam[1]
        out = lam[0] * np.exp(-d2 * x[:, 0]) * (
            -np.expm1(-d2 * x[:, 0])) ** (lam[1] / d2)
        for i in (2, 3):
            dn = lam[i - 1] - lam[i]
            dp = lam[i - 2] - lam[i - 1]
            xi = x[:, i - 1]
            out *= (lam[i - 1] * np.exp(-dn * xi)
                    * (-np.expm1(-dn * xi)) ** (lam[i] / dn)
                    / (-np.expm1(-dp * xi)) ** (lam[i - 2] / dp))
        return out

    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    X = np.cumsum(rng.exponential(scale=0.4, size=(1000, 3)), axis=1)
    model = build_model(exp_margins())
    f = f_F_density(model, X)
    g = displayed(X)
    rel = float(np.max(np.abs(f - g) / g))
    elapsed = time.perf_counter() - t0

    ok = rel <= 1e-10 and elapsed < 1.0
    report(2, "exponential example density vs product form", ok,
           f"rel {rel:.2e}, {elapsed:.2f}s")
    assert rel <= 1e-10, rel
    assert elapsed < 1.0, elapsed


def test_acceptance_3_independence_fixture():
    t0 = time.perf_counter()
    delta = multidiagonal_of_iid_uniform(2)
    kernel = CopulaKernel(delta)
    s = np.linspace(0.0, 1.0, 103)[1:-1]
    u1, u2 = np.meshgrid(s, s)
    pts = np.column_stack([u1.ravel(), u2.ravel()])
    c = c_delta_density(kernel, pts)
    flat_err = float(np.max(np.abs(c - 1.0)))
    h_err = abs(copula_entropy_closed(delta))
    elapsed = time.perf_counter() - t0

    ok = flat_err <= 1e-8 and h_err <= 1e-6 and elapsed < 5.0
    report(3, "iid uniform copula is flat with zero entropy", ok,
           f"density dev {flat_err:.2e}, entropy {h_err:.2e}, {elapsed:.2f}s")
    assert flat_err <= 1e-8, flat_err
    assert h_err <= 1e-6, h_err
    assert elapsed < 5.0, elapsed


def test_acceptance_4_multidiagonal_sum_identity():
    s = np.linspace(0.0, 1.0, 1024)
    worst = 0.0
    cases = [multidiagonal_from_marginals(exp_margins()),
             multidiagonal_from_marginals(beta_margins(2))]
    cases += [multidiagonal_of_iid_uniform(d) for d in range(1, 9)]
    for delta in cases:
        tot = sum(np.asarray(comp.cdf(s), dtype=float)
                  for comp in delta.components)
        worst = max(worst, float(np.max(np.abs(tot - delta.d * s))))

    ok = worst <= 1e-9
    report(4, "component sum identity", ok, f"max dev {worst:.2e}")
    assert worst <= 1e-9, worst


def test_acceptance_5_j_transport():
    margins = exp_margins()
    delta = multidiagonal_from_marginals(margins)
    jf = j_functional(margins, method="quadrature")
    jd = j_functional_delta(delta, method="quadrature")
    dev = abs(jf - jd)

    ok = dev < 1e-6
    report(5, "integral functional carries to the copula scale", ok,
           f"|J_F - J_delta| {dev:.2e}")
    assert dev < 1e-6, (jf, jd)


def test_acceptance_6_sampler_marginal_fidelity():
    t0 = time.perf_counter()
    n = 10000
    bound = 1.63 / math.sqrt(n)
    outcomes = {}
    for label, margins in (("beta d=2", beta_margins(2)),
                           ("exp d=3", exp_margins())):
        model = build_model(margins)
        hits = 0
        for seed in (0, 1, 2):
            X = sample(model, n, seed=seed)
            if all(ks_distance(X[:, i], margins.margins[i].cdf) < bound
                   for i in range(margins.d)):
                hits += 1
        outcomes[label] = hits
    elapsed = time.perf_counter() - t0

    ok = all(h >= 2 for h in outcomes.values()) and elapsed < 10.0
    report(6, "sampler reproduces every marginal", ok,
           f"{outcomes}, bound {bound:.4f}, {elapsed:.1f}s")
    assert all(h >= 2 for h in outcomes.values()), outcomes
    assert elapsed < 10.0, elapsed


def test_acceptance_7_density_normalization():
    # f_F lives on the ordered region, so the region integral is the mass
    model2 = build_model(beta_margins(2))
    val2 = simplex_integral(lambda X: f_F_density(model2, X), 2, 0.0, 1.0)
    quad_dev = abs(val2 - 1.0)

    # d=3 importance check with a two-part proposal: sorted iid draws from
    # the average marginal cover the bulk, and a product-of-ratios chain
    # matches the polynomial corner decay so the weights stay bounded
    margins = exp_margins()
    model3 = build_model(margins)
    gbar = average_cdf(margins)
    n = 400000
    half = n // 2
    rng = np.random.default_rng(0)

    xa = np.sort(gbar.ppf(rng.random((half, 3))), axis=1)
    x3 = rng.exponential(size=half)
    x2 = x3 * np.sqrt(rng.random(half))
    x1 = x2 * np.cbrt(rng.random(half))
    xb = np.column_stack([x1, x2, x3])
    X = np.vstack([xa, xb])

    def log_qa(x):
        g = sum(np.asarray(m.pdf(x), dtype=float) for m in margins.margins) / 3.0
        return math.log(6.0) + np.sum(np.log(g), axis=1)

    def log_qb(x):
        return (math.log(6.0) - x[:, 2] + 2.0 * np.log(x[:, 0])
                - 2.0 * np.log(x[:, 1]) - 2.0 * np.log(x[:, 2]))

    log_mix = np.logaddexp(log_qa(X), log_qb(X)) - math.log(2.0)
    with np.errstate(divide="ignore"):
        log_f = np.log(f_F_density(model3, X))
    w = np.exp(log_f - log_mix)
    est = float(np.mean(w))
    se = float(np.std(w, ddof=1) / math.sqrt(n))
    mc_dev = abs(est - 1.0)

    # quadrature backstop at d=3 on a quantile box (tail mass ~ 3e-9)
    hi = float(margins.margins[2].ppf(1.0 - 1e-9))
    val3 = simplex_integral(lambda Y: f_F_density(model3, Y), 3, 0.0, hi)
    quad3_dev = abs(val3 - 1.0)

    ok = quad_dev <= 1e-4 and mc_dev <= 4.0 * se and quad3_dev <= 1e-4
    report(7, "joint density integrates to one", ok,
           f"quad dev {quad_dev:.2e}, mc {est:.6f} +- {se:.1e}, "
           f"d=3 quad dev {quad3_dev:.2e}")
    assert quad_dev <= 1e-4, val2
    assert mc_dev <= 4.0 * se, (est, se)
    assert quad3_dev <= 1e-4, val3


def test_acceptance_8_entropy_shift_identity():
    margins = beta_margins(2)
    delta = multidiagonal_from_marginals(margins)
    f1, f2 = margins.margins
    cfn = lambda U: c_F_density(margins, U)

    def nxlx(v):
        v = np.asarray(v, dtype=float)
        return np.where(v > 0.0, -v * np.log(np.maximum(v, 1e-300)), 0.0)

    # the copula lives on the image of {x1 <= x2} under x -> F(x): with
    # u = F(x), H(c_F) is the integral of -c log c (F(x)) f1(x1) f2(x2)
    # over the ordered region of the margins' support [0, 1], which keeps
    # the rule off the curved edge of the copula's support
    hc = simplex_integral(
        lambda X: nxlx(cfn(np.column_stack([f1.cdf(X[:, 0]), f2.cdf(X[:, 1])])))
        * f1.pdf(X[:, 0]) * f2.pdf(X[:, 1]), 2, 0.0, 1.0)
    sym = symmetrize_density(delta, cfn)
    hs = 2.0 * quad_entropy(sym, 2, 0.0, 1.0)

    expect = math.log(2.0) + sum(comp.entropy() for comp in delta.components)
    dev = abs((hs - hc) - expect)

    ok = dev <= 1e-3
    report(8, "symmetrization shifts entropy by a fixed amount", ok,
           f"dev {dev:.2e}")
    assert dev <= 1e-3, (hs, hc, expect)


def test_acceptance_9_degeneracy_detection(tmp_path, capsys):
    spec = tmp_path / "uu.json"
    spec.write_text(json.dumps({"margins": [
        {"family": "uniform", "a": 0.0, "b": 1.0},
        {"family": "uniform", "a": 0.0, "b": 1.0}]}))
    rc = cli.main(["validate", "--input", str(spec)])
    out = capsys.readouterr().out
    cli_ok = rc == 1 and "H_F: -inf" in out

    comonotone = Multidiagonal((UniformCdf(0.0, 1.0), UniformCdf(0.0, 1.0)))
    kernel = CopulaKernel(comonotone)
    try:
        c_delta_density(kernel, np.array([[0.3, 0.6]]))
        raised = False
    except NotAbsolutelyContinuous:
        raised = True

    ok = cli_ok and raised
    with capsys.disabled():
        report(9, "degenerate inputs are refused", ok,
               f"exit {rc}, density raises: {raised}")
    assert cli_ok, (rc, out)
    assert raised


def test_acceptance_9b_comonotone_sampling_also_refused():
    comonotone = Multidiagonal((UniformCdf(0.0, 1.0), UniformCdf(0.0, 1.0)))
    kernel = CopulaKernel(comonotone)
    with pytest.raises(NotAbsolutelyContinuous):
        sample_copula(kernel, 5)
