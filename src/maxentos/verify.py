"""Numerical verification: quadratures, sampling diagnostics, check battery.

The quadrature engine integrates over the ordered region
{lo <= x_1 <= ... <= x_d <= hi} with composite Gauss-Legendre panels
graded geometrically toward the ends of [0, 1], because the integrands
routinely have integrable endpoint structure that a plain product rule
resolves too slowly for the tolerances used here.  Every panel reads the
one unit rule of cdfs._unit_gauss, as the hazard tables do.

The ordered rule maps the graded panels into each cell between the cuts
and takes every nondecreasing assignment of x_1..x_d to those panels.  An
assignment splits the coordinates into runs that share a panel [a, b].
Coordinates in distinct panels decouple, each on its panel's own q Gauss
nodes; inside a run of m coordinates the substitution

    x_top = a + (b - a) w_top,   x_i = a + (x_{i+1} - a) w_i,

keeps them ordered, with Jacobian (b - a) prod (x_{i+1} - a).  The
assignments are grouped by their pattern of run lengths (2^(d-1) of
them): each pattern's unit nodes and weights are built once, and each
assignment only shifts and scales them.  A column's values are thus a few
nodes per panel, shared by every point.  The points run in blocks of at
most 2^15, whole assignments, one contiguous column per coordinate, and
each block carries its columns' levels (cdfs._LevelBlock): column j is
values[index], where values are the block's panels' a + h y and the index
comes from the panel and node ids by integer arithmetic.  The densities
read every term of one coordinate once per level and gather it, so a pass
solves G^{-1} on a few thousand levels and never sorts its points.

c_F, the copula of the order-statistics model, lives on the image of the
ordered region under x -> F(x).  Its entropy is integrated on the marginal
scale: the ordered rule's blocks are mapped through the margins' cdfs,
each level once, and weighted by the marginal densities.

run_full_verification executes an independent battery of consistency
checks on a marginal vector or a multidiagonal, each with its own fixed
seed, and reports one pass/fail/skip verdict per check.  The checks run
one after another, in the order they are declared, and each verdict
carries its check's own wall time.

A check is declared once, as check(name)(body) with the check() of
_checklist: the declaration prefixes the name, skips the check beyond
the quadrature range when given quad=True, and stamps the name on the
verdict that body() returns.  The rules several checks share (two J
routes agree, KS recovery of a sampler, one pass for mass and entropy)
are functions of their own.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .cdfs import (_BLOCK, _Columns, _cut_ends, _level_block, _panel_integral,
                   _unit_gauss, xlogx)
from .copula import (GAP_TOL, CopulaKernel, c_delta_density, c_F_density,
                     copula_entropy_closed, symmetrize_density)
from .errors import DimensionTooLarge
from .intervals import gap_inside_mask, inside_mask
from .joint import (_draw_sorted, build_model, detect_degenerate, f_F_density,
                    sample)
from .marginals import (MarginalVector, check_stochastic_order, j_functional,
                        sigma_measure)
from .multidiag import (Multidiagonal, delta_inverse, j_functional_delta,
                        multidiagonal_from_marginals, validate_multidiagonal)

MAX_QUAD_DIM = 3
DEFAULT_NODES = {1: 512, 2: 512, 3: 160}
KS_FACTOR = 1.63


def _axis_panels(n: int):
    """Edges of the graded panels on [0, 1] for ~n nodes, and the number
    q of Gauss-Legendre nodes on each panel."""
    if n >= 384:
        q, half = 16, max(2, n // 32)
    else:
        q, half = 8, max(2, n // 16)
    g = np.geomspace(1e-8, 0.5, half + 1)
    return np.unique(np.concatenate([[0.0], g, 1.0 - g[::-1], [1.0]])), q


def _cell_edges(ends, unit):
    """The graded panel edges unit of [0, 1] mapped into each cell between
    consecutive ends."""
    return np.concatenate([a + (b - a) * unit[:-1] for a, b in zip(ends[:-1], ends[1:])]
                          + [[ends[-1]]])


def _check_dim(d: int):
    if d > MAX_QUAD_DIM:
        raise DimensionTooLarge(
            f"deterministic quadrature supports d <= {MAX_QUAD_DIM}, got {d}; "
            "use Monte Carlo estimates instead")


def _run_rule(runs, q: int):
    """Weights (q^d) of the rule on the unit cube for one run pattern, and
    its nodes y by coordinate: runs lists the lengths of the runs of
    consecutive coordinates that share a panel, lowest first.

    Each run spans its own unit panel.  Its top coordinate is a plain
    Gauss-Legendre node w_top, and below it the ordered substitution
    y_i = y_{i+1} w_i, with Jacobian y_{i+1}, keeps the run sorted.  So
    y_i depends only on the Gauss nodes of coordinates i up to its run's
    top; read as digits in base q they number its values.  Node k has
    y_i = units[i][ids[k, i]].
    """
    d = sum(runs)
    t, wt = _unit_gauss(q)
    idx = np.indices((q,) * d).reshape(d, -1).T
    W, w = t[idx], np.prod(wt[idx], axis=1)
    tops = {int(k) for k in np.cumsum(runs) - 1}
    Y = np.empty_like(W)
    ids = np.empty_like(idx)
    count = np.empty(d, dtype=int)
    for i in reversed(range(d)):
        if i in tops:
            Y[:, i] = W[:, i]
            ids[:, i], count[i] = idx[:, i], q
        else:
            Y[:, i] = Y[:, i + 1] * W[:, i]
            w = w * Y[:, i + 1]
            ids[:, i], count[i] = idx[:, i] * count[i + 1] + ids[:, i + 1], q * count[i + 1]
    units = [np.empty(c) for c in count]
    for i, unit in enumerate(units):
        unit[ids[:, i]] = Y[:, i]
    return w, ids, units


def _levels(table, rows, nodes):
    """(values, index) of a block column whose point (r, k) reads
    table[rows[r], nodes[k]], or nodes[r, k] for an (R, K) nodes: the
    table rows the block reads, in order, and each point's place in them."""
    used = np.zeros(len(table), dtype=bool)
    used[rows] = True
    slot = np.cumsum(used) - 1
    index = (slot[rows] * table.shape[1])[:, None] + nodes
    return table[used].ravel(), index.ravel()


def _block_sum(fn, columns, item_w, node_w):
    """sum over items r and nodes k of item_w[r] node_w[k] fn at point
    (r, k), whose coordinate i reads table[rows[r], nodes[k]] for the
    (table, rows, nodes) of columns[i].

    Each call of fn gets whole items, at most _BLOCK points or one item,
    one contiguous column per coordinate, as a level block (see _levels).
    """
    step = max(1, _BLOCK // len(node_w))
    acc = 0.0
    for start in range(0, len(item_w), step):
        sl = slice(start, start + step)
        vals = np.asarray(fn(_level_block(
            [_levels(table, rows[sl], nodes) for table, rows, nodes in columns])), dtype=float)
        acc = acc + (item_w[sl][:, None] * node_w).reshape(-1) @ vals
    return acc


def _run_pattern_sum(fn, runs, choice, starts, widths, q: int):
    """The rule's sum of fn over every panel assignment of one run pattern.

    choice holds one row of strictly increasing panel indices per
    assignment, one per run; a run of m coordinates in the panel [a, a + h]
    reads x = a + h y at the pattern's unit nodes y, with weight factor
    h^m.  The items of _block_sum are the assignments: column i reads the
    values a + h y of their panels."""
    wy, ids, units = _run_rule(runs, q)
    panels = choice[:, np.repeat(np.arange(len(runs)), runs)]
    # every value coordinate i takes: a + h y over the panels and its units
    tables = [starts[:, None] + widths[:, None] * unit for unit in units]
    return _block_sum(fn, [(tables[i], panels[:, i], ids[:, i]) for i in range(len(units))],
                      np.prod(widths[panels].T, axis=0), wy)


def simplex_integral(fn, d: int, lo: float, hi: float,
                     nodes: int | None = None, cuts=()):
    """Integral of fn over {lo <= x_1 <= ... <= x_d <= hi}.

    cuts lists interior abscissae where the integrand loses smoothness
    (component knots, say); the region is partitioned there so each panel
    keeps the rule's accuracy.  An fn returning (n, k) columns gets k
    integrals from one pass.
    """
    _check_dim(d)
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ValueError("ordered-region quadrature needs finite lo < hi")
    # the graded panels of [0, 1], mapped into each cell between the cuts
    unit, q = _axis_panels(nodes or DEFAULT_NODES[d])
    edges = _cell_edges(_cut_ends(cuts, lo, hi), unit)
    starts, widths = edges[:-1], np.diff(edges)
    total = 0.0
    # a nondecreasing assignment of the coordinates to panels splits them
    # into runs that share a panel; the patterns of run lengths are the
    # 2^(d-1) ways to cut the coordinates 1..d between neighbours
    for cut_after in itertools.product((False, True), repeat=d - 1):
        runs = np.diff([0, *[i + 1 for i, c in enumerate(cut_after) if c], d])
        choice = np.array(list(itertools.combinations(range(len(starts)), len(runs))),
                          dtype=np.intp).reshape(-1, len(runs))
        total = total + _run_pattern_sum(fn, runs, choice, starts, widths, q)
    return float(total) if np.ndim(total) == 0 else total


def quad_entropy(density_fn, d: int, lo: float, hi: float,
                 nodes: int | None = None, cuts=()) -> float:
    """Entropy -int f log f over the ordered region, by quadrature."""
    return simplex_integral(lambda X: -xlogx(density_fn(X)), d, lo, hi, nodes, cuts)


def mc_entropy(density_fn, samples) -> tuple[float, float]:
    """Monte Carlo entropy estimate (-mean log f) and its standard error."""
    vals = np.asarray(density_fn(np.atleast_2d(samples)), dtype=float)
    good = vals > 0.0
    lg = -np.log(vals[good])
    n = lg.size
    if n == 0:
        return math.inf, math.inf
    return float(np.mean(lg)), float(np.std(lg, ddof=1) / math.sqrt(n))


def ks_distance(samples_1d, cdf_fn) -> float:
    """Kolmogorov-Smirnov distance between a sample and a CDF."""
    x = np.sort(np.asarray(samples_1d, dtype=float))
    n = x.size
    F = np.asarray(cdf_fn(x), dtype=float)
    up = np.max(np.arange(1, n + 1) / n - F)
    dn = np.max(F - np.arange(0, n) / n)
    return float(max(up, dn))


# ---------------------------------------------------------------------------
# check battery


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool | None          # None: skipped
    value: float | None = None
    tol: float | None = None
    detail: str = ""
    seconds: float | None = None  # wall time of the check, set by the battery

    @property
    def status(self) -> str:
        return "SKIP" if self.passed is None else ("PASS" if self.passed else "FAIL")

    def __str__(self):
        num = ""
        if self.value is not None:
            num = f" value={self.value:.6g}"
            if self.tol is not None:
                num += f" tol={self.tol:.3g}"
        tail = f" [{self.detail}]" if self.detail else ""
        return f"{self.status:>4} {self.name}{num}{tail}"


@dataclass(frozen=True)
class VerificationReport:
    subject_kind: str
    d: int
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def all_passed(self) -> bool:
        return all(c.passed is not False for c in self.checks)

    def to_json(self) -> str:
        return json.dumps({
            "subject": self.subject_kind,
            "d": self.d,
            "all_passed": self.all_passed,
            "checks": [{
                "name": c.name, "status": c.status, "value": c.value,
                "tol": c.tol, "detail": c.detail, "seconds": c.seconds,
            } for c in self.checks],
        }, indent=2)

    def __str__(self):
        head = (f"verification of {self.subject_kind} (d={self.d}): "
                f"{'all passed' if self.all_passed else 'FAILURES PRESENT'}")
        return "\n".join([head] + [str(c) for c in self.checks])


def _run_checks(named):
    """Run the (name, callable) checks in order; each result carries its
    own wall time.

    Two quadrature passes are shared: the c_delta mass and entropy pass
    by c_delta_normalization and copula_entropy_quad, the f_F one by
    normalization_quad and entropy_three_way.  A pass's time counts
    toward the first of its two checks, which runs it.
    """
    results = []
    for name, fn in named:
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:                      # noqa: BLE001
            result = CheckResult(name, False, detail=f"{type(exc).__name__}: {exc}")
        results.append(replace(result, seconds=time.perf_counter() - start))
    return results


def _checklist(d: int, prefix: str = ""):
    """An empty list of (name, callable) checks, and check(name) that
    declares one into it.

    check(name) decorates a body that returns a verdict, the fields of a
    CheckResult after its name.  The entry is named prefix + name, and its
    callable stamps that name on the body's verdict.  With quad=True the
    check is skipped, its body not run, when d exceeds MAX_QUAD_DIM.
    """
    named = []

    def check(name: str, *, quad: bool = False):
        name = prefix + name

        def declare(body):
            def run():
                if quad and d > MAX_QUAD_DIM:
                    return CheckResult(name, None, detail=f"d={d} beyond quadrature range")
                return CheckResult(name, *body())
            named.append((name, run))
            return body
        return declare

    return named, check


def _verdict(passed, value=None, tol=None, detail=""):
    """The fields of a CheckResult after its name; passed becomes a Python
    bool (or stays None), so a numpy False reads as a failure."""
    return None if passed is None else bool(passed), value, tol, detail


def _worst(*values) -> float:
    """The largest of values, NaN when any is NaN: Python's max keeps an
    earlier value over a later NaN, so a failed evaluation would pass."""
    return float(np.max(values))


def _tolcheck(value, tol, detail=""):
    return _verdict(value <= tol, float(value), tol, detail)


def _routes_agree(a, b, labels):
    """Two routes to one J value: both infinite, or within 1e-6."""
    if math.isinf(a) and math.isinf(b):
        return _verdict(True, detail="both infinite")
    return _tolcheck(abs(a - b), 1e-6, f"{labels[0]}={a:.9g} {labels[1]}={b:.9g}")


def _ks_recovery(draw, cdfs, n_samples: int, seed: int):
    """Every coordinate of draw(seed + k) within KS_FACTOR / sqrt(n) of its
    CDF, for at least 2 of the draws k = 0, 1, 2."""
    passes = 0
    bound = KS_FACTOR / math.sqrt(n_samples)
    worst = 0.0
    for k in range(3):
        X = draw(seed + k)
        dks = _worst(*(ks_distance(X[:, i], cdf) for i, cdf in enumerate(cdfs)))
        worst = _worst(worst, dks)
        passes += dks <= bound
    return _verdict(passes >= 2 and not math.isnan(worst), worst, bound,
                    f"{passes}/3 seeds within bound")


def _mass_and_entropy(density, d: int, lo: float, hi: float, cuts, scale=1.0):
    """The shared pass: scale times the mass and the -f log f of density
    over the ordered region, from one density evaluation on one rule.

    The first call runs it; later calls share its value."""
    def columns(X):
        f = density(X)
        out = np.empty((len(f), 2))
        out[:, 0] = f
        np.negative(xlogx(f), out=out[:, 1])
        return out

    def run():
        mass, ent = simplex_integral(columns, d, lo, hi,
                                     nodes=None if d < 3 else 128, cuts=cuts)
        return scale * mass, scale * ent
    return functools.cache(run)


def _mass_is_one(shared_pass):
    val = shared_pass()[0]
    return _tolcheck(abs(val - 1.0), 1e-3, f"integral={val:.8f}")


def _delta_checks(delta: Multidiagonal, *, seed: int, n_samples: int,
                  grid: int, prefix: str = "") -> list:
    """Checks on multidiagonal structure and its copula; shared by both
    entry points.  Returns (name, callable) pairs."""
    d = delta.d
    report = validate_multidiagonal(delta, grid=max(grid, 512))
    named, check = _checklist(d, prefix)

    check("multidiagonal_class")(lambda: _verdict(
        report.is_D,
        detail=f"is_D={report.is_D} is_D0={report.is_D0} sigma={report.sigma:.3g}"))
    check("sum_identity")(lambda: _tolcheck(report.sum_residual, 1e-9))
    check("lipschitz_bound")(lambda: _verdict(
        report.lipschitz_ok, detail=f"component slopes bounded by d={d}"))
    check("j_delta_routes")(lambda: _routes_agree(
        j_functional_delta(delta, method="auto"),
        j_functional_delta(delta, method="quadrature"), ("auto", "quadrature")))

    if not report.is_D0:
        return named

    kernel = CopulaKernel(delta)
    # kinks of the components (piecewise knots and their images) break the
    # smoothness the panel rule relies on; the quadratures split there
    kink_cuts = sorted({float(k) for comp in delta.components
                        for k in comp.knots() if 0.0 < float(k) < 1.0})
    # exchangeability turns the cube integrals into d! times the sorted
    # region ones, whose substitution absorbs the corner singularity
    c_pass = _mass_and_entropy(lambda U: c_delta_density(kernel, U), d, 0.0, 1.0,
                               kink_cuts, scale=math.factorial(d))
    check("c_delta_normalization", quad=True)(lambda: _mass_is_one(c_pass))

    @check("c_delta_symmetry")
    def _c_symmetry():
        rng = np.random.default_rng(seed + 11)
        u = rng.random((200, d))
        base = c_delta_density(kernel, u)
        worst = 0.0
        for _ in range(3):
            perm = rng.permuted(u, axis=1)
            pv = c_delta_density(kernel, perm)
            scale = np.maximum(base, 1e-12)
            worst = _worst(worst, np.max(np.abs(pv - base) / scale))
        return _tolcheck(worst, 1e-9)

    @check("c_delta_dual_route")
    def _c_routes():
        kq = CopulaKernel(delta, mode="quadrature")
        rng = np.random.default_rng(seed + 13)
        u = rng.random((200, d))
        a = c_delta_density(kernel, u)
        b = c_delta_density(kq, u)
        m = a > 0
        if (a[m].size == 0) or not np.array_equal(a > 0, b > 0):
            return _verdict(False, detail="support sets disagree")
        rel = float(np.max(np.abs(a[m] - b[m]) / a[m]))
        return _tolcheck(rel, 1e-6)

    @check("c_delta_vanishes_off_support")
    def _vanishes():
        rng = np.random.default_rng(seed + 17)
        u = rng.random((300, d))
        vals = c_delta_density(kernel, u)
        v = np.sort(u, axis=1)
        ok = np.ones(len(u), dtype=bool)
        for i in range(2, d + 1):
            ok &= gap_inside_mask(kernel.psis[i], v[:, i - 2], v[:, i - 1], GAP_TOL)
        for i in range(1, d + 1):
            ok &= inside_mask(kernel.psis[i], v[:, i - 1])
            ok &= inside_mask(kernel.psis[i + 1], v[:, i - 1])
        return _tolcheck(int(np.sum((vals > 0) & ~ok)), 0.0)

    @check("BE_identity")
    def _be_identity():
        worst = 0.0
        ts = np.linspace(0.0, 1.0, grid + 1)[1:-1]
        for i in range(1, d + 2):
            B = kernel.B(i, ts)
            E = kernel.E(i - 1, ts)
            prev = (np.ones_like(ts) if i == 1
                    else np.asarray(delta.components[i - 2].cdf(ts), dtype=float))
            cur = (np.zeros_like(ts) if i == d + 1
                   else np.asarray(delta.components[i - 1].cdf(ts), dtype=float))
            m = inside_mask(kernel.psis[i], ts)
            if np.any(m):
                worst = _worst(worst, np.max(np.abs(B[m] * E[m] - (prev[m] - cur[m]))))
        return _tolcheck(worst, 1e-9)

    @check("K_singular_growth")
    def _k_growth():
        ok = True
        detail = []
        for i in range(1, d + 1):
            for g, dd in kernel.psis[i]:
                w = dd - g
                ts = dd - w * np.power(10.0, -np.arange(2, 9, dtype=float))
                vals = kernel.K(i, ts)
                grow = bool(np.all(np.diff(vals) > 0) and vals[-1] > vals[0] + 1.0)
                ok &= grow
                if not grow:
                    detail.append(f"K_{i} not diverging near {dd:.4g}")
        return _verdict(ok, detail="; ".join(detail))

    @check("kernel_tail_integral")
    def _tail_integral():
        worst = 0.0
        for i in range(1, d + 1):
            psis = kernel.psis[i]
            if len(psis) == 0:
                continue
            g, dd = psis[len(psis) - 1]
            w = dd - g
            hi = dd - 1e-10 * w
            for frac in (0.25, 0.6):
                t0 = g + frac * w

                def integrand(s):
                    if i == 1:
                        # K_1' exp(-K_1) collapses to the top component
                        # density; the quotient form overflows in the tail
                        return np.asarray(
                            kernel.delta.components[0].pdf(s), dtype=float)
                    # K_i' and K_i read at one x = G^{-1}(s)
                    x = kernel._avg.ppf(s)
                    return kernel._kprime_at(i, x) * np.exp(-kernel._K_at(i, x))
                # the panels split at the kinks, as the other quadratures do
                edges = _cut_ends(kink_cuts, t0, hi)
                val = float(np.sum(_panel_integral(integrand, edges[:-1], edges[1:])))
                b0, b1 = kernel.B(i, np.array([t0, hi]))
                expect = float(b0) - float(b1)
                worst = _worst(worst, abs(val - expect))
        return _tolcheck(worst, 1e-6)

    # sample_copula's sorted rows are G(X) for the sorted draws X of its
    # draw loop, and delta_(i)(G(X_i)) is F_i(X_i): read without G^{-1}
    check("copula_sampler_recovery")(lambda: _ks_recovery(
        lambda s: _draw_sorted(kernel._first, kernel._hazards, n_samples,
                               np.random.default_rng(s)),
        [m.cdf for m in kernel._margins], n_samples, seed + 101))

    @check("copula_entropy_quad", quad=True)
    def _copula_entropy_quad():
        hc = copula_entropy_closed(delta)
        hq = c_pass()[1]
        return _tolcheck(abs(hc - hq), 1e-3, f"closed={hc:.6f} quadrature={hq:.6f}")

    @check("component_entropy_bound")
    def _component_bounds():
        # |H(delta_(i))| <= d log d, entropy by quadrature; the slope cap
        # delta' <= d also gives the sharper H >= -log d
        worst = -math.inf
        for comp in delta.components:
            h = quad_entropy(lambda X, c=comp: np.asarray(c.pdf(X[:, 0]), dtype=float),
                             1, 0.0, 1.0, cuts=comp.knots())
            worst = _worst(worst, abs(h) - d * math.log(d), -math.log(d) - h)
        return _tolcheck(worst, 1e-6, "quadrature H within [-log d, 0]")

    return named


def _marginal_checks(margins: MarginalVector, *, seed: int, n_samples: int,
                     grid: int) -> list:
    d = margins.d
    named, check = _checklist(d)
    order = check_stochastic_order(margins)

    check("stochastic_order")(lambda: _verdict(
        order.ordered,
        detail="" if order.ordered else f"first violation {order.violations[0]}"))
    if not order.ordered:
        return named

    rep = detect_degenerate(margins)
    check("degeneracy_class")(lambda: _verdict(True, detail=str(rep)))

    sigma = sigma_measure(margins)
    check("sigma_measure_zero")(lambda: _tolcheck(sigma, 1e-9))

    delta = multidiagonal_from_marginals(margins)

    @check("delta_inverse_consistency")
    def _dinv():
        u = np.linspace(0.01, 0.99, 99)
        worst = 0.0
        for i in range(1, d + 1):
            a = delta_inverse(delta, i, u)
            b = delta.components[i - 1].ppf(u)
            worst = _worst(worst, np.max(np.abs(a - b)))
        return _tolcheck(worst, 1e-9)

    check("j_transport")(lambda: _routes_agree(
        j_functional(margins, method="quadrature"),
        j_functional_delta(delta, method="quadrature"), ("J(F)", "J(delta)")))
    check("j_routes")(lambda: _routes_agree(
        j_functional(margins, method="auto"),
        j_functional(margins, method="quadrature"), ("auto", "quadrature")))

    @check("j_lower_bound")
    def _j_lower():
        jv = j_functional(margins, method="auto")
        return _verdict(jv >= d - 1 - 1e-9, jv, detail=f"J >= d-1 = {d - 1}")

    named.extend(_delta_checks(delta, seed=seed, n_samples=n_samples,
                               grid=grid, prefix="delta_"))

    if not rep.ok:
        check("model_checks")(lambda: _verdict(None, detail=f"skipped: {rep.verdict}"))
        return named

    model = build_model(margins)
    lo = min(float(m.ppf(1e-12)) for m in margins.margins)
    hi = max(float(m.ppf(1.0 - 1e-12)) for m in margins.margins)
    margin_cuts = sorted({float(k) for m in margins.margins
                          for k in m.knots() if lo < float(k) < hi})
    f_pass = _mass_and_entropy(lambda X: f_F_density(model, X), d, lo, hi, margin_cuts)
    check("normalization_quad", quad=True)(lambda: _mass_is_one(f_pass))

    @check("entropy_three_way", quad=True)
    def _entropy_three_way():
        hc = rep.entropy
        hq = f_pass()[1]
        X = sample(model, n_samples, seed=seed + 211)
        hm, se = mc_entropy(lambda Y: f_F_density(model, Y), X)
        qerr = abs(hc - hq)
        ok = qerr <= 2e-3 and abs(hc - hm) <= 4.0 * max(se, 1e-12)
        return _verdict(ok, qerr, 2e-3,
                        f"closed={hc:.6f} quad={hq:.6f} mc={hm:.6f}+-{se:.4f}")

    check("sampler_marginal_ks")(lambda: _ks_recovery(
        lambda s: sample(model, n_samples, seed=s),
        [m.cdf for m in margins.margins], n_samples, seed + 301))

    @check("f_vanishes_off_support")
    def _vanish_joint():
        X = sample(model, 200, seed=seed + 402)
        # unsorted rows must get density zero
        Xs = X.copy()
        if d >= 2:
            Xs[:, [0, d - 1]] = Xs[:, [d - 1, 0]]
            swapped = Xs[Xs[:, 0] > Xs[:, d - 1] + 1e-9]
            vals = f_F_density(model, swapped) if len(swapped) else np.zeros(1)
            bad = int(np.sum(vals > 0))
        else:
            bad = 0
        return _tolcheck(bad, 0.0)

    @check("cF_consistency")
    def _cf_consistency():
        if sigma > 1e-9 or not all(m.is_absolutely_continuous
                                   for m in margins.margins):
            return _verdict(None, detail="needs the zero-residual class")
        X = sample(model, 300, seed=seed + 501)
        fF = f_F_density(model, X)
        U = np.column_stack([margins.margins[j].cdf(X[:, j]) for j in range(d)])
        cF = c_F_density(margins, U, hazards=model.hazards)
        prod = np.ones(len(X))
        for j in range(d):
            prod *= np.asarray(margins.margins[j].pdf(X[:, j]), dtype=float)
        m = (fF > 0) & (cF > 0) & (prod > 0)
        if m.sum() < len(X) * 0.9:
            return _verdict(False, detail=f"only {int(m.sum())}/{len(X)} sampled points on support")
        rel = float(np.max(np.abs(fF[m] - cF[m] * prod[m]) / fF[m]))
        return _tolcheck(rel, 1e-9)

    @check("product_form_locality")
    def _product_form():
        # log f differences must not depend on coordinates outside the
        # touched pair blocks: perturb coordinate j in two contexts.
        rng = np.random.default_rng(seed + 601)
        X = sample(model, 50, seed=seed + 602)
        if d < 3:
            return _verdict(None, detail="needs d >= 3")
        worst = 0.0
        for _ in range(20):
            r1, r2 = rng.integers(0, len(X), size=2)
            a, b = X[r1].copy(), X[r2].copy()
            # replace the tail beyond coordinate j in both rows
            j = int(rng.integers(1, d - 1))
            if not (a[j - 1] <= b[j] and b[j - 1] <= a[j]):
                continue
            a2, b2 = a.copy(), b.copy()
            a2[j:], b2[j:] = b[j:].copy(), a[j:].copy()
            vals = f_F_density(model, np.vstack([a, b, a2, b2]))
            if np.any(vals <= 0):
                continue
            lhs = math.log(vals[0]) + math.log(vals[1])
            rhs = math.log(vals[2]) + math.log(vals[3])
            worst = _worst(worst, abs(lhs - rhs))
        return _tolcheck(worst, 1e-9, "tail-swap invariance of log f sums")

    @check("entropy_shift_identity")
    def _entropy_shift():
        # the shift identity is for copulas supported on the ordered image
        # region; c_F qualifies, the exchangeable c_delta does not
        if d != 2:
            return _verdict(None, detail="quadrature route kept to d=2")
        cfun = lambda U: c_F_density(margins, U, hazards=model.hazards)
        sfun = symmetrize_density(delta, cfun)
        ms = margins.margins

        # c_F lives on the image of the ordered region under x -> F(x), so
        # u = F(x) turns H(c_F) into the ordered rule on the marginal scale,
        # weighted by f_1 f_2; the margins' cdfs and densities read each
        # level of a block once, and c_F gets the cdf levels as a block
        def c_half(X):
            cols = _Columns.of(X)
            out = -xlogx(cfun(cols.map_each([m.cdf for m in ms]).block()))
            for j, m in enumerate(ms):
                out *= cols.read(j, m.pdf)
            return out
        hc = simplex_integral(c_half, 2, lo, hi, cuts=margin_cuts)
        # the shifted density is exchangeable, so its cube entropy is twice
        # the sorted-region one; it kinks at the component knots
        hs = 2.0 * quad_entropy(sfun, 2, 0.0, 1.0,
                                cuts=[k for comp in delta.components
                                      for k in comp.knots()])
        hdelta = sum(comp.entropy() for comp in delta.components)
        expect = math.log(2) + hdelta
        return _tolcheck(abs((hs - hc) - expect), 1e-3,
                         f"H(shift)-H(c_F)={hs - hc:.6f} expected={expect:.6f}")

    return named


def run_full_verification(subject, *, n_samples: int = 10000, seed: int = 0,
                          grid: int = 1024) -> VerificationReport:
    """Run the consistency battery on a marginal vector or multidiagonal."""
    if isinstance(subject, MarginalVector):
        kind, checks = "marginal_vector", _marginal_checks
    elif isinstance(subject, Multidiagonal):
        kind, checks = "multidiagonal", _delta_checks
    else:
        raise TypeError(f"cannot verify a {type(subject).__name__}")
    named = checks(subject, seed=seed, n_samples=n_samples, grid=grid)
    results = _run_checks(named)
    return VerificationReport(kind, subject.d, tuple(results))
