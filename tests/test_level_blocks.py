"""Quadrature blocks that carry their columns' levels.

The ordered rule hands each block to its integrand as an array whose
column j is values[index] for a few values per column; at d = 2 c_F reads
those blocks mapped through the margins' cdfs.  f_F, c_F, c_delta and the
multidiagonal shift then read every term of one coordinate once per value
and gather it.  Those terms are elementwise, so the level route must give
the plain-array route's bits: the same blocks copied to plain arrays, and
the row-wise code of test_column_passes, which fixes the order in which
the terms are summed.  On the rule's own blocks the work must follow the
levels, not the points.
"""

import functools
import math

import numpy as np
import pytest

from maxentos import (CopulaKernel, MarginalVector, Multidiagonal, build_model,
                      c_F_density, c_delta_density, f_F_density,
                      multidiagonal_from_marginals, multidiagonal_of_iid_uniform,
                      symmetrize_density, verify)
from maxentos.cdfs import (AverageCdf, BetaOneKCdf, ExponentialCdf,
                           PiecewiseLinearCdf, _Columns, _level_block, _LevelBlock)
from maxentos.copula import _rows_sorted
from maxentos.hazards import ExpPairHazard
from test_column_passes import (_ref_c_delta_density, _ref_c_F_density,
                                _ref_f_F_density, _ref_symmetrize_density)


def _tent():
    return (PiecewiseLinearCdf(((0, 0), (0.5, 0.75), (1, 1))),
            PiecewiseLinearCdf(((0, 0), (0.5, 0.25), (1, 1))))


MARGINS = {
    "beta2": (BetaOneKCdf(2), BetaOneKCdf(1)),
    "exp3": (ExponentialCdf(3.0), ExponentialCdf(2.0), ExponentialCdf(1.0)),
    "tent": _tent(),
    "beta3_exp1": (BetaOneKCdf(3), ExponentialCdf(1.0)),
}
DELTAS = {"iid3": lambda: multidiagonal_of_iid_uniform(3),
          "tent_delta": lambda: Multidiagonal(_tent())}


def _poly(V):
    # a copula-like c_fn for the shift where c_F does not apply
    return 1.0 + V[:, 0] - V[:, -1]


def _blocks(rule):
    """The first, a middle and the last block that rule(fn) hands fn."""
    seen = []
    rule(lambda X: (seen.append(X), np.zeros(len(X)))[1])
    return [seen[0], seen[len(seen) // 2], seen[-1]]


def _cuts(components):
    return sorted({float(k) for c in components for k in c.knots() if 0.0 < float(k) < 1.0})


@functools.cache
def _subject(name):
    """(density, reference, blocks) per density of the subject, each block
    as the battery's rule builds it."""
    cases = {}
    if name in DELTAS:
        delta = DELTAS[name]()
        margins = model = None
    else:
        margins = MarginalVector(MARGINS[name])
        delta = multidiagonal_from_marginals(margins)
        model = build_model(margins)
    d = delta.d
    kernel = CopulaKernel(delta)
    nodes = None if d < 3 else 128
    unit = _blocks(lambda fn: verify.simplex_integral(fn, d, 0.0, 1.0, nodes=nodes,
                                                      cuts=_cuts(delta.components)))
    cases["c_delta"] = (lambda U: c_delta_density(kernel, U),
                        lambda U: _ref_c_delta_density(kernel, U), unit)
    if margins is None:
        c_fn = _poly
    else:
        lo = min(float(m.ppf(1e-12)) for m in margins)
        hi = max(float(m.ppf(1.0 - 1e-12)) for m in margins)
        cuts = sorted({float(k) for m in margins for k in m.knots() if lo < float(k) < hi})
        joint = _blocks(lambda fn: verify.simplex_integral(fn, d, lo, hi, nodes=nodes,
                                                           cuts=cuts))
        cases["f_F"] = (lambda X: f_F_density(model, X),
                        lambda X: _ref_f_F_density(model, X), joint)

        def c_fn(U):
            return c_F_density(margins, U, hazards=model.hazards)
        ref_c = functools.partial(_ref_c_F_density, margins, hazards=model.hazards)
        if d == 2:
            # the shift identity's c_F half: the ordered rule's blocks on the
            # marginal scale, mapped through the cdfs
            region = [_Columns.of(X).map_each([m.cdf for m in margins]).block()
                      for X in joint]
        else:
            region = unit
        cases["c_F"] = (c_fn, ref_c, region)
    cases["shift"] = (symmetrize_density(delta, c_fn),
                      _ref_symmetrize_density(delta, c_fn), unit)
    return cases, delta, kernel


SUBJECTS = sorted(MARGINS) + sorted(DELTAS)
CASES = [(name, density) for name in SUBJECTS
         for density in ("f_F", "c_F", "c_delta", "shift")
         if density in _subject(name)[0]]


def _carrying(P):
    """P as a level block: per column its distinct values by bits (so -0.0
    and each NaN keep theirs), and each row's place among them."""
    cols = []
    for c in np.asarray(P, dtype=float).T:
        bits, index = np.unique(c.view(np.int64), return_inverse=True)
        cols.append((bits.view(float), index.ravel()))
    block = _level_block(cols)
    assert block.view(np.int64).tolist() == np.asarray(P).view(np.int64).tolist()
    return block


def _specials(delta, kernel):
    """Values a block's rows may hold beyond Gauss nodes: both ends of the
    unit interval, signed zeros, and every separation-set end with its
    neighbouring floats."""
    ends = {float(e) for s in kernel.psis.values() for iv in s for e in iv
            if math.isfinite(e) and 0.0 <= e <= 1.0}
    ends |= {float(k) for c in delta.components for k in c.knots() if 0.0 <= k <= 1.0}
    near = {float(np.nextafter(e, side)) for e in ends for side in (-1.0, 2.0)}
    return np.array(sorted(ends | near | {0.0, 1.0})), np.array([-0.0, 0.0, 1.0])


def _special_rows(block, specials, signed, rng, sort):
    """200 rows of block with special values, tied neighbours and
    signed zeros put in; sorted rows when sort, else NaN and unsorted
    rows as well."""
    X = np.array(block)[rng.choice(len(block), 200)]
    d = X.shape[1]
    for r in range(len(X)):
        kind = r % 5
        if kind == 1:
            X[r, rng.integers(d)] = rng.choice(specials)
        elif kind == 2 and d > 1:
            j = rng.integers(d - 1)
            X[r, j + 1] = X[r, j]                      # a tie
        elif kind == 3:
            X[r, rng.integers(d)] = rng.choice(signed)
        elif kind == 4 and not sort:
            X[r, rng.integers(d)] = math.nan
    if sort:
        X = np.sort(X, axis=1)
        X[X == 0.0] = np.where(np.arange(np.count_nonzero(X == 0.0)) % 2, 0.0, -0.0)
    else:
        X[::7] = X[::7, ::-1]                          # unsorted rows
    return X


def _same_bits(*arrays):
    first = np.asarray(arrays[0])
    for a in arrays[1:]:
        a = np.asarray(a)
        assert a.dtype == first.dtype and a.shape == first.shape
        assert a.tobytes() == first.tobytes()


@pytest.mark.parametrize("name, density", CASES)
def test_level_route_matches_plain_route_on_rule_blocks(name, density):
    fn, ref, blocks = _subject(name)[0][density]
    live = 0
    for block in blocks:
        assert isinstance(block, _LevelBlock) and block.levels is not None
        if density in ("c_delta", "shift"):
            assert _rows_sorted(block)          # or the levels are dropped
        plain = np.array(block)
        got = fn(block)
        live += np.count_nonzero(got)
        _same_bits(got, fn(plain), ref(plain))
    # the blocks reach the support (the last one may lie beyond it)
    assert live > 10_000


@pytest.mark.parametrize("name, density", CASES)
@pytest.mark.parametrize("sort", [True, False])
def test_level_route_matches_plain_route_on_special_rows(name, density, sort):
    cases, delta, kernel = _subject(name)
    fn, ref, blocks = cases[density]
    specials, signed = _specials(delta, kernel)
    if density == "f_F":
        # the joint scale: the special values mapped by each margin's quantile
        joint = MARGINS[name][0].ppf(specials)
        specials = np.concatenate([specials, joint[np.isfinite(joint)]])
    rng = np.random.default_rng(19)
    for block in blocks:
        P = _special_rows(block, specials, signed, rng, sort)
        if sort and density in ("c_delta", "shift"):
            assert _rows_sorted(P)
        _same_bits(fn(_carrying(P)), fn(P), ref(P))


def test_carried_levels_do_not_pass_to_slices_or_results():
    block = _carrying(np.array([[0.25, 0.5], [0.25, 0.75], [-0.0, 0.75]]))
    assert len(block.levels) == 2
    for derived in (block[:2], block[:, 0], block.T, block * 1.0, block + 0.0,
                    block.copy(), np.sort(block, axis=1)):
        assert derived.levels is None


def _counted_pass(run, monkeypatch):
    """Values into G^{-1}, into a margin's ppf outside G^{-1}, into a pair
    hazard's theta and into np.unique over one run()."""
    counts = dict.fromkeys(("G", "ppf", "theta", "unique"), 0)
    inside = []

    def wrap(owner, attr, key, nested=False):
        fn = getattr(owner, attr)

        def counted(*args, **kwargs):
            x = args[1] if owner is not np else args[0]
            if not (nested and any(inside)):
                counts[key] += np.size(x)
            inside.append(key == "G")
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(owner, attr, counted)

    wrap(AverageCdf, "ppf", "G")
    # G^{-1} reads every margin's quantile at each distinct level it solves
    # for its bracket; those are counted under G
    wrap(BetaOneKCdf, "ppf", "ppf", nested=True)
    wrap(ExpPairHazard, "theta", "theta")
    wrap(np, "unique", "unique")
    run()
    monkeypatch.undo()
    return counts


def test_beta2_passes_read_few_levels(beta2, beta2_delta, beta2_model, monkeypatch):
    # the battery's c_delta mass and entropy pass and the shift half of
    # entropy_shift_identity, on 152,320 points each: every point sent its
    # values to G^{-1} (304,640), to theta and, in the shift, to both
    # margins' ppf, and np.unique ran over all of them
    kernel = CopulaKernel(beta2_delta)
    cfun = lambda U: c_F_density(beta2, U, hazards=beta2_model.hazards)
    passes = {
        "c_delta": lambda: verify._mass_and_entropy(
            lambda U: c_delta_density(kernel, U), 2, 0.0, 1.0, [], scale=2.0)(),
        "shift": lambda: verify.quad_entropy(symmetrize_density(beta2_delta, cfun),
                                             2, 0.0, 1.0, cuts=[0.0, 1.0]),
    }
    for name, run in passes.items():
        counts = _counted_pass(run, monkeypatch)
        assert 0 < counts["G"] <= 20_000, (name, counts)
        assert counts["theta"] <= 20_000, (name, counts)
        assert counts["ppf"] <= 20_000, (name, counts)
        # np.unique reads G^{-1}'s levels and the rule's panel edges only
        assert counts["unique"] <= counts["G"] + 64, (name, counts)
