"""Maximum-entropy joint distribution of order statistics.

For a stochastically ordered, absolutely continuous marginal vector F the
entropy-maximizing joint density factorizes along consecutive pairs:

    f(x) = f_1(x_1) prod_{i=2}^d l_i(x_i) exp(-Lambda_i(x_{i-1}, x_i))

on the region where rows are sorted and every gap (x_{i-1}, x_i) stays
inside the separation set of the pair.  Its entropy is

    H = d - 1 + sum_i H(F_i) - J(F),

degenerate (-inf) when a marginal entropy diverges or J does.  The same
pair hazards drive the exact conditional sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cdfs import _Columns
from .errors import Degenerate, InvalidMarginal
from .hazards import PairHazard, TableHazard
from .intervals import IntervalSet
from .marginals import (EQ_TOL, MarginalVector, check_stochastic_order,
                        in_support_LF, j_functional, sigma_measure)


@dataclass(frozen=True)
class DegeneracyReport:
    """Why (or that) the model has a finite-entropy density.

    verdict is one of "ok", "not_F0", "marginal_entropy_minus_inf",
    "j_infinite".  in_f0 records absolute continuity with zero residual
    separation mass, independently of the verdict.
    """

    verdict: str
    in_f0: bool
    entropy: float
    j_value: float
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.verdict == "ok"

    def __str__(self):
        tail = f" ({self.detail})" if self.detail else ""
        return (f"verdict={self.verdict}{tail} in_f0={self.in_f0} "
                f"entropy={self.entropy} J={self.j_value}")


def detect_degenerate(margins: MarginalVector) -> DegeneracyReport:
    """Classify the marginal vector; raises InvalidMarginal if unordered."""
    order = check_stochastic_order(margins)
    if not order.ordered:
        i, s, fp, fc = order.violations[0]
        raise InvalidMarginal(
            f"margins {i - 1} and {i} are not stochastically ordered at "
            f"t={s!r}: {fp!r} < {fc!r}")
    ac = all(m.is_absolutely_continuous for m in margins.margins)
    sigma = sigma_measure(margins) if ac else 1.0
    in_f0 = ac and sigma <= EQ_TOL
    if not ac:
        bad = [i for i, m in enumerate(margins.margins, 1)
               if not m.is_absolutely_continuous]
        return DegeneracyReport("not_F0", False, -math.inf, math.nan,
                                f"margin {bad[0]} has a singular part")
    hsum = 0.0
    for i, m in enumerate(margins.margins, start=1):
        h = m.entropy()
        if not math.isfinite(h):
            return DegeneracyReport("marginal_entropy_minus_inf", in_f0,
                                    -math.inf, math.nan, f"margin {i}")
        hsum += h
    jv = j_functional(margins, method="auto")
    if not math.isfinite(jv):
        return DegeneracyReport("j_infinite", in_f0, -math.inf, jv,
                                f"residual separation mass {sigma:.6g}"
                                if sigma > EQ_TOL else "")
    return DegeneracyReport("ok", in_f0, margins.d - 1.0 + hsum - jv, jv)


class MaxEntModel:
    """Marginal vector plus the pair hazards of consecutive margins."""

    def __init__(self, margins: MarginalVector, *, force_table: bool = False):
        # raises InvalidMarginal for an unordered vector, before any hazard
        self.degeneracy = detect_degenerate(margins)
        self.margins = margins
        self.d = margins.d
        pairs = dict(enumerate(margins.pairs, start=2))
        self.psis: dict[int, IntervalSet] = {i: p.psi for i, p in pairs.items()}
        self.hazards: dict[int, PairHazard] = {
            i: TableHazard(p) if force_table else p.hazard
            for i, p in pairs.items()}


def build_model(margins: MarginalVector, *, force_table: bool = False) -> MaxEntModel:
    return MaxEntModel(margins, force_table=force_table)


def hazard(model: MaxEntModel, i: int, t) -> np.ndarray:
    """Conditional hazard l_i between margins i-1 and i, for 2 <= i <= d."""
    if not 2 <= i <= model.d:
        raise ValueError(f"hazard index {i} out of range 2..{model.d}")
    return model.hazards[i].ell(np.asarray(t, dtype=float))


def _add_pair_terms(logf, cols: _Columns, hazards: dict, work):
    """logf += log ell_i(x_i) - Lambda_i(x_{i-1}, x_i) for each pair i = 2..d
    of hazards, in place, on the columns x of cols, with work the two
    buffers of cols.buffers(2).

    Lambda_i is +inf where x_{i-1} and x_i lie in different separation
    intervals, whose thetas carry unrelated constants, so such a row reads
    log density -inf.
    """
    for i, hz in hazards.items():
        term = cols.read(i - 1, lambda t: np.log(hz.ell(t)), out=work[0])
        term -= cols.between(hz, i, out=work[1])
        logf += term


def f_F_density(model: MaxEntModel, x) -> np.ndarray:
    """Joint density at rows of x, zero off the ordered support region.

    The log density is a sum of terms that each read one coordinate, and
    the hazard integrals between consecutive ones.  On a quadrature block
    that carries its columns' levels (cdfs._LevelBlock) f_1, ell and
    theta read each level once and are gathered; the support mask and the
    sums read the points.
    """
    for i, m in enumerate(model.margins.margins, start=1):
        if not m.is_absolutely_continuous:
            raise Degenerate(f"margin {i} has a singular part, no joint density")
    points = np.atleast_2d(np.asarray(x, dtype=float))
    if points.shape[1] != model.d:
        raise ValueError(f"points must have {model.d} columns")
    valid = in_support_LF(model.margins, points)
    if not np.any(valid):
        return np.zeros(points.shape[0])
    # with every row on the support the columns of x are read in place
    every = bool(np.all(valid))
    cols = _Columns.of(x, None if every else valid)
    first = model.margins.margins[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logf = cols.read(0, lambda t: np.log(np.asarray(first.pdf(t), dtype=float)))
        _add_pair_terms(logf, cols, model.hazards, cols.buffers(2))
        vals = np.exp(logf, out=logf)
    # exp is never negative, so fmax maps NaN alone to 0
    vals = np.fmax(vals, 0.0, out=vals)
    if every:
        return vals
    out = np.zeros(points.shape[0])
    out[valid] = vals
    return out


def joint_entropy_closed(source) -> float:
    """Model entropy d - 1 + sum H(F_i) - J(F); -inf when degenerate."""
    report = source.degeneracy if isinstance(source, MaxEntModel) \
        else detect_degenerate(source)
    return report.entropy


def sample(model: MaxEntModel, n: int, seed: int = 0,
           allow_infinite_entropy: bool = False) -> np.ndarray:
    """n rows of the ordered vector, by exact conditional inversion.

    The first coordinate inverts F_1; each next one solves
    Lambda_i(x_{i-1}, t) = -log(1 - V) inside the separation interval of
    x_{i-1}.  Refuses degenerate models; an infinite-J model that still
    has zero residual separation mass can be forced with
    allow_infinite_entropy.
    """
    rep = model.degeneracy
    if not rep.ok:
        forced = (rep.verdict == "j_infinite" and rep.in_f0
                  and allow_infinite_entropy)
        if not forced:
            raise Degenerate(f"cannot sample: {rep}")
    rng = np.random.default_rng(seed)
    return _draw_sorted(model.margins.margins[0], model.hazards, n, rng)


def _draw_sorted(first, hazards: dict, n: int, rng: np.random.Generator) -> np.ndarray:
    """n sorted rows from first, then the hazards[i] for i = 2..d.

    Column 1 inverts first; column i solves theta_i(t) - theta_i(s) =
    -log(1 - V) from s = x_{i-1}, which hazards[i].solve_tail places in
    its separation interval.  The generator gives n uniforms per column,
    in column order.
    """
    X = np.empty((n, len(hazards) + 1))
    u0 = np.clip(rng.random(n), 1e-16, 1.0 - 1e-16)
    X[:, 0] = first.ppf(u0)
    for i in range(2, X.shape[1] + 1):
        targets = -np.log1p(-rng.random(n))
        X[:, i - 1] = hazards[i].solve_tail(X[:, i - 2], targets)
    return X
