"""Benchmark of maxentos: three workloads, one closed-loop client.

    python3 perfbench/run.py --workload joint --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ./src.

Workloads (why each exists is in BENCHMARK.json):

  joint   CLI `sample` and `density` through in-process maxentos.cli.main,
          CSV to a scratch directory, on one spec per hazard route:
          exp3 (closed-form inverse), beta5 (beta bisection), tent
          (piecewise bisection), beta3_exp1 (table).
  copula  CopulaKernel, sample_copula and c_delta_density on the exp3 and
          tent multidiagonals built from margins (transport route, Newton
          quantiles) and on iid4 (closed kernels).
  verify  run_full_verification on beta2 and iid3, with light sampling and
          density rounds on the same subjects between the batteries.  The
          batteries run at their own fixed seeds (the library default);
          --seed drives the light rounds.

A run builds everything the ops take (timed: setup_s, the median over
builds spread across the run) and runs passes over the workload's ops
until --seconds of passes have elapsed.  Inside a pass the specs are
visited round-robin, so a slow stretch of the host hits every spec alike.
Every op's output is checked; the last line of stdout is the result JSON,
the line before it the environment and pass statistics.

--trace 1 runs a few untraced passes, then installs the span tracer
(perfbench/spans.py) and runs one traced setup and one traced pass; it
prints the per-layer metrics and writes the spans to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent

# one thread everywhere: the library's verify pool and the BLAS
os.environ["MAXENTOS_THREADS"] = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

KS_FACTOR = 1.63             # the battery's own sampler KS factor
QUANTILE_LEVELS = (0.1, 0.5, 0.9)

TENT = {"margins": [
    {"family": "piecewise_linear", "knots": [[0.0, 0.0], [0.5, 0.75], [1.0, 1.0]]},
    {"family": "piecewise_linear", "knots": [[0.0, 0.0], [0.5, 0.25], [1.0, 1.0]]}]}
SPECS = {
    "exp3": {"margins": [{"family": "exponential", "rate": r} for r in (3.0, 2.0, 1.0)]},
    "beta5": {"margins": [{"family": "beta_1_k", "k": k} for k in (5, 4, 3, 2, 1)]},
    "tent": TENT,
    "beta3_exp1": {"margins": [{"family": "beta_1_k", "k": 3},
                               {"family": "exponential", "rate": 1.0}]},
    "beta2": {"margins": [{"family": "beta_1_k", "k": 2},
                          {"family": "beta_1_k", "k": 1}]},
}

# per scale: spec -> (sample rows, density grid points per axis)
JOINT_SIZES = {
    "full": {"exp3": (20000, 24), "beta5": (5000, 7), "tent": (5000, 100),
             "beta3_exp1": (200, 70)},
    "tiny": {"exp3": (400, 5), "beta5": (200, 3), "tent": (200, 8),
             "beta3_exp1": (30, 6)},
}
COPULA_SIZES = {
    "full": {"exp3": (20000, 24), "tent": (10000, 100), "iid4": (20000, 16)},
    "tiny": {"exp3": (400, 5), "tent": (300, 10), "iid4": (400, 4)},
}
VERIFY_LIGHT = {"full": (20000, 400, 56), "tiny": (300, 8, 4)}   # rows, beta2 grid, iid3 grid
# setup_s is the median of SETUP_REPEATS samples, each the mean build time
# of SETUP_BATCH consecutive builds: a joint build takes ~0.05 s, shorter
# than the host's speed swings, so its samples average a few builds.
SETUP_REPEATS = {"joint": 9, "copula": 3, "verify": 3}
SETUP_BATCH = {"joint": 5, "copula": 1, "verify": 1}
# at least five samples per spec for the median distribution check (Tally);
# a verify pass holds VERIFY_ROUNDS samples
MIN_PASSES = {"joint": 5, "copula": 5, "verify": 1}
VERIFY_ROUNDS = 6


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """maxentos from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "maxentos" / "__init__.py").is_file():
        _fail(f"no package source under {src}")
    sys.path.insert(0, str(src))
    import maxentos
    import maxentos.cli  # noqa: F401  (the cli layer, for the tracer)
    if Path(maxentos.__file__).resolve().parent != (src / "maxentos").resolve():
        _fail(f"imported maxentos from {maxentos.__file__}, not from {src}")
    return maxentos


def op_seed(seed: int, *parts: int) -> int:
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1, np.uint64)[0] >> 1)


# -- population quantiles and checks ------------------------------------

def population_quantile(margin: dict, q: float) -> float:
    """Closed-form quantile of a spec margin; independent of the package."""
    fam = margin["family"]
    if fam == "exponential":
        return -math.log1p(-q) / margin["rate"]
    if fam == "beta_1_k":
        return -math.expm1(math.log1p(-q) / margin["k"])
    if fam == "piecewise_linear":
        xs, fs = zip(*margin["knots"])
        return float(np.interp(q, fs, xs))
    raise KeyError(fam)


def ks_distance(x: np.ndarray, cdf: Callable) -> float:
    x = np.sort(x)
    n = x.size
    F = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - F), np.max(F - (i - 1) / n)))


def distribution_stats(X: np.ndarray, cdfs: list, quantiles: list) -> list[float]:
    """Per column, sqrt(n) times the larger of the KS distance to its CDF
    and the worst gap between the empirical CDF at the stored population
    quantiles and their levels.  Under a correct sampler each exceeds
    KS_FACTOR with probability about 1 %."""
    n = X.shape[0]
    out = []
    for col, cdf, qs in zip(X.T, cdfs, quantiles):
        gap = max(abs(float(np.mean(col <= xq)) - lvl)
                  for lvl, xq in zip(QUANTILE_LEVELS, qs))
        out.append(math.sqrt(n) * max(ks_distance(col, cdf), gap))
    return out


def density_sums(P: np.ndarray, f: np.ndarray, cell: float) -> dict:
    """Weighted sums of a density on a grid: mass and last-coordinate moment."""
    return {"mass": float(np.sum(f) * cell), "moment": float(np.sum(f * P[:, -1]) * cell)}


def midpoint_grid(g: int, d: int) -> np.ndarray:
    axis = (np.arange(g) + 0.5) / g
    return np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)


# -- ops -----------------------------------------------------------------

@dataclass
class Checked:
    count: int                      # rows or points produced
    problem: str | None = None
    dist: list[float] | None = None  # per-column distribution statistic


@dataclass
class Op:
    name: str                       # "<kind>/<spec>"
    kind: str                       # "rows", "points" or "other"
    run: Callable[[], object]       # the timed call
    check: Callable[[object], Checked]


@dataclass
class Context:
    pkg: object
    fingerprints: dict
    scale: str
    tmp: Path
    bytes_out: int = 0
    record: dict | None = None      # set while recording fingerprints


def check_density(ctx: Context, key: str, P: np.ndarray, f: np.ndarray,
                  cell: float, edge: np.ndarray | None = None) -> Checked:
    """Densities finite and >= 0, and their weighted sums as stored.

    edge marks grid points on the boundary of the evaluation box, where
    the density may be +inf (an integrable singularity at a support end,
    as for tent at the origin); they are left out of the sums."""
    f = np.asarray(f, dtype=float)
    if f.shape != (P.shape[0],) or np.any(np.isnan(f)) or np.any(f < 0.0):
        return Checked(P.shape[0], "density NaN or negative")
    finite = np.isfinite(f)
    if not np.all(finite | (edge if edge is not None else False)):
        return Checked(P.shape[0], "density not finite inside the evaluation box")
    got = density_sums(P[finite], f[finite], cell)
    if ctx.record is not None:
        ctx.record.setdefault("densities", {})[key] = got
        return Checked(P.shape[0])
    ref = ctx.fingerprints["densities"].get(key)
    if ref is None:
        return Checked(P.shape[0], f"no stored fingerprint {key}")
    tol = ctx.fingerprints["tolerance"]["density_rel"]
    for k, v in got.items():
        if abs(v - ref[k]) > tol * max(abs(ref[k]), 1e-300):
            return Checked(P.shape[0], f"{key} {k}={v!r}, stored {ref[k]!r}")
    return Checked(P.shape[0])


def check_sample(ctx: Context, spec: str, X, n: int, d: int, cdfs: list,
                 ordered: bool) -> Checked:
    X = np.asarray(X, dtype=float)
    if X.shape != (n, d) or not np.all(np.isfinite(X)):
        return Checked(0, f"sample shape {X.shape} or non-finite values")
    if ordered and np.any(np.diff(X, axis=1) < 0.0):
        return Checked(n, "sampled rows not sorted")
    if not ordered and (np.any(X < 0.0) or np.any(X > 1.0)):
        return Checked(n, "copula sample outside [0, 1]")
    quantiles = ctx.fingerprints["quantiles"][spec]
    return Checked(n, dist=distribution_stats(X, cdfs, quantiles))


# -- workloads -----------------------------------------------------------

class Joint:
    name = "joint"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.sizes = JOINT_SIZES[ctx.scale]
        self.paths = {}
        for spec in self.sizes:
            p = ctx.tmp / f"{spec}.json"
            p.write_text(json.dumps(SPECS[spec]))
            self.paths[spec] = p

    def setup(self):
        M = self.ctx.pkg
        state = {}
        for spec in self.sizes:
            margins = M.marginal_vector_from_dict(SPECS[spec])
            state[spec] = (margins, M.build_model(margins), M.detect_degenerate(margins))
        return state

    def setup_problems(self, state) -> list[str]:
        return [f"{spec}: {rep}" for spec, (_, _, rep) in state.items() if not rep.ok]

    def _cli(self, args: list[str]):
        rc = self.ctx.pkg.cli.main(args)
        if rc != 0:
            raise RuntimeError(f"maxentos {' '.join(args)} exited {rc}")

    def _read_csv(self, path: Path) -> np.ndarray:
        self.ctx.bytes_out += path.stat().st_size
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)

    def ops(self, state, seed: int, pass_idx: int) -> list[Op]:
        samples, densities = [], []
        for k, (spec, (n, grid)) in enumerate(self.sizes.items()):
            margins = state[spec][0]
            d = margins.d
            out = self.ctx.tmp / f"{spec}.csv"
            s = op_seed(seed, pass_idx, k)
            samples.append(Op(
                f"sample/{spec}", "rows",
                lambda spec=spec, n=n, out=out, s=s: self._cli(
                    ["sample", "--input", str(self.paths[spec]), "--output", str(out),
                     "--n", str(n), "--seed", str(s)]),
                lambda _, spec=spec, n=n, d=d, out=out, margins=margins: check_sample(
                    self.ctx, spec, self._read_csv(out), n, d,
                    [m.cdf for m in margins.margins], ordered=True)))
            densities.append(Op(
                f"density/{spec}", "points",
                lambda spec=spec, grid=grid, out=out: self._cli(
                    ["density", "--input", str(self.paths[spec]), "--output", str(out),
                     "--grid", str(grid)]),
                lambda _, spec=spec, grid=grid, d=d, out=out: self._check_grid(
                    spec, grid, d, self._read_csv(out))))
        return samples + densities

    def _check_grid(self, spec: str, grid: int, d: int, table: np.ndarray) -> Checked:
        if table.shape != (grid ** d, d + 1):
            return Checked(0, f"density table shape {table.shape}")
        P, f = table[:, :d], table[:, d]
        lo, hi = P.min(axis=0), P.max(axis=0)
        edge = np.any((P == lo) | (P == hi), axis=1)
        return check_density(self.ctx, f"joint/{spec}/g{grid}", P, f,
                             float(np.prod((hi - lo) / (grid - 1))), edge)


class Copula:
    name = "copula"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.sizes = COPULA_SIZES[ctx.scale]
        self.grids = {spec: midpoint_grid(g, 4 if spec == "iid4" else
                                          len(SPECS[spec]["margins"]))
                      for spec, (_, g) in self.sizes.items()}

    def setup(self):
        M = self.ctx.pkg
        state = {}
        for spec in self.sizes:
            if spec == "iid4":
                delta = M.multidiagonal_of_iid_uniform(4)
            else:
                delta = M.multidiagonal_from_marginals(M.marginal_vector_from_dict(SPECS[spec]))
            state[spec] = M.CopulaKernel(delta)
        return state

    def setup_problems(self, state) -> list[str]:
        return [f"{spec}: {k.report}" for spec, k in state.items() if not k.report.is_D0]

    def ops(self, state, seed: int, pass_idx: int) -> list[Op]:
        M = self.ctx.pkg
        samples, densities = [], []
        for k, (spec, (n, grid)) in enumerate(self.sizes.items()):
            kernel = state[spec]
            s = op_seed(seed, pass_idx, k)
            samples.append(Op(
                f"sample/{spec}", "rows",
                lambda kernel=kernel, n=n, s=s: M.sample_copula(kernel, n, seed=s),
                lambda U, kernel=kernel, n=n: check_sample(
                    self.ctx, f"uniform{kernel.d}", U, n, kernel.d,
                    [lambda u: u] * kernel.d, ordered=False)))
            P = self.grids[spec]
            densities.append(Op(
                f"density/{spec}", "points",
                lambda kernel=kernel, P=P: M.c_delta_density(kernel, P),
                lambda f, spec=spec, grid=grid, P=P: check_density(
                    self.ctx, f"copula/{spec}/m{grid}", P, f, 1.0 / len(P))))
        return samples + densities


class Verify:
    name = "verify"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.rows, g2, g3 = VERIFY_LIGHT[ctx.scale]
        self.grids = {"beta2": (g2, midpoint_grid(g2, 2)), "iid3": (g3, midpoint_grid(g3, 3))}

    def setup(self):
        M = self.ctx.pkg
        beta2 = M.marginal_vector_from_dict(SPECS["beta2"])
        iid3 = M.multidiagonal_of_iid_uniform(3)
        return {
            "beta2": beta2, "iid3": iid3,
            "beta2_degeneracy": M.detect_degenerate(beta2),
            "beta2_delta": M.validate_multidiagonal(M.multidiagonal_from_marginals(beta2)),
            "iid3_delta": M.validate_multidiagonal(iid3),
            "beta2_model": M.build_model(beta2),
            "iid3_kernel": M.CopulaKernel(iid3),
        }

    def setup_problems(self, state) -> list[str]:
        out = []
        if not state["beta2_degeneracy"].ok:
            out.append(f"beta2: {state['beta2_degeneracy']}")
        for key in ("beta2_delta", "iid3_delta"):
            if not state[key].is_D0:
                out.append(f"{key}: {state[key]}")
        return out

    def _battery(self, state, subject: str) -> Op:
        """The battery at its own fixed seeds, the library default.  Its
        sampler checks pass 2 of 3 draws at a 1.63/sqrt(n) KS bound, so on
        a correct sampler a freshly seeded battery still fails by chance,
        a few times in a thousand; the seeded sampling checks of this
        workload are the light rounds."""
        M = self.ctx.pkg
        return Op(f"battery/{subject}", "other",
                  lambda: M.run_full_verification(state[subject]),
                  lambda rep: self._check_report(subject, rep))

    def _check_report(self, subject: str, rep) -> Checked:
        if not rep.all_passed:
            bad = [str(c) for c in rep.checks if c.passed is False]
            return Checked(0, f"battery {subject} failed: {bad}")
        got = {c.name: c.status for c in rep.checks}
        if self.ctx.record is not None:
            self.ctx.record.setdefault("batteries", {})[subject] = got
        elif got != self.ctx.fingerprints["batteries"][subject]:
            return Checked(0, f"battery {subject} checks {got} differ from stored")
        return Checked(0)

    def _round(self, state, seed: int, pass_idx: int, r: int) -> list[Op]:
        M = self.ctx.pkg
        model, kernel, n = state["beta2_model"], state["iid3_kernel"], self.rows
        s2, s3 = op_seed(seed, pass_idx, r, 2), op_seed(seed, pass_idx, r, 3)
        (g2, P2), (g3, P3) = self.grids["beta2"], self.grids["iid3"]
        return [
            Op("sample/beta2", "rows", lambda: M.sample(model, n, seed=s2),
               lambda X: check_sample(self.ctx, "beta2", X, n, 2,
                                      [m.cdf for m in model.margins.margins], ordered=True)),
            Op("sample/iid3", "rows", lambda: M.sample_copula(kernel, n, seed=s3),
               lambda U: check_sample(self.ctx, "uniform3", U, n, 3,
                                      [lambda u: u] * 3, ordered=False)),
            Op("density/beta2", "points", lambda: M.f_F_density(model, P2),
               lambda f: check_density(self.ctx, f"verify/beta2/m{g2}", P2, f, 1.0 / len(P2))),
            Op("density/iid3", "points", lambda: M.c_delta_density(kernel, P3),
               lambda f: check_density(self.ctx, f"verify/iid3/m{g3}", P3, f, 1.0 / len(P3))),
        ]

    def ops(self, state, seed: int, pass_idx: int) -> list[Op]:
        """Light rounds before, between and after the two batteries, so
        that rows_per_s and points_per_s sample the whole pass."""
        rounds = [op for r in range(VERIFY_ROUNDS)
                  for op in self._round(state, seed, pass_idx, r)]
        third = len(rounds) // 3
        return (rounds[:third]
                + [self._battery(state, "beta2")]
                + rounds[third:2 * third]
                + [self._battery(state, "iid3")]
                + rounds[2 * third:])


WORKLOADS = {"joint": Joint, "copula": Copula, "verify": Verify}


# -- the run ---------------------------------------------------------------

def host_ref() -> float:
    """Fixed pure-Python plus numpy kernel, unrelated to maxentos.  A
    diagnostic beside every pass; it never rescales or gates a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += (i * i) % 7
    a = np.random.default_rng(12345).random(200000)
    np.sort(a)
    np.cumsum(np.sqrt(a))
    return time.perf_counter() - t0


@dataclass
class Tally:
    """Op outcomes of a run; sampling ops are held until the end for the
    distribution check."""
    attempted: int = 0
    failed: int = 0
    dists: dict = field(default_factory=dict)    # spec op name -> [per-column stats]
    problems: list = field(default_factory=list)

    def add(self, name: str, checked: Checked | None, error: str | None = None) -> None:
        self.attempted += 1
        problem = error or (checked.problem if checked else "no output")
        if problem:
            self.failed += 1
            self.problems.append(f"{name}: {problem}")
        elif checked.dist is not None:
            self.dists.setdefault(name, []).append(checked.dist)

    def finish(self) -> None:
        """Per spec and column, the median statistic over the run's passes
        must stay within KS_FACTOR; each pass samples with a fresh seed, so
        a correct sampler fails this by chance far less often than the 1 %
        of a single sample, while a biased one fails it in every pass."""
        for name, rows in self.dists.items():
            med = np.median(np.asarray(rows), axis=0)
            if np.any(med > KS_FACTOR):
                self.failed += len(rows)
                self.problems.append(
                    f"{name}: median sqrt(n)*KS per column {med.round(3).tolist()} "
                    f"> {KS_FACTOR}")


@dataclass
class PassRecord:
    seconds: float
    host_ref_s: float
    rows: int = 0
    rows_s: float = 0.0
    points: int = 0
    points_s: float = 0.0


def run_pass(wl, state, seed: int, pass_idx: int, tally: Tally,
             on_op: Callable[[int, str], None] | None = None) -> PassRecord:
    rec = PassRecord(0.0, host_ref())
    for k, op in enumerate(wl.ops(state, seed, pass_idx)):
        if on_op:
            on_op(k, op.name)
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception:                                 # noqa: BLE001
            rec.seconds += time.perf_counter() - t0
            tally.add(op.name, None, traceback.format_exc(limit=3))
            continue
        dt = time.perf_counter() - t0
        if on_op:
            on_op(-1, "check")
        checked = op.check(out)
        tally.add(op.name, checked)
        rec.seconds += dt
        if op.kind == "rows":
            rec.rows += checked.count
            rec.rows_s += dt
        elif op.kind == "points":
            rec.points += checked.count
            rec.points_s += dt
    return rec


def timed_setup(wl, tally: Tally, batch: int = 1):
    """(state, mean seconds per build) over batch consecutive builds."""
    t0 = time.perf_counter()
    try:
        for _ in range(batch):
            state = wl.setup()
    except Exception:                                     # noqa: BLE001
        tally.add("setup", None, traceback.format_exc(limit=3))
        return None, time.perf_counter() - t0
    dt = (time.perf_counter() - t0) / batch
    problems = wl.setup_problems(state)
    tally.add("setup", Checked(0, "; ".join(problems) or None))
    return state, dt


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


def environment(args, passes: int, setups: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    import scipy
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in
                    ("MAXENTOS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "passes": passes, "setup_builds": setups,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, args, tally: Tally):
    """Untraced passes for --seconds (at least MIN_PASSES), with the setup
    repeats spread evenly over that time; in a traced run, one setup and a
    few passes only, as the baseline of the tracing overhead.

    The host runs at two speeds, about 1.5x apart, in stretches of 5 to
    30 s.  Spreading the setup repeats over the run makes their median
    follow the speed that held for most of the run, not the speed of its
    first seconds."""
    batch = SETUP_BATCH[wl.name]
    state, first = timed_setup(wl, tally, batch)
    setups, passes = [first], []
    if state is None:
        return setups, passes
    repeats = 1 if args.trace else SETUP_REPEATS[wl.name]
    # the traced pass makes up the last of MIN_PASSES
    min_passes = max(MIN_PASSES[wl.name] - 1, 1) if args.trace else MIN_PASSES[wl.name]
    budget = 0.0 if args.trace else args.seconds
    spent = 0.0                  # seconds of passes; setup repeats are extra
    # stop when one more pass would overrun the budget by more than half a
    # pass: a verify pass takes about as long as the whole budget
    while len(passes) < min_passes or spent * (1 + 0.5 / len(passes)) < budget:
        t0 = time.perf_counter()
        passes.append(run_pass(wl, state, args.seed, len(passes), tally))
        spent += time.perf_counter() - t0
        while len(setups) < repeats and spent >= budget * len(setups) / repeats:
            setups.append(timed_setup(wl, tally, batch)[1])
    return setups, passes


def end_to_end(setups, passes, tally: Tally) -> dict:
    pass_s = [p.seconds for p in passes]
    rows = [p.rows / p.rows_s for p in passes if p.rows_s > 0]
    points = [p.points / p.points_s for p in passes if p.points_s > 0]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(pass_s), "s"),
        "rows_per_s": (statistics.median(rows) if rows else 0.0, "rows/s"),
        "points_per_s": (statistics.median(points) if points else 0.0, "points/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ops_ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(tracer, traced_pass: PassRecord, untraced: list[PassRecord],
              cli_bytes: int) -> dict:
    self_s = tracer.self_times()
    calls = tracer.calls()

    def st(name):
        return self_s.get(name, 0.0)

    solved = tracer.points("hazards.solve_tail")
    theta_in_solve = tracer.points("hazards.theta", inside="hazards.solve_tail")
    untraced_pass = statistics.median([p.seconds for p in untraced])
    metrics = {
        "hazards.solve_tail.self_s": (st("hazards.solve_tail"), "s"),
        "hazards.solve_tail.points": (solved, "count"),
        "hazards.theta.points": (theta_in_solve / solved if solved else 0.0, "points/row"),
        "hazards.theta.self_s": (st("hazards.theta"), "s"),
        "hazards.pair_hazard.self_s": (st("hazards.pair_hazard"), "s"),
        "marginals.in_support_LF.self_s": (st("marginals.in_support_LF"), "s"),
        "marginals.sigma_measure.self_s": (st("marginals.sigma_measure"), "s"),
        "marginals.psi_pair.calls": (calls.get("marginals.psi_pair", 0), "count"),
        "marginals.j_functional.self_s": (st("marginals.j_functional"), "s"),
        "joint.f_F_density.self_s": (st("joint.f_F_density"), "s"),
        "joint.build_model.self_s": (st("joint.build_model"), "s"),
        "joint.detect_degenerate.self_s": (st("joint.detect_degenerate"), "s"),
        "cdfs.ppf.self_s": (st("cdfs.ppf"), "s"),
        "cdfs.ppf.points": (tracer.points("cdfs.ppf"), "count"),
        "cdfs.eval.points": (tracer.points("cdfs.eval"), "count"),
        "intervals.self_s": (sum(v for k, v in self_s.items() if k.startswith("intervals.")), "s"),
        "multidiag.validate_multidiagonal.self_s": (st("multidiag.validate_multidiagonal"), "s"),
        "multidiag.j_functional_delta.self_s": (st("multidiag.j_functional_delta"), "s"),
        "copula.CopulaKernel.self_s": (st("copula.CopulaKernel"), "s"),
        "copula.c_delta_density.self_s": (st("copula.c_delta_density"), "s"),
        "copula.c_delta_density.points": (tracer.points("copula.c_delta_density"), "count"),
        "copula.sample_copula.self_s": (st("copula.sample_copula"), "s"),
        "verify.simplex_integral.self_s": (st("verify.simplex_integral"), "s"),
        "verify.quad_entropy.self_s": (st("verify.quad_entropy"), "s"),
        "verify.integrand_points": (tracer.integrand_points, "count"),
        "cli.overhead_s": (st("cli.main"), "s"),
        "cli.bytes_out": (cli_bytes, "bytes"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.pass_s": (traced_pass.seconds, "s"),
        "trace.overhead_s": (traced_pass.seconds - untraced_pass, "s"),
        "host.ref_s": (statistics.median([p.host_ref_s for p in untraced + [traced_pass]]), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def traced(wl, args, ctx: Context, tally: Tally, untraced: list[PassRecord]):
    """One traced setup and one traced pass; spans go to .perfbench_out/."""
    from spans import Tracer

    tracer = Tracer(ctx.pkg)
    op_names = ["setup"]

    def on_op(k: int, name: str) -> None:
        tracer.active = k >= 0
        if k >= 0:
            tracer.op = len(op_names)
            op_names.append(name)

    tracer.install()
    try:
        tracer.op, tracer.active = 0, True
        state, _ = timed_setup(wl, tally)
        tracer.active = False
        ctx.bytes_out = 0
        rec = run_pass(wl, state, args.seed, len(untraced), tally, on_op)
        tracer.active = False
    finally:
        tracer.uninstall()
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"trace-{wl.name}-seed{args.seed}.json", op_names)
    return per_layer(tracer, rec, untraced, ctx.bytes_out), rec


def load_fingerprints(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="op sizes; tiny is for the smoke test")
    p.add_argument("--fingerprints", type=Path, default=HERE / "fingerprints.json")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        _fail("--seed must be in [0, 2**63)")

    pkg = import_package()
    fingerprints = load_fingerprints(args.fingerprints)
    tmp = ROOT / ".perfbench_tmp" / f"{os.getpid():08d}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        ctx = Context(pkg, fingerprints, args.scale, tmp)
        wl = WORKLOADS[args.workload](ctx)
        tally = Tally()
        setups, passes = measure(wl, args, tally)
        if not passes:
            print("\n".join(tally.problems), file=sys.stderr)
            _fail("setup failed; no result")
        if args.trace:
            metrics, rec = traced(wl, args, ctx, tally, passes)
            passes = passes + [rec]
            tally.finish()
        else:
            tally.finish()
            metrics = end_to_end(setups, passes, tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    for problem in tally.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    detail = environment(args, len(passes), len(setups))
    detail["pass_s_quartiles"] = quartiles([p.seconds for p in passes])
    detail["setup_s_all"] = setups
    detail["host_ref_s_quartiles"] = quartiles([p.host_ref_s for p in passes])
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
