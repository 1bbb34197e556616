"""Command-line front door.

Subcommands: validate | entropy | sample | density | verify.  Input is a
JSON marginal specification {"margins": [{"family": ...}, ...]}; the
--multidiagonal flag reinterprets the same schema as component CDFs of a
multidiagonal on [0, 1] and routes every command to the copula layer.

Exit codes: 0 success, 1 domain failure (ordering violation, degeneracy,
failed checks), 2 usage or parse failure.  All human diagnostics go to
stderr; stdout carries the requested values, CSV, or report.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys

import numpy as np

from .copula import (CopulaKernel, c_delta_density, copula_entropy_closed,
                     order_stat_copula_entropy, sample_copula)
from .errors import MaxentError
from .joint import build_model, detect_degenerate, f_F_density, sample
from .marginals import MarginalVector, marginal_vector_from_dict
from .multidiag import (Multidiagonal, j_functional_delta,
                        multidiagonal_from_marginals, validate_multidiagonal)
from .verify import run_full_verification

try:
    from importlib.metadata import PackageNotFoundError, version
    _VERSION = version("maxentos")
except PackageNotFoundError:                                # pragma: no cover
    _VERSION = "0+unknown"

_CSV_FMT = "%.17g"
_CSV_CHUNK = 4096


class _InputError(Exception):
    """Unreadable or malformed input file (exit code 2)."""


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="maxentos",
        description="maximum-entropy order-statistics models: validate, "
                    "compute entropies, sample, export densities, verify")
    p.add_argument("command",
                   choices=("validate", "entropy", "sample", "density", "verify"))
    p.add_argument("--input", required=True, metavar="PATH",
                   help="JSON marginal specification")
    p.add_argument("--output", metavar="PATH",
                   help="output file (default: stdout)")
    p.add_argument("--seed", type=int, default=0, help="sampler seed (default 0)")
    p.add_argument("--n", type=int, default=10000,
                   help="sample count (default 10000)")
    p.add_argument("--grid", type=int, default=None,
                   help="grid resolution (default 256 for density, 1024 for verify)")
    p.add_argument("--multidiagonal", action="store_true",
                   help="interpret input as multidiagonal components on [0, 1]")
    p.add_argument("--allow-infinite-entropy", action="store_true",
                   help="proceed on models whose entropy is -inf but whose "
                        "residual separation mass is zero")
    return p


def _resolve_grid(args) -> int:
    if args.grid is not None:
        return args.grid
    return 1024 if args.command == "verify" else 256


def _echo_config(args) -> None:
    print(f"config: command={args.command} input={args.input} "
          f"output={args.output or '-'} seed={args.seed} n={args.n} "
          f"grid={_resolve_grid(args)} multidiagonal={args.multidiagonal} "
          f"allow_infinite_entropy={args.allow_infinite_entropy}",
          file=sys.stderr)


def _read_spec(path: str) -> tuple[dict, str]:
    """Parsed JSON plus the sha256 of the raw bytes."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}")
    try:
        spec = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _InputError(f"{path} is not valid JSON: {exc}")
    return spec, hashlib.sha256(raw).hexdigest()


def _load_subject(args):
    """(MarginalVector | Multidiagonal, input sha256) for the run."""
    spec, digest = _read_spec(args.input)
    try:
        margins = marginal_vector_from_dict(spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"bad marginal specification: {exc}")
    if args.multidiagonal:
        return Multidiagonal(components=margins.margins), digest
    return margins, digest


def _num(v: float) -> str:
    if math.isinf(v):
        return "+inf" if v > 0 else "-inf"
    return f"{v + 0.0:.5f}"


def _open_out(path):
    return open(path, "w") if path else sys.stdout


def _write_meta(args, digest: str, extra: dict) -> None:
    meta = {
        "command": args.command,
        "version": _VERSION,
        "input": args.input,
        "input_sha256": digest,
        "seed": args.seed,
        "n": args.n,
        "grid": _resolve_grid(args),
        "multidiagonal": args.multidiagonal,
        "allow_infinite_entropy": args.allow_infinite_entropy,
        "output": args.output,
    }
    meta.update(extra)
    with open(args.output + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(args, digest: str, header: list[str], rows) -> None:
    """Write the header, then each block of rows: a 2-D array of numbers,
    or a pair (text, numbers) of 2-D arrays whose text cells, already
    rendered, go before the number cells of the same rows."""
    # surface evaluation errors before anything is written
    rows = iter(rows)
    first = next(rows, None)
    out = _open_out(args.output)
    try:
        out.write(",".join(header) + "\n")
        count = 0
        for block in ([] if first is None else itertools.chain([first], rows)):
            if isinstance(block, tuple):
                cells, n_text = np.hstack(block), block[0].shape[1]
            else:
                cells, n_text = np.atleast_2d(block), 0
            line = ",".join(["%s"] * n_text
                            + [_CSV_FMT] * (cells.shape[1] - n_text)) + "\n"
            # one % per chunk of rows; chunks keep the text small
            for start in range(0, cells.shape[0], _CSV_CHUNK):
                chunk = cells[start:start + _CSV_CHUNK]
                out.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))
            count += cells.shape[0]
    finally:
        if out is not sys.stdout:
            out.close()
    if args.output:
        _write_meta(args, digest, {"columns": header, "rows": count})


def _forced(report, args) -> bool:
    # only a zero-residual-mass model with diverging J may be forced
    return (args.allow_infinite_entropy and report.verdict == "j_infinite"
            and report.in_f0)


def cmd_validate(subject, args, digest) -> int:
    if isinstance(subject, Multidiagonal):
        rep = validate_multidiagonal(subject, grid=_resolve_grid(args))
        jv = j_functional_delta(subject) if rep.is_D else math.inf
        print(f"multidiagonal_class: {rep}")
        print(f"J_delta: {_num(jv)}")
        ok = rep.is_D0 and math.isfinite(jv)
        print(f"verdict: {'ok' if ok else 'degenerate'}")
        return 0 if ok else 1
    rep = detect_degenerate(subject)
    print("stochastic_order: ok")
    print(f"F0_membership: {rep.in_f0}")
    print(f"J_F: {_num(rep.j_value) if not math.isnan(rep.j_value) else 'undefined'}")
    print(f"H_F: {_num(rep.entropy)}")
    print(f"verdict: {rep.verdict}" + (f" ({rep.detail})" if rep.detail else ""))
    return 0 if rep.ok else 1


def cmd_entropy(subject, args, digest) -> int:
    if isinstance(subject, Multidiagonal):
        rep = validate_multidiagonal(subject, grid=_resolve_grid(args))
        if not rep.is_D:
            print(f"not a multidiagonal: {rep}", file=sys.stderr)
            return 1
        jv = j_functional_delta(subject)
        hsum = sum(c.entropy() for c in subject.components)
        print(f"H_C_delta: {_num(copula_entropy_closed(subject))}")
        print(f"H_C_F: {_num(order_stat_copula_entropy(subject))}")
        print(f"sum_H_components: {_num(hsum)}")
        print(f"J_delta: {_num(jv)}")
        if not math.isfinite(jv) or not math.isfinite(hsum):
            return 0 if args.allow_infinite_entropy else 1
        return 0
    rep = detect_degenerate(subject)
    if not rep.ok:
        print(f"H_F: {_num(rep.entropy)}")
        print(f"verdict: {rep.verdict}" + (f" ({rep.detail})" if rep.detail else ""))
        return 0 if _forced(rep, args) else 1
    delta = multidiagonal_from_marginals(subject)
    j_delta = j_functional_delta(delta)
    h_sum = sum(m.entropy() for m in subject.margins)
    h_cf = subject.d - 1.0 - j_delta
    print(f"H_F: {_num(rep.entropy)}")
    print(f"H_C_F: {_num(h_cf)}")
    print(f"sum_H_marginals: {_num(h_sum)}")
    print(f"J_F: {_num(rep.j_value)}")
    print(f"J_delta: {_num(j_delta)}")
    print(f"residual_sklar: {_num(rep.entropy - (h_cf + h_sum))}")
    print(f"residual_transport: {_num(rep.j_value - j_delta)}")
    return 0


def cmd_sample(subject, args, digest) -> int:
    if args.n < 1:
        print("--n must be at least 1", file=sys.stderr)
        return 2
    if isinstance(subject, Multidiagonal):
        kernel = CopulaKernel(subject)
        U = sample_copula(kernel, args.n, seed=args.seed)
        header = [f"u{i}" for i in range(1, subject.d + 1)]
        _write_csv(args, digest, header, [U])
        return 0
    model = build_model(subject)
    X = sample(model, args.n, seed=args.seed,
               allow_infinite_entropy=args.allow_infinite_entropy)
    header = [f"x{i}" for i in range(1, subject.d + 1)]
    _write_csv(args, digest, header, [X])
    return 0


def _axis_box(margins: MarginalVector):
    """Per-axis evaluation window: the support where finite, else the
    central 0.1%..99.9% quantile range."""
    lows, highs = [], []
    for m in margins.margins:
        lo, hi = m.support
        lows.append(float(lo) if math.isfinite(lo) else float(m.ppf(1e-3)))
        highs.append(float(hi) if math.isfinite(hi) else float(m.ppf(1.0 - 1e-3)))
    return lows, highs


def _grid_rows(axes, density_fn, chunk: int = 1 << 14):
    """Blocks (coordinate text, density column) over the grid in C order,
    last axis fastest.  Each axis level is rendered once, here where the
    grid is known: d*g strings instead of d*g**d."""
    sizes = [len(a) for a in axes]
    total = math.prod(sizes)
    labels = [np.array([_CSV_FMT % v for v in a.tolist()], dtype=object)
              for a in axes]
    for start in range(0, total, chunk):
        multi = np.unravel_index(np.arange(start, min(start + chunk, total)), sizes)
        pts = np.column_stack([a[i] for a, i in zip(axes, multi)])
        text = np.column_stack([lab[i] for lab, i in zip(labels, multi)])
        yield text, density_fn(pts)[:, None]


def cmd_density(subject, args, digest) -> int:
    grid = _resolve_grid(args)
    if grid < 2:
        print("--grid must be at least 2", file=sys.stderr)
        return 2
    if isinstance(subject, Multidiagonal):
        kernel = CopulaKernel(subject)
        axes = [np.linspace(0.0, 1.0, grid)] * subject.d
        header = [f"u{i}" for i in range(1, subject.d + 1)] + ["c"]
        rows = _grid_rows(axes, lambda P: c_delta_density(kernel, P))
        _write_csv(args, digest, header, rows)
        return 0
    model = build_model(subject)
    rep = model.degeneracy
    if not rep.ok and not _forced(rep, args):
        print(f"degenerate model, no density: {rep}", file=sys.stderr)
        return 1
    lows, highs = _axis_box(subject)
    axes = [np.linspace(lows[k], highs[k], grid) for k in range(subject.d)]
    header = [f"x{i}" for i in range(1, subject.d + 1)] + ["f"]
    rows = _grid_rows(axes, lambda P: f_F_density(model, P))
    _write_csv(args, digest, header, rows)
    return 0


def cmd_verify(subject, args, digest) -> int:
    report = run_full_verification(subject, n_samples=args.n, seed=args.seed,
                                   grid=_resolve_grid(args))
    print(report)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    return 0 if report.all_passed else 1


_COMMANDS = {
    "validate": cmd_validate,
    "entropy": cmd_entropy,
    "sample": cmd_sample,
    "density": cmd_density,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not 0 <= args.seed < 2 ** 64:
        print("--seed must fit in 64 bits", file=sys.stderr)
        return 2
    _echo_config(args)
    try:
        subject, digest = _load_subject(args)
        return _COMMANDS[args.command](subject, args, digest)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MaxentError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
