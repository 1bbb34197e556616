import argparse
import csv
import itertools
import json
import math

import numpy as np
import pytest

from maxentos import cli, f_F_density
from maxentos.copula import CopulaKernel, c_delta_density
from maxentos.joint import build_model
from maxentos.marginals import marginal_vector_from_dict
from maxentos.multidiag import Multidiagonal

EXP3 = {"margins": [{"family": "exponential", "rate": 3.0},
                    {"family": "exponential", "rate": 2.0},
                    {"family": "exponential", "rate": 1.0}]}
BETA2 = {"margins": [{"family": "beta_1_k", "k": 2},
                     {"family": "beta_1_k", "k": 1}]}
UU = {"margins": [{"family": "uniform", "a": 0.0, "b": 1.0},
                  {"family": "uniform", "a": 0.0, "b": 1.0}]}
TENT = {"margins": [
    {"family": "piecewise_linear", "knots": [[0.0, 0.0], [0.5, 0.75], [1.0, 1.0]]},
    {"family": "piecewise_linear", "knots": [[0.0, 0.0], [0.5, 0.25], [1.0, 1.0]]}]}


def write_spec(tmp_path, obj, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_csv_writer_matches_per_value_format(capsys):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5000, 3)) * np.exp(rng.uniform(-300.0, 300.0, (5000, 3)))
    X[:6, 0] = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e308]
    blocks = [X, X[:7, :1], np.empty((0, 2))]
    # output=None writes to stdout, with no sidecar
    cli._write_csv(argparse.Namespace(output=None), "", ["a", "b", "c"], blocks)
    ref = "a,b,c\n" + "".join(",".join("%.17g" % v for v in row) + "\n"
                              for b in blocks for row in np.atleast_2d(b))
    assert capsys.readouterr().out == ref


def test_csv_writer_text_cells_match_numbers(capsys):
    X = np.array([[math.inf, 1.0, -2.5], [-math.inf, 0.1, 3.0],
                  [math.nan, -0.0, 7e-310], [-0.0, 2.0, -1e-5],
                  [5e-324, 1e300, 0.0], [1e308, -3.0, 1.0 / 3.0]])
    text = np.array([["%.17g" % v for v in row] for row in X[:, :2].tolist()],
                    dtype=object)
    args = argparse.Namespace(output=None)
    cli._write_csv(args, "", ["a", "b", "c"], [X])
    numbers = capsys.readouterr().out
    cli._write_csv(args, "", ["a", "b", "c"], [(text, X[:, 2:])])
    assert capsys.readouterr().out == numbers


BETA5 = {"margins": [{"family": "beta_1_k", "k": k} for k in (5, 4, 3, 2, 1)]}


@pytest.mark.parametrize("spec, grid, multidiagonal", [
    (TENT, 100, False),
    (BETA5, 7, False),      # 16,807 rows: two 16,384-row chunks of _grid_rows
    (TENT, 30, True),
], ids=["tent", "beta5", "tent-multidiagonal"])
def test_density_csv_bytes_match_per_value_format(tmp_path, spec, grid,
                                                  multidiagonal):
    out = tmp_path / "f.csv"
    argv = ["density", "--input", write_spec(tmp_path, spec), "--grid", str(grid),
            "--output", str(out)] + (["--multidiagonal"] if multidiagonal else [])
    assert cli.main(argv) == 0
    margins = marginal_vector_from_dict(spec)
    d = margins.d
    if multidiagonal:
        axes = [np.linspace(0.0, 1.0, grid)] * d
        header = [f"u{i}" for i in range(1, d + 1)] + ["c"]
    else:
        lows, highs = cli._axis_box(margins)
        axes = [np.linspace(lo, hi, grid) for lo, hi in zip(lows, highs)]
        header = [f"x{i}" for i in range(1, d + 1)] + ["f"]
    # C order over the grid, last axis fastest
    P = np.array(list(itertools.product(*axes)))
    if multidiagonal:
        f = c_delta_density(CopulaKernel(Multidiagonal(components=margins.margins)), P)
    else:
        f = f_F_density(build_model(margins), P)
    ref = ",".join(header) + "\n" + "".join(
        ",".join("%.17g" % v for v in row) + "\n"
        for row in np.column_stack([P, f]).tolist())
    assert out.read_bytes() == ref.encode()
    meta = json.loads((tmp_path / "f.csv.meta.json").read_text())
    assert meta["rows"] == grid ** d
    assert meta["columns"] == header


def test_validate_ok(tmp_path, capsys):
    rc = cli.main(["validate", "--input", write_spec(tmp_path, EXP3)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict: ok" in out
    assert "F0_membership: True" in out


def test_validate_unordered_margins(tmp_path, capsys):
    spec = {"margins": [{"family": "exponential", "rate": 1.0},
                        {"family": "exponential", "rate": 3.0}]}
    rc = cli.main(["validate", "--input", write_spec(tmp_path, spec)])
    assert rc == 1
    assert "ordered" in capsys.readouterr().err


def test_validate_identical_margins_reports_infinite_entropy(tmp_path, capsys):
    rc = cli.main(["validate", "--input", write_spec(tmp_path, UU)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "H_F: -inf" in out
    assert "verdict: j_infinite" in out


def test_validate_malformed_input(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert cli.main(["validate", "--input", str(p)]) == 2
    bad = {"margins": [{"family": "gaussian", "mu": 0.0}]}
    assert cli.main(["validate", "--input", write_spec(tmp_path, bad)]) == 2


def test_entropy_values(tmp_path, capsys):
    rc = cli.main(["entropy", "--input", write_spec(tmp_path, BETA2)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "H_F: -1.19315" in out
    assert "H_C_F: -1.00000" in out
    assert "J_F: 2.00000" in out


def test_entropy_single_margin_is_zero(tmp_path, capsys):
    one = {"margins": [{"family": "uniform", "a": 0.0, "b": 1.0}]}
    rc = cli.main(["entropy", "--input", write_spec(tmp_path, one)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "H_F: 0.00000" in out


def test_entropy_degenerate_exit(tmp_path, capsys):
    path = write_spec(tmp_path, UU)
    rc = cli.main(["entropy", "--input", path])
    out = capsys.readouterr().out
    assert rc == 1
    assert "H_F: -inf" in out
    # the override only applies inside the admissible class, which this
    # input is not in
    assert cli.main(["entropy", "--input", path, "--allow-infinite-entropy"]) == 1


def test_entropy_multidiagonal_mode(tmp_path, capsys):
    rc = cli.main(["entropy", "--input", write_spec(tmp_path, TENT),
                   "--multidiagonal"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "H_C_delta:" in out and "J_delta:" in out


def test_sample_deterministic_with_sidecar(tmp_path):
    spec = write_spec(tmp_path, EXP3)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert cli.main(["sample", "--input", spec, "--n", "200", "--seed", "9",
                     "--output", out1]) == 0
    assert cli.main(["sample", "--input", spec, "--n", "200", "--seed", "9",
                     "--output", out2]) == 0
    b1 = open(out1, "rb").read()
    assert b1 == open(out2, "rb").read()

    with open(out1) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "x2", "x3"]
    assert len(rows) == 201
    X = np.array([[float(v) for v in r] for r in rows[1:]])
    assert np.all(X[:, 1:] >= X[:, :-1])

    meta = json.loads(open(out1 + ".meta.json").read())
    assert meta["seed"] == 9 and meta["n"] == 200
    assert meta["command"] == "sample"
    assert len(meta["input_sha256"]) == 64

    out3 = str(tmp_path / "c.csv")
    assert cli.main(["sample", "--input", spec, "--n", "200", "--seed", "10",
                     "--output", out3]) == 0
    assert b1 != open(out3, "rb").read()


def test_sample_multidiagonal_mode(tmp_path):
    spec = write_spec(tmp_path, TENT)
    out = str(tmp_path / "u.csv")
    assert cli.main(["sample", "--input", spec, "--multidiagonal",
                     "--n", "50", "--output", out]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["u1", "u2"]
    U = np.array([[float(v) for v in r] for r in rows[1:]])
    assert U.shape == (50, 2)
    assert np.all((U > 0) & (U < 1))


def test_density_grid_matches_library(tmp_path):
    spec = write_spec(tmp_path, BETA2)
    out = str(tmp_path / "f.csv")
    assert cli.main(["density", "--input", spec, "--grid", "12",
                     "--output", out]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "x2", "f"]
    assert len(rows) == 1 + 12 * 12
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    model = build_model(marginal_vector_from_dict(BETA2))
    assert np.allclose(f_F_density(model, data[:, :2]), data[:, 2], rtol=1e-12)


def test_density_multidiagonal_grid(tmp_path):
    spec = write_spec(tmp_path, TENT)
    out = str(tmp_path / "c.csv")
    assert cli.main(["density", "--input", spec, "--multidiagonal",
                     "--grid", "9", "--output", out]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["u1", "u2", "c"]
    assert len(rows) == 1 + 81


def test_density_comonotone_fails_cleanly(tmp_path, capsys):
    spec = write_spec(tmp_path, UU)
    out = tmp_path / "never.csv"
    rc = cli.main(["density", "--input", spec, "--multidiagonal",
                   "--grid", "8", "--output", str(out)])
    assert rc == 1
    assert not out.exists()
    assert "NotAbsolutelyContinuous" in capsys.readouterr().err


def test_verify_subcommand(tmp_path, capsys):
    spec = write_spec(tmp_path, TENT)
    report = tmp_path / "report.json"
    rc = cli.main(["verify", "--input", spec, "--multidiagonal",
                   "--n", "2000", "--grid", "256", "--output", str(report)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ALL CHECKS PASSED" in out or "PASS" in out
    payload = json.loads(report.read_text())
    assert payload["all_passed"] is True


def test_usage_errors(tmp_path, capsys):
    assert cli.main([]) == 2
    assert cli.main(["frobnicate", "--input", "x.json"]) == 2
    assert cli.main(["validate"]) == 2  # --input is required
    assert cli.main(["validate", "--input", str(tmp_path / "missing.json")]) == 2
    spec = write_spec(tmp_path, EXP3)
    assert cli.main(["sample", "--input", spec, "--n", "abc"]) == 2
    assert cli.main(["sample", "--input", spec,
                     "--seed", "99999999999999999999"]) == 2


def test_config_echo_goes_to_stderr(tmp_path, capsys):
    cli.main(["validate", "--input", write_spec(tmp_path, EXP3)])
    captured = capsys.readouterr()
    assert "config:" in captured.err
    assert "config:" not in captured.out
