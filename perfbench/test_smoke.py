"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every end-to-end and per-layer metric declared in
BENCHMARK.json is printed with its unit, that the op checks are not
vacuous (a wrong fingerprint drives ops_ok_frac below 1), and that the
traced counts repeat exactly.  The verify workload runs its full
batteries even at tiny sizes, so the whole file takes a few minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
FINGERPRINTS = ROOT / "perfbench" / "fingerprints.json"


def run_bench(workload, trace=0, seed=3, fingerprints=FINGERPRINTS):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
           "--scale", "tiny", "--fingerprints", str(fingerprints)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_end_to_end_metrics_emitted(workload):
    res = run_bench(workload)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == declared("end_to_end")
    assert res["metrics"]["ops_ok_frac"]["value"] == 1.0
    for name in ("setup_s", "pass_s", "rows_per_s", "points_per_s", "peak_rss_mb"):
        assert res["metrics"][name]["value"] > 0.0, name


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_per_layer_metrics_emitted(workload):
    res = run_bench(workload, trace=1)
    assert res["correct"]
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == declared("per_layer")
    assert (ROOT / ".perfbench_out" / f"trace-{workload}-seed3.json").is_file()


@pytest.mark.parametrize("workload", ["joint", "copula"])
def test_traced_counts_repeat(workload):
    first, second = run_bench(workload, trace=1), run_bench(workload, trace=1)
    counts = [m["name"] for m in BENCH["per_layer"]
              if m["unit"] in ("count", "bytes", "points/row")]
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["hazards.solve_tail.points"]["value"] > 0


def _wrong(tmp_path, edit):
    data = json.loads(FINGERPRINTS.read_text())
    edit(data)
    path = tmp_path / "fingerprints.json"
    path.write_text(json.dumps(data))
    return path


def test_wrong_density_fingerprint_fails_ops(tmp_path):
    def edit(data):
        data["densities"]["joint/exp3/g5"]["mass"] *= 1.01
    res = run_bench("joint", fingerprints=_wrong(tmp_path, edit))
    assert not res["correct"]
    assert res["failed"] >= 1
    assert res["metrics"]["ops_ok_frac"]["value"] < 1.0


def test_wrong_quantile_fingerprint_fails_ops(tmp_path):
    def edit(data):
        data["quantiles"]["uniform4"][0] = [0.2, 0.6, 0.95]
    res = run_bench("copula", fingerprints=_wrong(tmp_path, edit))
    assert not res["correct"]
    assert res["metrics"]["ops_ok_frac"]["value"] < 1.0
