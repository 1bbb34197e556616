"""Write perfbench/fingerprints.json, the reference every op is checked against.

    python3 perfbench/record_fingerprints.py

Sample quantiles are the population quantiles of the spec margins, from
closed forms in run.py that do not use the package.  Density fingerprints
(mass and last-coordinate moment on each fixed grid, at both scales) and
the check names of each verification battery are taken from one pass of
the package as it stands.  The tolerances are fixed here, beforehand, from
the package's stated ones: densities agree to the 1e-6 relative tolerance
the battery allows between independent routes (c_delta_dual_route,
j_routes); samples stay within the battery's KS factor.
"""

import json
import shutil
import sys

import run


def main() -> int:
    quantiles = {spec: [[run.population_quantile(m, q) for q in run.QUANTILE_LEVELS]
                        for m in run.SPECS[spec]["margins"]]
                 for spec in ("exp3", "beta5", "tent", "beta3_exp1", "beta2")}
    for d in (2, 3, 4):
        quantiles[f"uniform{d}"] = [list(run.QUANTILE_LEVELS)] * d
    out = {"tolerance": {"density_rel": 1e-6, "ks_factor": run.KS_FACTOR},
           "quantile_levels": list(run.QUANTILE_LEVELS),
           "quantiles": quantiles}
    pkg = run.import_package()
    record: dict = {}
    tmp = run.ROOT / ".perfbench_tmp" / "record"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for scale in ("full", "tiny"):
            for name, cls in run.WORKLOADS.items():
                ctx = run.Context(pkg, out, scale, tmp, record=record)
                wl = cls(ctx)
                tally = run.Tally()
                state, _ = run.timed_setup(wl, tally)
                run.run_pass(wl, state, 0, 0, tally)
                if tally.failed:
                    print("\n".join(tally.problems), file=sys.stderr)
                    return 1
                print(f"recorded {name} at {scale} scale", file=sys.stderr)
    finally:
        shutil.rmtree(tmp.parent, ignore_errors=True)
    out.update(record)
    with open(run.HERE / "fingerprints.json", "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
