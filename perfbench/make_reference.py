"""Regenerate ``reference.json``, the correctness gate's expected curves.

Each workload's spec runs once at ``REF_FACTOR`` times its trial count on a
seed no benchmark run derives, so the reference CI is ~1/sqrt(8) of a
sweep's. The gate is statistical, not a digest: a change to how the engine
consumes random numbers keeps passing as long as the rates stay right.

Usage: python3 perfbench/make_reference.py   (from the repository root)
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import grassfeed  # noqa: E402
from workloads import NAMES, spec_for  # noqa: E402

REF_SEED = 20071122
REF_FACTOR = 8


def main():
    out = {"seed": REF_SEED, "trial_factor": REF_FACTOR, "workloads": {}}
    for name in NAMES:
        spec = spec_for(name, REF_SEED)
        spec = spec_for(name, REF_SEED, trials=spec.trials * REF_FACTOR)
        curve = grassfeed.run_experiment(spec, threads=1)
        out["workloads"][name] = {
            "trials": spec.trials,
            "points": [
                {"p_db": pt.p_db, "mode": pt.mode, "bits_used": pt.bits_used,
                 "sum_rate": pt.sum_rate, "ci99": pt.ci99}
                for pt in curve.points
            ],
        }
        print(name, "done", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
