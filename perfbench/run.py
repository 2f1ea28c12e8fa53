"""Monte Carlo throughput benchmark for grassfeed.

Runs one workload (see ``workloads.py``) as single-threaded
``run_experiment`` sweeps for about ``--seconds`` seconds, gates every
sweep against ``reference.json`` and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` (SNR points) and
``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports per-layer self times, exact work counts and kernel micro-timings
(see ``harness.py``). Earlier lines record the environment and the raw
samples.

The package is imported from ``src/`` of the checkout this script sits in;
no build step is needed (the numpy backend runs when the compiled
extension is absent).

Usage: python3 perfbench/run.py --workload emulated_bd --seed 1 --seconds 20 --trace 0
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "grassfeed" / "__init__.py").is_file():
        print(f"grassfeed sources not found under {SRC}", file=sys.stderr)
        return 2
    # One thread everywhere: on a small shared machine a multi-threaded
    # timing measures the scheduler more than the program.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness
    from workloads import NAMES

    if args.workload not in NAMES:
        parser.error(f"--workload must be one of {NAMES}")
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
