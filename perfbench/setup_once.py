"""One set-up measurement, in the fresh interpreter this script runs in.

Times ``import grassfeed`` plus a 1-trial sweep of the named workload: the
import work, scipy's import and the per-M tables that every CLI run pays
before its first trial. Prints ``{"setup_s": ...}`` as its only line.

Usage: python3 perfbench/setup_once.py <workload> <seed>
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import grassfeed  # noqa: E402
from workloads import spec_for  # noqa: E402

grassfeed.run_experiment(spec_for(sys.argv[1], int(sys.argv[2]), trials=1), threads=1)
print(json.dumps({"setup_s": time.perf_counter() - t0}))
