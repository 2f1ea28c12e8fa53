"""Golden CSV digests: the exact bytes ``write_curve_csv`` produces for one
small spec per mode, plus ZF under emulation.

These pin determinism across processes and machines, not just within one
run. A change to any digest changes what users get for a fixed seed; it
must be explained in CHANGES.md and backed by an unchanged, passing
acceptance gate.
"""

import hashlib

import pytest

from grassfeed.simulator import ExperimentSpec, FeedbackPolicy, run_experiment, write_curve_csv

GOLDEN = {
    "perfect": (
        dict(m=4, n=2, policy=FeedbackPolicy(mode="perfect")),
        "c565d6771ab95d4f2171db3fb792d13a55e3d27dabe57cc211bd67019ac5c8b8",
    ),
    # 0 dB gets a 0-bit budget and falls back to the scan; 1100 trials span two chunks
    "emulated": (
        dict(m=4, n=2, trials=1100,
             policy=FeedbackPolicy(mode="quantized_emulated", schedule="scaled_3db")),
        "fbf06328d59b77a5b3cbe2a870c647bfad4fd0f3fdc5f1ac79297f5f635a95a0",
    ),
    "exhaustive": (
        dict(m=4, n=2, policy=FeedbackPolicy(mode="quantized_exhaustive", bits=4)),
        "8309e7c26f1c370e4e2fc29fbf88b22d04ff0af148b5f2133a0096803f3a5faf",
    ),
    "analog": (
        dict(m=4, n=2, policy=FeedbackPolicy(mode="analog", beta=2.0)),
        "1d50e06ba3ad04a9f5ec25e86b8cb3b00545e94d44aa36b1a961c0d901c3619b",
    ),
    "zf_emulated": (
        dict(m=6, n=2, precoder="zf",
             policy=FeedbackPolicy(mode="quantized_emulated", schedule="scaled_3db")),
        "aca5c81d92ebb65a2b12fa38740c1ed4add54bf635a3706b1746ba6ce6b13f04",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_curve_csv_digest(name, tmp_path):
    kw, digest = GOLDEN[name]
    spec = ExperimentSpec(**{"snr_grid_db": (0.0, 10.0, 20.0), "trials": 200, "seed": 2026, **kw})
    path = tmp_path / "curve.csv"
    write_curve_csv(run_experiment(spec), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
