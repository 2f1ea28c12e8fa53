"""Golden CSV digests: the exact bytes ``write_curve_csv`` produces for one
small spec per mode, plus ZF under emulation. Perfect points are the
closed-form mean of the interference-free rate and draw nothing; the
others are regression estimates on that rate and, where its mean is exact,
on the multi-user leakage. The exhaustive spec's 4-bit G(4, 2) budget
fails the emulation guard, so its points regress on the interference-free
rate alone. The emulated spec's 0 dB point has a 0-bit budget: its one
isotropic entry has an exact leakage mean, so it regresses on both.

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
        "0c40643e39db3e41745b8ee1bf53d91bcfb2edeb1a4cf3c31a4d5b1a5edda8ff",
    ),
    # 0 dB gets a 0-bit budget and falls back to the scan; 1100 trials span two chunks
    "emulated": (
        dict(m=4, n=2, trials=1100,
             policy=FeedbackPolicy(mode="quantized_emulated", schedule="scaled_3db")),
        "a4d7cb8bbbc3d8a70574c060b18520776297fdd22423f6092c812628f50c177e",
    ),
    "exhaustive": (
        dict(m=4, n=2, policy=FeedbackPolicy(mode="quantized_exhaustive", bits=4)),
        "6821d208034c15e3f6e1fbe835b7f8f2e83ea9754ee379fe8dea7b27eeb4767c",
    ),
    "analog": (
        dict(m=4, n=2, policy=FeedbackPolicy(mode="analog", beta=2.0)),
        "a567253523030f292ddc5a355109ae66a8f85e3df3191d013b77c5a98e680426",
    ),
    "zf_emulated": (
        dict(m=6, n=2, precoder="zf",
             policy=FeedbackPolicy(mode="quantized_emulated", schedule="scaled_3db")),
        "5128b4575e7ab95b0b03552be5e05d9de60921403947836c44b399a567927974",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_curve_csv_digest(name, tmp_path):
    kw, digest = GOLDEN[name]
    spec = ExperimentSpec(**{"snr_grid_db": (0.0, 10.0, 20.0), "trials": 200, "seed": 2026, **kw})
    path = tmp_path / "curve.csv"
    write_curve_csv(run_experiment(spec), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
