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
        "ec6c4a10bb085a334811070173ea83ce6fd4c7dbd8745e10c3005567146c84e7",
    ),
    "exhaustive": (
        dict(m=4, n=2, policy=FeedbackPolicy(mode="quantized_exhaustive", bits=4)),
        "913f87475ce76a3403a7b2426910e260a80ab6387d5271cff8857411cc08c4a6",
    ),
    "analog": (
        dict(m=4, n=2, policy=FeedbackPolicy(mode="analog", beta=2.0)),
        "c398e2903f81e66e907312c8a38b62f93ba1544f06b7a4e9df0c09c46a05b759",
    ),
    "zf_emulated": (
        dict(m=6, n=2, precoder="zf",
             policy=FeedbackPolicy(mode="quantized_emulated", schedule="scaled_3db")),
        "1dbf98809404d7ac1078a5e130e7452135e3e236020d85f551ca43001faf3468",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_curve_csv_digest(name, tmp_path):
    kw, digest = GOLDEN[name]
    spec = ExperimentSpec(**{"snr_grid_db": (0.0, 10.0, 20.0), "trials": 200, "seed": 2026, **kw})
    path = tmp_path / "curve.csv"
    write_curve_csv(run_experiment(spec), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
