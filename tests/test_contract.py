"""Input contract of the engine: every spec it accepts gives finite rates,
and everything else raises a GrassfeedError, never a raw numpy or Python
error and never a silent NaN (RuntimeWarnings fail the suite)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from grassfeed.errors import GrassfeedError
from grassfeed.simulator import ExperimentSpec, FeedbackPolicy, run_experiment

_SHAPES = [(4, 1), (4, 2), (6, 1), (6, 2), (6, 3), (8, 1), (8, 2)]
_MODES = ["perfect", "quantized_emulated", "quantized_exhaustive", "analog"]


@st.composite
def _cases(draw):
    m, n = draw(st.sampled_from(_SHAPES))
    mode = draw(st.sampled_from(_MODES))
    # budgets that either scan small codebooks, emulate, or hit a guard;
    # scans of 2^7..2^24 entries per trial would only cost time
    small = st.integers(0, 6)
    large = st.integers(73, 10 ** 5) | st.sampled_from([1100, 10 ** 5])
    bits = draw(small | large)
    policy = {"mode": mode}
    if mode.startswith("quantized"):
        policy["bits"] = bits
    elif mode == "analog":
        policy["beta"] = draw(st.floats(1.0, 1e3))
    return dict(
        m=m,
        n=n,
        precoder=draw(st.sampled_from(["bd", "zf"])),
        snr_grid_db=(draw(st.floats(-30.0, 300.0)),),
        policy=policy,
        # 1030 trials make two chunks, so threads=2 splits the work
        trials=draw(st.integers(1, 24) | st.just(1030)),
        seed=draw(st.integers(0, 2 ** 32)),
        threads=draw(st.sampled_from([1, 2])),
    )


@settings(max_examples=40, deadline=None, database=None)
@given(_cases())
def test_finite_rates_or_library_error(case):
    threads = case.pop("threads")
    try:
        spec = ExperimentSpec(**{**case, "policy": FeedbackPolicy(**case["policy"])})
        curve = run_experiment(spec, threads=threads)
    except GrassfeedError:
        return
    assert np.all(np.isfinite(curve.sum_rate))
    assert all(np.isfinite(pt.per_user_rate) for pt in curve.points)
