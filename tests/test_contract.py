"""Input contract of the engine: every spec it accepts gives finite rates,
and everything else raises a GrassfeedError, never a raw numpy or Python
error and never a silent NaN (RuntimeWarnings fail the suite). Also the
export contract: each name the package exports is in the ``__all__`` of
the module it comes from, and every name the benchmark in ``perfbench/``
binds exists."""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grassfeed
from grassfeed import _backend, linalg
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
    large = st.integers(73, 10 ** 5) | st.sampled_from([1100, 10 ** 5, 10 ** 18])
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


def test_package_exports_are_module_exports():
    tree = ast.parse(inspect.getsource(grassfeed))
    source = {
        alias.name: node.module
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    missing = [
        name for name in grassfeed.__all__ if name != "__version__"
        and name not in importlib.import_module(f"grassfeed.{source[name]}").__all__
    ]
    assert missing == []


_NAN_FRAME = np.full((4, 2), np.nan, dtype=complex)
_FRAME = np.eye(4, 2, dtype=complex)
_CFG = grassfeed.SystemConfig(4, 2, 10.0)
_BD = grassfeed.PrecoderSet(np.stack([np.eye(4, 2), np.eye(4, 2, -2)]).astype(complex), "bd")


@pytest.mark.parametrize("call", [
    lambda: grassfeed.GrassmannConstants(4.5, 2),
    lambda: grassfeed.random_codebook(grassfeed.RngStream(1), 4, 2, 2.5),
    lambda: grassfeed.chordal_distance_sq(_NAN_FRAME, _NAN_FRAME),
    lambda: grassfeed.principal_angles(_NAN_FRAME, _FRAME),
    lambda: grassfeed.instant_rate_per_user(_CFG, _FRAME, _BD, 0.5),
    lambda: grassfeed.analog_feedback(grassfeed.RngStream(1), _CFG, _FRAME, np.inf),
], ids=["constants_float_m", "codebook_float_bits", "chordal_nan", "angles_nan",
        "rate_float_user", "analog_inf_beta"])
def test_public_entry_points_reject_bad_input(call):
    with pytest.raises(GrassfeedError):
        call()


def test_benchmark_bindings_exist(monkeypatch):
    """Every name the benchmark wraps or records is still bound, so a
    deletion that would crash it at import fails here first."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    missing = [
        name for owner, attr, name in tracer.LAYER_FUNCTIONS if attr not in vars(owner)
    ]
    assert missing == []
    assert grassfeed.BACKEND == "python"
    assert callable(_backend.quantize_gaussians)
    # the same object, so wrapping it by identity wraps every engine call
    assert _backend.orthonormalize is linalg.orthonormalize
