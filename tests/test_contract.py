"""Input contract of the engine: every spec it accepts gives finite rates,
and everything else raises a GrassfeedError, never a raw numpy or Python
error and never a silent NaN (RuntimeWarnings fail the suite). A table
holds at least one malformed call for every public callable. Also the
export contract: the package exports exactly its modules' ``__all__``
lists, and every name the benchmark in ``perfbench/`` binds exists."""

import importlib
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grassfeed
from grassfeed import (
    _backend,
    ensembles,
    errors,
    grassmann,
    linalg,
    precoding,
    quant_emulator,
    scaling,
    simulator,
)
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


# the module-level names the package keeps out of its exports; callers and
# the benchmark in ``perfbench/`` reach them through their modules
_INTERNAL = {
    grassmann: ["scan_fresh_codebooks"],
    linalg: ["ORTHO_TOL", "RANK_FLOOR"],
    quant_emulator: ["CondEigSampler", "emulation_valid"],
    simulator: ["CHUNK_TRIALS"],
}


def test_package_exports_are_module_exports():
    """The package exports exactly its modules' ``__all__`` lists plus
    BACKEND and __version__, each name once and bound to its module's
    object, and the internal names stay internal."""
    modules = [ensembles, errors, grassmann, linalg, precoding, quant_emulator, scaling, simulator]
    names = ["BACKEND", "__version__"] + [name for mod in modules for name in mod.__all__]
    assert len(set(names)) == len(names)
    assert sorted(grassfeed.__all__) == sorted(names)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(grassfeed, name) is getattr(mod, name), name
    assert grassfeed.BACKEND is _backend.BACKEND
    for mod, hidden in _INTERNAL.items():
        for name in hidden:
            assert hasattr(mod, name) and name not in grassfeed.__all__, name


_NAN = np.full((4, 2), np.nan, dtype=complex)
_FRAME = np.eye(4, 2, dtype=complex)
_GC = grassfeed.GrassmannConstants(4, 2)
_CFG = grassfeed.SystemConfig(4, 2, 10.0)
_BD = grassfeed.PrecoderSet(np.stack([np.eye(4, 2), np.eye(4, 2, -2)]).astype(complex), "bd")
_RNG = grassfeed.RngStream(1)
_PERFECT = grassfeed.FeedbackPolicy(mode="perfect")
_FALLING = grassfeed.RateCurve((
    grassfeed.RatePoint(0.0, 2.0, 1.0, 0.1, "perfect"),
    grassfeed.RatePoint(5.0, 1.0, 0.5, 0.1, "perfect"),
))

# (exported name, case id, malformed call); every call must raise a
# GrassfeedError, with every warning an error
_BAD_CALLS = [
    # ensembles
    ("RngStream", "seed_float", lambda: grassfeed.RngStream(1.5)),
    ("gaussian_matrix", "gaussian_float_m", lambda: grassfeed.gaussian_matrix(_RNG, 2.5, 2)),
    ("isotropic_frame", "frame_float_n", lambda: grassfeed.isotropic_frame(_RNG, 4, 2.0)),
    ("isotropic_frame_in_nullspace", "nullspace_frame_nan",
     lambda: grassfeed.isotropic_frame_in_nullspace(_RNG, _NAN, 2)),
    ("matrix_beta", "beta_float_n", lambda: grassfeed.matrix_beta(_RNG, 2.5, 3, 3)),
    # grassmann
    ("GrassmannConstants", "constants_float_m", lambda: grassfeed.GrassmannConstants(4.5, 2)),
    ("Codebook", "codebook_wide_frames",
     lambda: grassfeed.Codebook(1, 2, 0, np.zeros((1, 1, 2), dtype=complex))),
    ("random_codebook", "codebook_float_bits",
     lambda: grassfeed.random_codebook(grassfeed.RngStream(1), 4, 2, 2.5)),
    ("chordal_distance_sq", "chordal_nan", lambda: grassfeed.chordal_distance_sq(_NAN, _NAN)),
    ("principal_angles", "angles_nan", lambda: grassfeed.principal_angles(_NAN, _FRAME)),
    ("quantize", "quantize_nan",
     lambda: grassfeed.quantize(_NAN, grassfeed.random_codebook(_RNG, 4, 2, 1))),
    ("distortion_bound", "bound_nan_bits", lambda: grassfeed.distortion_bound(_GC, np.nan)),
    ("distortion_main_term", "main_term_nan_bits", lambda: grassfeed.distortion_main_term(_GC, np.nan)),
    ("distortion_samples", "samples_float_trials",
     lambda: grassfeed.distortion_samples(_RNG, 4, 2, 2, 2.5)),
    ("empirical_distortion", "empirical_float_bits",
     lambda: grassfeed.empirical_distortion(_RNG, 4, 2, 2.5, 10)),
    ("load_codebook", "load_foreign_file", lambda: grassfeed.load_codebook(__file__)),
    # linalg
    ("thin_qr", "qr_nan", lambda: grassfeed.thin_qr(_NAN)),
    ("cholesky_upper", "cholesky_nan", lambda: grassfeed.cholesky_upper(np.full((2, 2), np.nan))),
    ("left_nullspace_basis", "nullspace_nan", lambda: grassfeed.left_nullspace_basis(_NAN)),
    ("logdet_hermitian", "logdet_nan", lambda: grassfeed.logdet_hermitian(np.full((2, 2), np.nan))),
    # precoding
    ("SystemConfig", "config_inf_power", lambda: grassfeed.SystemConfig(4, 2, np.inf)),
    ("SystemConfig", "config_float_m", lambda: grassfeed.SystemConfig(4.0, 2, 10)),
    ("PrecoderSet", "precoders_flat",
     lambda: grassfeed.PrecoderSet(np.zeros((4, 2), dtype=complex), "bd")),
    ("bd_precoders", "bd_nan", lambda: grassfeed.bd_precoders(_CFG, np.stack([_NAN, _NAN]))),
    ("zf_precoders", "zf_nan", lambda: grassfeed.zf_precoders(_CFG, np.stack([_NAN, _NAN]))),
    ("instant_rate_per_user", "rate_float_user",
     lambda: grassfeed.instant_rate_per_user(_CFG, _FRAME, _BD, 0.5)),
    ("analog_feedback", "analog_inf_beta",
     lambda: grassfeed.analog_feedback(grassfeed.RngStream(1), _CFG, _FRAME, np.inf)),
    ("rate_loss_bound", "loss_nan_distortion", lambda: grassfeed.rate_loss_bound(_CFG, np.nan)),
    ("analog_rate_loss_bound", "analog_loss_inf_beta",
     lambda: grassfeed.analog_rate_loss_bound(_CFG, np.inf)),
    ("analog_rate_loss_limit", "analog_limit_nan_beta",
     lambda: grassfeed.analog_rate_loss_limit(4, 2, np.nan)),
    # quant_emulator
    ("decompose", "decompose_nan", lambda: grassfeed.decompose(_NAN, _FRAME)),
    ("emulate_batch", "emulate_batch_float_bits",
     lambda: grassfeed.emulate_batch(_RNG, _FRAME[np.newaxis], 12.5)),
    ("emulate_quantization", "emulate_nan", lambda: grassfeed.emulate_quantization(_RNG, _NAN, 12)),
    ("sample_min_d2", "min_d2_float_bits", lambda: grassfeed.sample_min_d2(_RNG, _GC, 80.5)),
    ("beta_trace_pdf", "trace_pdf_float_m", lambda: grassfeed.beta_trace_pdf(4.5, 0.5)),
    # scaling
    ("bits_for_rate_loss", "bits_nan_power", lambda: grassfeed.bits_for_rate_loss(4, 2, np.nan, 4)),
    ("bd_3db_bits", "bd_3db_nan_power", lambda: grassfeed.bd_3db_bits(4, 2, np.nan)),
    ("zf_3db_bits", "zf_3db_nan_m", lambda: grassfeed.zf_3db_bits(np.nan, 10)),
    ("zf_bits_for_rate_loss", "zf_bits_float_m",
     lambda: grassfeed.zf_bits_for_rate_loss(4.5, 2, 10, 4)),
    ("bd_zf_rate_gap", "gap_float_m", lambda: grassfeed.bd_zf_rate_gap(4.0, 2)),
    ("analog_vs_quantized_bounds", "versus_nan_beta",
     lambda: grassfeed.analog_vs_quantized_bounds(4, 2, np.nan, 10.0)),
    # simulator
    ("FeedbackPolicy", "policy_nan_beta", lambda: grassfeed.FeedbackPolicy(mode="analog", beta=np.nan)),
    ("ExperimentSpec", "spec_float_m",
     lambda: grassfeed.ExperimentSpec(4.0, 2, (0.0,), _PERFECT, 2, 1)),
    ("run_experiment", "run_zero_threads",
     lambda: grassfeed.run_experiment(grassfeed.ExperimentSpec(4, 2, (0.0,), _PERFECT, 2, 1), threads=0)),
    ("estimate_snr_gap", "gap_falling_reference", lambda: grassfeed.estimate_snr_gap(_FALLING, _FALLING)),
    ("read_curve_csv", "read_foreign_file", lambda: grassfeed.read_curve_csv(__file__)),
]

# Public callables with no argument of their own to check: result records
# the library returns, and functions whose every argument is a library object
# that its constructor has checked (a save path fails as the OS says).
_NOTHING_TO_CHECK = {
    "QuantizationResult", "AnalogObservation", "QuantDecomposition", "BitsResult",
    "RatePoint", "RateCurve", "GapEstimate",
    "c_prime", "c_double_prime", "save_codebook", "write_curve_csv",
}


@pytest.mark.parametrize("call", [c for _, _, c in _BAD_CALLS], ids=[i for _, i, _ in _BAD_CALLS])
def test_public_entry_points_reject_bad_input(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GrassfeedError):
            call()


def test_every_public_callable_has_a_bad_input_case():
    """Each exported callable, other than exception classes and the names
    above, has a case in the malformed-input table."""
    callables = {
        name for name in grassfeed.__all__
        if callable(getattr(grassfeed, name))
        and not (isinstance(getattr(grassfeed, name), type)
                 and issubclass(getattr(grassfeed, name), Exception))
    }
    covered = {name for name, _, _ in _BAD_CALLS}
    assert covered <= callables
    assert callables - _NOTHING_TO_CHECK == covered


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
