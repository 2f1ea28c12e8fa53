"""Input contract of the engine: every spec it accepts gives finite rates,
and everything else raises a GrassfeedError, never a raw numpy or Python
error and never a silent NaN (RuntimeWarnings fail the suite). A table
holds at least one malformed call for every public callable. Also the
export contract: the package exports exactly its modules' ``__all__``
lists, and every name the benchmark in ``perfbench/`` binds exists."""

import dataclasses
import importlib
import tracemalloc
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
    large = st.integers(73, 10 ** 5) | st.sampled_from([1100, 10 ** 5, 10 ** 18, 10 ** 400])
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
    quant_emulator: ["CondEigSampler", "DEFAULT_GUARD_PRODUCT", "emulate_batch", "emulation_valid"],
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
    assert linalg.__all__ == []  # internal kernels only
    for mod, hidden in _INTERNAL.items():
        for name in hidden:
            assert hasattr(mod, name) and name not in grassfeed.__all__, name


_NAN = np.full((4, 2), np.nan, dtype=complex)
# arrays numpy cannot convert to complex: a ValueError and a TypeError
_STRINGS = [["a", "b"]] * 4
_OBJECTS = np.array([[object(), object()]] * 4)
_FRAME = np.eye(4, 2, dtype=complex)
_GC = grassfeed.GrassmannConstants(4, 2)
_CFG = grassfeed.SystemConfig(4, 2, 10.0)
_BD = grassfeed.PrecoderSet(np.stack([np.eye(4, 2), np.eye(4, 2, -2)]).astype(complex), "bd")
_RNG = grassfeed.RngStream(1)
_PERFECT = grassfeed.FeedbackPolicy(mode="perfect")
_OVER_CAP = grassfeed.ExperimentSpec(
    8, 4, (0.0,), grassfeed.FeedbackPolicy(mode="quantized_exhaustive", bits=24), 1, 1
)
# numpy refuses the (1, 2^62, 3) rates buffer before it asks for any memory
_HUGE_TRIALS = grassfeed.ExperimentSpec(
    4, 2, (0.0,), grassfeed.FeedbackPolicy(mode="analog", beta=2.0), 2 ** 62, 1
)
# 10^400 bits have no float log2, so the emulation guard cannot be asked
_HUGE_BITS = grassfeed.ExperimentSpec(
    4, 2, (0.0,), grassfeed.FeedbackPolicy(mode="quantized_emulated", bits=10 ** 400), 1, 1
)
_FALLING = grassfeed.RateCurve((
    grassfeed.RatePoint(0.0, 2.0, 1.0, 0.1, "perfect"),
    grassfeed.RatePoint(5.0, 1.0, 0.5, 0.1, "perfect"),
))

# (exported name, case id, malformed call); every call must raise a
# GrassfeedError, with every warning an error
_BAD_CALLS = [
    # ensembles
    ("RngStream", "seed_float", lambda: grassfeed.RngStream(1.5)),
    ("RngStream", "stream_str_entry", lambda: grassfeed.RngStream(1, ("a",))),
    ("RngStream", "stream_int", lambda: grassfeed.RngStream(1, 5)),
    ("RngStream", "stream_negative_entry", lambda: grassfeed.RngStream(1, (-1,))),
    ("RngStream", "child_negative", lambda: grassfeed.RngStream(1).child(-1)),
    ("RngStream", "child_float", lambda: grassfeed.RngStream(1).child(1.5)),
    ("gaussian_matrix", "gaussian_float_m", lambda: grassfeed.gaussian_matrix(_RNG, 2.5, 2)),
    ("gaussian_matrix", "gaussian_float_batch",
     lambda: grassfeed.gaussian_matrix(_RNG, 4, 2, batch=(2.5,))),
    ("gaussian_matrix", "gaussian_int_batch", lambda: grassfeed.gaussian_matrix(_RNG, 4, 2, batch=3)),
    # numpy refuses the allocation before it asks for any memory
    ("gaussian_matrix", "gaussian_huge_batch",
     lambda: grassfeed.gaussian_matrix(_RNG, 4, 2, batch=(2 ** 62,))),
    ("isotropic_frame", "frame_float_n", lambda: grassfeed.isotropic_frame(_RNG, 4, 2.0)),
    ("isotropic_frame", "frame_negative_batch",
     lambda: grassfeed.isotropic_frame(_RNG, 4, 2, batch=(-1,))),
    ("isotropic_frame", "frame_huge_batch",
     lambda: grassfeed.isotropic_frame(_RNG, 4, 2, batch=(2 ** 62,))),
    ("isotropic_frame_in_nullspace", "nullspace_frame_nan",
     lambda: grassfeed.isotropic_frame_in_nullspace(_RNG, _NAN, 2)),
    ("isotropic_frame_in_nullspace", "nullspace_frame_no_columns",
     lambda: grassfeed.isotropic_frame_in_nullspace(_RNG, np.zeros((4, 0)), 2)),
    # grassmann
    ("GrassmannConstants", "constants_float_m", lambda: grassfeed.GrassmannConstants(4.5, 2)),
    ("Codebook", "codebook_wide_frames",
     lambda: grassfeed.Codebook(1, 2, 0, np.zeros((1, 1, 2), dtype=complex))),
    ("random_codebook", "codebook_float_bits",
     lambda: grassfeed.random_codebook(grassfeed.RngStream(1), 4, 2, 2.5)),
    ("chordal_distance_sq", "chordal_nan", lambda: grassfeed.chordal_distance_sq(_NAN, _NAN)),
    ("chordal_distance_sq", "chordal_strings", lambda: grassfeed.chordal_distance_sq(_STRINGS, _FRAME)),
    ("principal_angles", "angles_nan", lambda: grassfeed.principal_angles(_NAN, _FRAME)),
    ("quantize", "quantize_nan",
     lambda: grassfeed.quantize(_NAN, grassfeed.random_codebook(_RNG, 4, 2, 1))),
    ("quantize", "quantize_str_codebook", lambda: grassfeed.quantize(_FRAME, "abc")),
    ("distortion_bound", "bound_nan_bits", lambda: grassfeed.distortion_bound(_GC, np.nan)),
    ("distortion_bound", "bound_str_constants", lambda: grassfeed.distortion_bound("x", 4)),
    ("distortion_main_term", "main_term_nan_bits", lambda: grassfeed.distortion_main_term(_GC, np.nan)),
    ("distortion_main_term", "main_term_str_constants", lambda: grassfeed.distortion_main_term("x", 4)),
    ("distortion_samples", "samples_float_trials",
     lambda: grassfeed.distortion_samples(_RNG, 4, 2, 2, 2.5)),
    ("distortion_samples", "samples_huge_trials",
     lambda: grassfeed.distortion_samples(_RNG, 4, 2, 2, 2 ** 62)),
    # precoding
    ("SystemConfig", "config_inf_power", lambda: grassfeed.SystemConfig(4, 2, np.inf)),
    ("SystemConfig", "config_float_m", lambda: grassfeed.SystemConfig(4.0, 2, 10)),
    ("PrecoderSet", "precoders_flat",
     lambda: grassfeed.PrecoderSet(np.zeros((4, 2), dtype=complex), "bd")),
    ("bd_precoders", "bd_nan", lambda: grassfeed.bd_precoders(_CFG, np.stack([_NAN, _NAN]))),
    ("bd_precoders", "bd_str_config", lambda: grassfeed.bd_precoders("cfg", np.stack([_FRAME, _FRAME]))),
    ("zf_precoders", "zf_nan", lambda: grassfeed.zf_precoders(_CFG, np.stack([_NAN, _NAN]))),
    ("zf_precoders", "zf_str_config", lambda: grassfeed.zf_precoders("cfg", np.stack([_FRAME, _FRAME]))),
    ("instant_rate_per_user", "rate_float_user",
     lambda: grassfeed.instant_rate_per_user(_CFG, _FRAME, _BD, 0.5)),
    ("instant_rate_per_user", "rate_str_config",
     lambda: grassfeed.instant_rate_per_user("cfg", _FRAME, _BD, 0)),
    ("instant_rate_per_user", "rate_str_precoders",
     lambda: grassfeed.instant_rate_per_user(_CFG, _FRAME, "bd", 0)),
    ("analog_feedback", "analog_inf_beta",
     lambda: grassfeed.analog_feedback(grassfeed.RngStream(1), _CFG, _FRAME, np.inf)),
    ("analog_feedback", "analog_nan", lambda: grassfeed.analog_feedback(_RNG, _CFG, _NAN, 1.0)),
    ("analog_feedback", "analog_objects", lambda: grassfeed.analog_feedback(_RNG, _CFG, _OBJECTS, 1.0)),
    ("analog_feedback", "analog_str_config", lambda: grassfeed.analog_feedback(_RNG, "cfg", _FRAME, 1.0)),
    ("rate_loss_bound", "loss_nan_distortion", lambda: grassfeed.rate_loss_bound(_CFG, np.nan)),
    ("rate_loss_bound", "loss_str_config", lambda: grassfeed.rate_loss_bound("cfg", 0.1)),
    ("analog_rate_loss_bound", "analog_loss_inf_beta",
     lambda: grassfeed.analog_rate_loss_bound(_CFG, np.inf)),
    ("analog_rate_loss_bound", "analog_loss_str_config",
     lambda: grassfeed.analog_rate_loss_bound("cfg", 2.0)),
    ("analog_rate_loss_limit", "analog_limit_nan_beta",
     lambda: grassfeed.analog_rate_loss_limit(4, 2, np.nan)),
    ("perfect_csi_sum_rate", "perfect_rate_unknown_scheme",
     lambda: grassfeed.perfect_csi_sum_rate(_CFG, "mmse")),
    ("perfect_csi_sum_rate", "perfect_rate_str_config", lambda: grassfeed.perfect_csi_sum_rate("cfg")),
    # quant_emulator
    ("decompose", "decompose_nan", lambda: grassfeed.decompose(_NAN, _FRAME)),
    ("decompose", "decompose_no_columns",
     lambda: grassfeed.decompose(np.zeros((4, 0)), np.zeros((4, 0)))),
    ("emulate_quantization", "emulate_nan", lambda: grassfeed.emulate_quantization(_RNG, _NAN, 12)),
    ("emulate_quantization", "emulate_huge_bits",
     lambda: grassfeed.emulate_quantization(_RNG, _FRAME, 10 ** 400)),
    ("sample_min_d2", "min_d2_float_bits", lambda: grassfeed.sample_min_d2(_RNG, _GC, 80.5)),
    ("sample_min_d2", "min_d2_negative_size", lambda: grassfeed.sample_min_d2(_RNG, _GC, 80, size=-1)),
    ("sample_min_d2", "min_d2_float_size", lambda: grassfeed.sample_min_d2(_RNG, _GC, 80, size=2.5)),
    ("sample_min_d2", "min_d2_str_constants", lambda: grassfeed.sample_min_d2(_RNG, "gc", 80)),
    ("sample_min_d2", "min_d2_huge_bits", lambda: grassfeed.sample_min_d2(_RNG, _GC, 10 ** 400)),
    ("sample_min_d2", "min_d2_huge_size", lambda: grassfeed.sample_min_d2(_RNG, _GC, 80, size=2 ** 62)),
    ("beta_trace_pdf", "trace_pdf_float_m", lambda: grassfeed.beta_trace_pdf(4.5, 0.5)),
    ("beta_trace_pdf", "trace_pdf_string", lambda: grassfeed.beta_trace_pdf(4, [0.1, "a"])),
    # scaling
    ("bits_for_rate_loss", "bits_nan_power", lambda: grassfeed.bits_for_rate_loss(4, 2, np.nan, 4)),
    ("bd_3db_bits", "bd_3db_nan_power", lambda: grassfeed.bd_3db_bits(4, 2, np.nan)),
    ("zf_3db_bits", "zf_3db_nan_m", lambda: grassfeed.zf_3db_bits(np.nan, 10)),
    ("zf_bits_for_rate_loss", "zf_bits_float_m",
     lambda: grassfeed.zf_bits_for_rate_loss(4.5, 2, 10, 4)),
    ("bd_zf_rate_gap", "gap_float_m", lambda: grassfeed.bd_zf_rate_gap(4.0, 2)),
    ("analog_vs_quantized_bounds", "versus_nan_beta",
     lambda: grassfeed.analog_vs_quantized_bounds(4, 2, np.nan, 10.0)),
    ("c_prime", "c_prime_str_constants", lambda: grassfeed.c_prime("gc")),
    ("c_double_prime", "c_double_prime_str_constants", lambda: grassfeed.c_double_prime("gc")),
    # simulator
    ("FeedbackPolicy", "policy_nan_beta", lambda: grassfeed.FeedbackPolicy(mode="analog", beta=np.nan)),
    ("ExperimentSpec", "spec_float_m",
     lambda: grassfeed.ExperimentSpec(4.0, 2, (0.0,), _PERFECT, 2, 1)),
    ("ExperimentSpec", "spec_str_policy", lambda: grassfeed.ExperimentSpec(4, 2, (0.0,), "perfect", 2, 1)),
    ("run_experiment", "run_zero_threads",
     lambda: grassfeed.run_experiment(grassfeed.ExperimentSpec(4, 2, (0.0,), _PERFECT, 2, 1), threads=0)),
    # 2^24 entries of (8, 4) would take a 2.4 GiB scan workspace
    ("run_experiment", "run_over_cap_scan", lambda: grassfeed.run_experiment(_OVER_CAP)),
    ("run_experiment", "run_huge_trials", lambda: grassfeed.run_experiment(_HUGE_TRIALS)),
    ("run_experiment", "run_huge_bits_emulated_bd", lambda: grassfeed.run_experiment(_HUGE_BITS)),
    ("run_experiment", "run_huge_bits_exhaustive_zf", lambda: grassfeed.run_experiment(
        dataclasses.replace(_HUGE_BITS, policy=grassfeed.FeedbackPolicy(
            mode="quantized_exhaustive", bits=10 ** 400), precoder="zf"))),
    ("run_experiment", "run_str_spec", lambda: grassfeed.run_experiment("spec")),
    ("RateCurve", "curve_str_points", lambda: grassfeed.RateCurve(("a",))),
    ("RateCurve", "curve_int_points", lambda: grassfeed.RateCurve(5)),
    ("estimate_snr_gap", "gap_falling_reference", lambda: grassfeed.estimate_snr_gap(_FALLING, _FALLING)),
    ("estimate_snr_gap", "gap_str_curves", lambda: grassfeed.estimate_snr_gap("a", "b")),
    ("write_curve_csv", "write_str_curve", lambda: grassfeed.write_curve_csv("c", "unwritten.csv")),
    ("read_curve_csv", "read_foreign_file", lambda: grassfeed.read_curve_csv(__file__)),
]

# the same for internal kernels the engine runs, reached through their
# modules
_INTERNAL_BAD_CALLS = [
    ("emulate_batch", "emulate_batch_float_bits",
     lambda: quant_emulator.emulate_batch(_RNG, _FRAME[np.newaxis], 12.5)),
    ("emulate_batch", "emulate_batch_flat", lambda: quant_emulator.emulate_batch(_RNG, _FRAME, 12)),
    ("emulate_batch", "emulate_batch_4d",
     lambda: quant_emulator.emulate_batch(_RNG, _FRAME[np.newaxis, np.newaxis], 12)),
    ("emulate_batch", "emulate_batch_nan",
     lambda: quant_emulator.emulate_batch(_RNG, _NAN[np.newaxis], 12)),
]

# Public callables with no argument of their own to check: the result
# records the library returns.
_NOTHING_TO_CHECK = {
    "QuantizationResult", "AnalogObservation", "QuantDecomposition", "BitsResult",
    "RatePoint", "GapEstimate",
}


# rows that must raise one particular GrassfeedError
_ROW_ERRORS = {
    "gaussian_float_batch": errors.ParameterError,
    "gaussian_int_batch": errors.ParameterError,
    "gaussian_huge_batch": errors.MemoryGuard,
    "frame_negative_batch": errors.ParameterError,
    "frame_huge_batch": errors.MemoryGuard,
    "nullspace_frame_no_columns": errors.DimensionError,
    "decompose_no_columns": errors.DimensionError,
    "emulate_batch_flat": errors.DimensionError,
    "emulate_batch_4d": errors.DimensionError,
    "emulate_batch_nan": errors.NotPD,
    "chordal_strings": errors.ParameterError,
    "analog_objects": errors.ParameterError,
    "analog_nan": errors.ParameterError,
    "trace_pdf_string": errors.ParameterError,
    "run_huge_trials": errors.MemoryGuard,
    "run_huge_bits_emulated_bd": errors.ParameterError,
    "run_huge_bits_exhaustive_zf": errors.ParameterError,
    "stream_str_entry": errors.ParameterError,
    "stream_int": errors.ParameterError,
    "stream_negative_entry": errors.ParameterError,
    "child_negative": errors.ParameterError,
    "child_float": errors.ParameterError,
    "samples_huge_trials": errors.MemoryGuard,
    "emulate_huge_bits": errors.ParameterError,
    "min_d2_huge_bits": errors.ParameterError,
    "min_d2_huge_size": errors.MemoryGuard,
    # a wrong-type library object
    "quantize_str_codebook": errors.ParameterError,
    "bound_str_constants": errors.ParameterError,
    "main_term_str_constants": errors.ParameterError,
    "bd_str_config": errors.ParameterError,
    "zf_str_config": errors.ParameterError,
    "rate_str_config": errors.ParameterError,
    "rate_str_precoders": errors.ParameterError,
    "analog_str_config": errors.ParameterError,
    "loss_str_config": errors.ParameterError,
    "analog_loss_str_config": errors.ParameterError,
    "perfect_rate_str_config": errors.ParameterError,
    "min_d2_str_constants": errors.ParameterError,
    "c_prime_str_constants": errors.ParameterError,
    "c_double_prime_str_constants": errors.ParameterError,
    "spec_str_policy": errors.ParameterError,
    "run_str_spec": errors.ParameterError,
    "gap_str_curves": errors.ParameterError,
    "write_str_curve": errors.ParameterError,
    "curve_str_points": errors.ParameterError,
    "curve_int_points": errors.ParameterError,
}


@pytest.mark.parametrize("case, call", [(i, c) for _, i, c in _BAD_CALLS + _INTERNAL_BAD_CALLS],
                         ids=[i for _, i, _ in _BAD_CALLS + _INTERNAL_BAD_CALLS])
def test_public_entry_points_reject_bad_input(case, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(_ROW_ERRORS.get(case, GrassfeedError)):
            call()


def _refused_peak(spec):
    """Peak traced bytes of a run_experiment(spec) that raises MemoryGuard."""
    tracemalloc.start()
    try:
        with pytest.raises(errors.MemoryGuard):
            run_experiment(spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_over_cap_scan_allocates_nothing():
    """The element cap is checked when the sweep is planned, before any
    codebook or channel is drawn."""
    assert _refused_peak(_OVER_CAP) < 2 ** 20


def test_huge_trial_count_allocates_nothing():
    """The rates buffer of 2^62 trials is refused before any channel is drawn."""
    assert _refused_peak(_HUGE_TRIALS) < 2 ** 20


# large but valid arguments of the closed forms: a finite value or a
# DomainError, never a raw OverflowError or a RuntimeWarning
_LARGE_GC = grassfeed.GrassmannConstants(400, 200)
_LARGE_CALLS = [
    ("bound_2000_bits", lambda: grassfeed.distortion_bound(_GC, 2000)),
    ("bound_large_shape", lambda: grassfeed.distortion_bound(_LARGE_GC, 10 ** 6)),
    ("main_term_large_shape", lambda: grassfeed.distortion_main_term(_LARGE_GC, 10)),
    ("versus_huge_power", lambda: grassfeed.analog_vs_quantized_bounds(4, 2, 2.0, 1e300)),
    ("versus_huge_beta", lambda: grassfeed.analog_vs_quantized_bounds(4, 2, 1e300, 1e3)),
    ("versus_large_shape", lambda: grassfeed.analog_vs_quantized_bounds(400, 200, 2.0, 10.0)),
    ("trace_pdf_m200", lambda: grassfeed.beta_trace_pdf(200, 0.5)),
    ("bd_3db_large_shape", lambda: grassfeed.bd_3db_bits(400, 200, 10)),
    ("c_prime_large_shape", lambda: grassfeed.c_prime(_LARGE_GC)),
    ("c_double_prime_large_shape", lambda: grassfeed.c_double_prime(_LARGE_GC)),
    ("min_d2_subnormal_c", lambda: grassfeed.sample_min_d2(
        _RNG, grassfeed.GrassmannConstants(40, 20), 2000, size=4)),
    ("perfect_rate_huge_power", lambda: grassfeed.perfect_csi_sum_rate(
        grassfeed.SystemConfig(4, 2, 1e308))),
    ("perfect_rate_subnormal_power", lambda: grassfeed.perfect_csi_sum_rate(
        grassfeed.SystemConfig(8, 4, 5e-324), "zf")),
]


@pytest.mark.parametrize("call", [c for _, c in _LARGE_CALLS], ids=[i for i, _ in _LARGE_CALLS])
def test_closed_forms_on_large_arguments(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = call()
        except errors.DomainError:
            return
    values = np.atleast_1d(np.asarray(value, dtype=float))
    assert np.all(np.isfinite(values) & (values >= 0))


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
    internal = {name for names in _INTERNAL.values() for name in names}
    assert {name for name, _, _ in _INTERNAL_BAD_CALLS} <= internal


def test_benchmark_bindings_exist(monkeypatch):
    """Every name the benchmark wraps or records is still bound, so a
    deletion that would crash it at import fails here first."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    missing = [
        name for owner, attr, name in tracer.LAYER_FUNCTIONS if attr not in vars(owner)
    ]
    assert missing == []
    # what the harness, the workloads and the reference builder call
    used = [
        (simulator, "CHUNK_TRIALS"), (simulator, "run_experiment"),
        (simulator, "write_curve_csv"), (simulator, "ExperimentSpec"),
        (simulator, "FeedbackPolicy"), (ensembles, "RngStream"), (ensembles, "gaussian_matrix"),
        (grassfeed, "ExperimentSpec"), (grassfeed, "FeedbackPolicy"), (grassfeed, "run_experiment"),
    ]
    assert [name for owner, name in used if name not in vars(owner)] == []
    # the point fields the harness's correctness gate reads
    fields = {f.name for f in dataclasses.fields(simulator.RatePoint)}
    assert {"p_db", "sum_rate", "per_user_rate", "ci99", "mode", "bits_used"} <= fields
    assert grassfeed.BACKEND == "python"
    assert callable(_backend.quantize_gaussians)
    # the same object, so wrapping it by identity wraps every engine call
    assert _backend.orthonormalize is linalg.orthonormalize
