"""Finite-rate feedback simulation for multi-antenna broadcast channels.

The package models a downlink where a transmitter with M antennas serves
K = M/N users of N antennas each through block-diagonalization (or
single-antenna zero-forcing) precoding, with the channel knowledge at the
transmitter degraded by quantized or analog feedback. It provides

* seeded ensembles of Gaussian matrices and isotropic Grassmann frames,
* random quantization codebooks, chordal distortion and its analytic bound,
* a closed-form emulation of codebook quantization whose cost does not grow
  with the bit budget,
* precoder construction, instantaneous rates and rate-loss bounds,
* feedback scaling laws relating bit budgets to SNR, and
* a deterministic Monte Carlo engine with SNR-gap estimation and a CLI.

The package is pure Python over numpy. The hot kernels (batched
orthonormalization and the fresh-codebook scan) live in
:mod:`grassfeed._backend`; :data:`BACKEND` is always ``"python"`` and is
kept only for the benchmark's environment record.
"""

from ._backend import BACKEND
from .ensembles import (
    RngStream,
    gaussian_matrix,
    isotropic_frame,
    isotropic_frame_in_nullspace,
    matrix_beta,
)
from .errors import (
    ConfigError,
    DegenerateProjection,
    DimensionError,
    DomainError,
    FallbackRequired,
    GrassfeedError,
    IncompatiblePolicy,
    Infeasible,
    MemoryGuard,
    NoOverlap,
    NotHermitian,
    NotPD,
    NotPSD,
    ParameterError,
    RankDeficient,
)
from .grassmann import (
    CODEBOOK_ENTRY_CAP,
    Codebook,
    GrassmannConstants,
    QuantizationResult,
    chordal_distance_sq,
    distortion_bound,
    distortion_main_term,
    distortion_samples,
    empirical_distortion,
    load_codebook,
    principal_angles,
    quantize,
    random_codebook,
    save_codebook,
)
from .linalg import (
    cholesky_upper,
    hermitian_eig,
    left_nullspace_basis,
    logdet_hermitian,
    thin_qr,
)
from .precoding import (
    AnalogObservation,
    PrecoderSet,
    SystemConfig,
    analog_feedback,
    analog_rate_loss_bound,
    analog_rate_loss_limit,
    bd_precoders,
    instant_rate_per_user,
    rate_loss_bound,
    zf_precoders,
)
from .quant_emulator import (
    DEFAULT_GUARD_PRODUCT,
    CondEigSampler,
    QuantDecomposition,
    beta_trace_pdf,
    decompose,
    default_cond_sampler,
    emulate_batch,
    emulate_quantization,
    sample_cond_eigs,
    sample_min_d2,
)
from .scaling import (
    BitsResult,
    analog_vs_quantized_bounds,
    bd_3db_bits,
    bd_zf_rate_gap,
    bits_for_rate_loss,
    c_double_prime,
    c_prime,
    zf_3db_bits,
    zf_bits_for_rate_loss,
)
from .simulator import (
    ExperimentSpec,
    FeedbackPolicy,
    GapEstimate,
    RateCurve,
    RatePoint,
    estimate_snr_gap,
    read_curve_csv,
    run_experiment,
    write_curve_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "__version__",
    # ensembles
    "RngStream",
    "gaussian_matrix",
    "isotropic_frame",
    "isotropic_frame_in_nullspace",
    "matrix_beta",
    # errors
    "GrassfeedError",
    "ConfigError",
    "DegenerateProjection",
    "DimensionError",
    "DomainError",
    "FallbackRequired",
    "IncompatiblePolicy",
    "Infeasible",
    "MemoryGuard",
    "NoOverlap",
    "NotHermitian",
    "NotPD",
    "NotPSD",
    "ParameterError",
    "RankDeficient",
    # grassmann
    "CODEBOOK_ENTRY_CAP",
    "Codebook",
    "GrassmannConstants",
    "QuantizationResult",
    "chordal_distance_sq",
    "distortion_bound",
    "distortion_main_term",
    "distortion_samples",
    "empirical_distortion",
    "load_codebook",
    "principal_angles",
    "quantize",
    "random_codebook",
    "save_codebook",
    # linalg
    "cholesky_upper",
    "hermitian_eig",
    "left_nullspace_basis",
    "logdet_hermitian",
    "thin_qr",
    # precoding
    "AnalogObservation",
    "PrecoderSet",
    "SystemConfig",
    "analog_feedback",
    "analog_rate_loss_bound",
    "analog_rate_loss_limit",
    "bd_precoders",
    "instant_rate_per_user",
    "rate_loss_bound",
    "zf_precoders",
    # quantization emulation
    "DEFAULT_GUARD_PRODUCT",
    "CondEigSampler",
    "QuantDecomposition",
    "beta_trace_pdf",
    "decompose",
    "default_cond_sampler",
    "emulate_batch",
    "emulate_quantization",
    "sample_cond_eigs",
    "sample_min_d2",
    # scaling laws
    "BitsResult",
    "analog_vs_quantized_bounds",
    "bd_3db_bits",
    "bd_zf_rate_gap",
    "bits_for_rate_loss",
    "c_double_prime",
    "c_prime",
    "zf_3db_bits",
    "zf_bits_for_rate_loss",
    # simulator
    "ExperimentSpec",
    "FeedbackPolicy",
    "GapEstimate",
    "RateCurve",
    "RatePoint",
    "estimate_snr_gap",
    "read_curve_csv",
    "run_experiment",
    "write_curve_csv",
]
