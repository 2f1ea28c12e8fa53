"""Multiuser precoding and instantaneous rates.

The downlink has M transmit antennas and K = M/N users with N antennas
each, y_k = H_k^H x + n_k. Power P is split uniformly over the M transmit
streams. Block diagonalization sends user k through an orthonormal basis of
the left nullspace of the stacked other-user channel knowledge; zero
forcing treats every receive antenna as its own user and beams orthogonally
to all other M - 1 known columns.

Both precoders are read off one inverse. With the knowledge stacked as the
square matrix A = [H_1 ... H_K] (the antenna budget is fully loaded, so
K N = M), W = inv(A^H) satisfies H_j^H W_k = 0 for j != k and
H_k^H W_k = I, where W_k is the k-th N-column block of W. The left
nullspace of the other users' M - N columns has dimension exactly N, and
the N independent columns of W_k lie in it, so W_k spans that nullspace
and BD orthonormalizes it. Each column of W is likewise orthogonal to the
other M - 1 knowledge columns, so ZF normalizes it: up to phase it is the
only unit vector in their one-dimensional complement (Spencer, Swindlehurst
& Haardt, IEEE TSP 2004).

Rates are evaluated as the difference of two log-dets,

    R_k = log2 det(I + c sum_j G_j G_j^H) - log2 det(I + c sum_{j!=k} ...)

with G_j = H_k^H V_j and c = P/M. All G_kj of a trial come from one
matrix product, [H_1 ... H_K]^H [V_1 ... V_K]. When the precoders were
built from perfect knowledge the interference term vanishes and the
expression reduces to a single log-det; with quantized or analog
knowledge the residual interference is what produces the rate loss
studied here.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _backend
from .ensembles import as_generator, gaussian_matrix
from .errors import DimensionError, ParameterError, RankDeficient
from .linalg import gram_rows, logdet_hermitian_batch, sumsq

__all__ = [
    "SystemConfig",
    "PrecoderSet",
    "AnalogObservation",
    "bd_precoders",
    "zf_precoders",
    "instant_rate_per_user",
    "analog_feedback",
    "rate_loss_bound",
    "analog_rate_loss_bound",
    "analog_rate_loss_limit",
]


@dataclass(frozen=True)
class SystemConfig:
    """Downlink shape: M transmit antennas, N per user, power P.

    The antenna budget is fully loaded: K = M/N users exactly, K >= 2.
    """

    m: int
    n: int
    p: float

    def __post_init__(self):
        if self.n < 1 or self.m < 2 * self.n:
            raise ParameterError(f"need 1 <= N <= M/2, got M={self.m}, N={self.n}")
        if self.m % self.n != 0:
            raise ParameterError(f"M must be a multiple of N, got M={self.m}, N={self.n}")
        if not self.p > 0:
            raise ParameterError(f"power must be positive, got {self.p}")

    @property
    def k(self):
        return self.m // self.n


@dataclass(frozen=True)
class PrecoderSet:
    """K precoding matrices of shape (M, N), one per user.

    scheme is "bd" (orthonormal per-user blocks) or "zf" (unit-norm
    per-antenna beams, not mutually orthogonal within a block).
    """

    matrices: np.ndarray
    scheme: str

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=np.complex128)
        if m.ndim != 3:
            raise DimensionError(f"matrices must be (K, M, N), got {m.shape}")
        if self.scheme not in ("bd", "zf"):
            raise ParameterError(f"scheme must be 'bd' or 'zf', got {self.scheme!r}")
        object.__setattr__(self, "matrices", m)


def _knowledge_stack(cfg, knowledge):
    k = np.asarray(knowledge, dtype=np.complex128)
    if k.shape != (cfg.k, cfg.m, cfg.n):
        raise DimensionError(
            f"knowledge must be K={cfg.k} matrices of shape ({cfg.m}, {cfg.n}), got {k.shape}"
        )
    return k


def bd_precoders(cfg, knowledge):
    """Block-diagonalization precoders from per-user channel knowledge.

    V_k is an orthonormal basis of the left nullspace of the other users'
    stacked knowledge matrices, so knowledge_j^H V_k = 0 for j != k. It is
    the orthonormalized k-th N-column block of inv([H_1 ... H_K]^H): that
    block's N independent columns lie in the N-dimensional nullspace, so
    they span it. Any basis gives the same rates (only V_k V_k^H enters
    them).

    Raises RankDeficient if the stacked knowledge is singular.
    """
    know = _knowledge_stack(cfg, knowledge)
    return PrecoderSet(matrices=bd_precoders_batch(know[np.newaxis])[0], scheme="bd")


def zf_precoders(cfg, knowledge):
    """Zero-forcing beams from per-antenna channel knowledge.

    The M knowledge columns are treated as M single-antenna users; beam
    (k, i) is the unit vector orthogonal to all other M - 1 columns,
    grouped N per user. It is the normalized matching column of
    inv([H_1 ... H_K]^H), which is orthogonal to every other column and
    spans their one-dimensional complement, so the beam is the same up to
    phase.

    Raises RankDeficient if the stacked knowledge is singular.
    """
    know = _knowledge_stack(cfg, knowledge)
    return PrecoderSet(matrices=zf_precoders_batch(know[np.newaxis])[0], scheme="zf")


def instant_rate_per_user(cfg, h_k, precoders, k):
    """Instantaneous rate of user k under a full precoder set.

    Treats user k's N receive antennas jointly; power P/M per stream. This
    validates its arguments and evaluates :func:`rates_batch` with h_k in
    every user's slot, reading off user k.
    """
    h_k = np.asarray(h_k, dtype=np.complex128)
    if h_k.shape != (cfg.m, cfg.n):
        raise DimensionError(f"channel must be ({cfg.m}, {cfg.n}), got {h_k.shape}")
    mats = precoders.matrices
    if mats.shape[:2] != (cfg.k, cfg.m):
        raise DimensionError(f"precoder set must be {cfg.k} matrices with {cfg.m} rows, got {mats.shape}")
    if not 0 <= k < cfg.k:
        raise ParameterError(f"user index {k} out of range 0..{cfg.k - 1}")
    channels = np.broadcast_to(h_k, (1, cfg.k, cfg.m, cfg.n))
    return float(rates_batch(cfg.p, channels, mats[np.newaxis])[0, k])


@dataclass(frozen=True)
class AnalogObservation:
    """Unquantized feedback of one user's channel.

    received = sqrt(beta P) H + W with unit-variance complex Gaussian W;
    estimate is the MMSE reconstruction sqrt(beta P)/(1 + beta P) received;
    residual F = sqrt(1 + beta P) (H - estimate) has unit-variance entries,
    exposed for the moment tests.
    """

    beta: float
    received: np.ndarray
    estimate: np.ndarray
    residual: np.ndarray


def analog_feedback(rng, cfg, h_k, beta):
    """Observe a channel through beta M uses of an AWGN feedback link."""
    if not beta > 0:
        raise ParameterError(f"beta must be positive, got {beta}")
    h_k = np.asarray(h_k, dtype=np.complex128)
    if h_k.shape != (cfg.m, cfg.n):
        raise DimensionError(f"channel must be ({cfg.m}, {cfg.n}), got {h_k.shape}")
    snr = beta * cfg.p
    received, estimate = analog_feedback_batch(as_generator(rng), h_k, snr)
    residual = math.sqrt(1.0 + snr) * (h_k - estimate)
    return AnalogObservation(beta=float(beta), received=received, estimate=estimate, residual=residual)


def analog_feedback_batch(gen, h, snr):
    """(received, MMSE estimate) of a (..., M, N) channel stack. Internal.

    One unit-variance Gaussian noise draw shaped like h; snr = beta P.
    """
    noise = gaussian_matrix(gen, *h.shape[-2:], batch=h.shape[:-2])
    received = math.sqrt(snr) * h + noise
    return received, math.sqrt(snr) / (1.0 + snr) * received


def rate_loss_bound(cfg, distortion):
    """Per-user rate loss bound under quantized feedback.

    N log2(1 + (P/N) D) with D the expected quantization distortion
    E[min d^2].
    """
    if distortion < 0:
        raise ParameterError(f"distortion must be >= 0, got {distortion}")
    return cfg.n * math.log2(1.0 + cfg.p / cfg.n * distortion)


def analog_rate_loss_bound(cfg, beta):
    """Per-user rate loss bound under analog feedback at finite power.

    N log2(1 + ((M-N)/M) P / (1 + beta P)).
    """
    if not beta > 0:
        raise ParameterError(f"beta must be positive, got {beta}")
    frac = (cfg.m - cfg.n) / cfg.m
    return cfg.n * math.log2(1.0 + frac * cfg.p / (1.0 + beta * cfg.p))

def analog_rate_loss_limit(m, n, beta):
    """High-power limit of the analog bound: N log2(1 + ((M-N)/M)/beta)."""
    if not beta > 0:
        raise ParameterError(f"beta must be positive, got {beta}")
    return n * math.log2(1.0 + (m - n) / m / beta)


def _inverse_blocks(knowledge):
    """inv(A^H) of the stacked knowledge A, as (T, K, M, N) column blocks."""
    t, k, m, n = knowledge.shape
    a_h = np.swapaxes(knowledge, -2, -1).conj().reshape(t, m, m)
    try:
        w = np.linalg.inv(a_h)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient("stacked channel knowledge is singular") from exc
    return np.swapaxes(w.reshape(t, m, k, n), 1, 2)


def bd_precoders_batch(knowledge):
    """Batched BD precoders for a (T, K, M, N) knowledge stack. Internal."""
    return _backend.orthonormalize(_inverse_blocks(knowledge))


def zf_precoders_batch(knowledge):
    """Batched ZF beams for a (T, K, M, N) knowledge stack. Internal."""
    w = _inverse_blocks(knowledge)
    # the beams are w's columns; summing them as C-ordered rows is faster
    beams = np.ascontiguousarray(np.swapaxes(w, -2, -1))
    return w / np.sqrt(sumsq(beams))[..., np.newaxis, :]


def rates_batch(p, channels, precoders):
    """Per-user rates for a (T, K, M, N) channel and precoder stack. Internal.

    Every G_kj = H_k^H V_j comes from one (KN, M) x (M, KN) product per
    trial. The own blocks G_kk are copied out and then zeroed, so user k's
    interference Gram is its (N, KN) row block times its conjugate
    transpose: a sum over the other users' terms alone. Subtracting the own
    term from the full sum would cancel catastrophically at high power and
    lose positive definiteness. Both N x N Grams come from their
    N(N+1)/2 upper entries, one vector operation over the whole stack each
    (:func:`~grassfeed.linalg.gram_rows`), and both log-dets from a
    vectorized LDL^H, so no per-user matmul or LAPACK call runs.
    Raises ParameterError if P/M times a gain leaves the double range.
    """
    t, k, m, n = channels.shape
    c = p / m
    # conjugating into a C-ordered buffer makes the (T, KN, M) reshape free
    hh = np.empty((t, k, n, m), dtype=np.complex128)
    np.conjugate(np.swapaxes(channels, -2, -1), out=hh)
    g = np.matmul(hh.reshape(t, k * n, m), np.swapaxes(precoders, 1, 2).reshape(t, m, k * n))
    blocks = g.reshape(t, k, n, k, n).transpose(0, 1, 3, 2, 4)  # [t, k, j] = G_kj
    users = np.arange(k)
    own = blocks[:, users, users]  # advanced indexing copies
    blocks[:, users, users] = 0.0
    intf = gram_rows(g.reshape(t, k, n, k * n))
    total = gram_rows(own)
    try:
        with np.errstate(over="raise"):
            intf *= c
            intf += np.eye(n)
            total *= c
            total += intf
    except FloatingPointError as exc:
        raise ParameterError(
            f"rates overflow the double range at P = {10 * math.log10(p):.6g} dB"
        ) from exc
    return logdet_hermitian_batch(total) - logdet_hermitian_batch(intf)
