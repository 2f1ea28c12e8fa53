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

Next to each rate, :func:`rates_batch` returns the user's
interference-free rate Y_k: log2 det(I + c G_kk G_kk^H) under BD and
sum_i log2(1 + c |g_ii|^2) under ZF. The precoders serving user k are
built from the other users' knowledge only, so G_kk is an N x N matrix of
i.i.d. CN(0, 1) entries under BD, and each g_ii a CN(0, 1) gain under ZF,
whatever that knowledge is. The mean of Y_k is therefore known in closed
form (:func:`perfect_csi_sum_rate`): it is the perfect-CSI rate, Telatar's
integral T_N(c) over ln 2 (Telatar 1999). It also returns the user's
multi-user leakage L_k = sum_{j!=k} ||H_k^H V_j||_F^2, the interference
power before it is scaled by c, whose mean the simulator knows in closed
form too. The simulator regresses the rate on Y and L to take the fading
and leakage variance out of its estimates.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import gaussian_matrix
from .errors import (
    DimensionError,
    ParameterError,
    RankDeficient,
    _as_array,
    _check_real,
    _check_shape,
    _check_type,
    _is_count,
)
from .linalg import gram_rows, logdet_hermitian_batch, orthonormalize, sumsq

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
    "perfect_csi_sum_rate",
]

_EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class SystemConfig:
    """Downlink shape: M transmit antennas, N per user, power P.

    The antenna budget is fully loaded: K = M/N users exactly, K >= 2.
    """

    m: int
    n: int
    p: float

    def __post_init__(self):
        _check_shape(self.m, self.n, loaded=True)
        _check_real("power P", self.p, low=0)

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
        m = _as_array("matrices", self.matrices)
        if m.ndim != 3:
            raise DimensionError(f"matrices must be (K, M, N), got {m.shape}")
        if self.scheme not in ("bd", "zf"):
            raise ParameterError(f"scheme must be 'bd' or 'zf', got {self.scheme!r}")
        object.__setattr__(self, "matrices", m)


def _shaped(x, shape, what):
    """x as a complex array, once its shape is ``shape``."""
    x = _as_array(what, x)
    if x.shape != shape:
        raise DimensionError(f"{what} must have shape {shape}, got {x.shape}")
    return x


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
    _check_type("cfg", cfg, SystemConfig)
    know = _shaped(knowledge, (cfg.k, cfg.m, cfg.n), "knowledge")
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
    _check_type("cfg", cfg, SystemConfig)
    know = _shaped(knowledge, (cfg.k, cfg.m, cfg.n), "knowledge")
    return PrecoderSet(matrices=zf_precoders_batch(know[np.newaxis])[0], scheme="zf")


def instant_rate_per_user(cfg, h_k, precoders, k):
    """Instantaneous rate of user k under a full precoder set.

    Treats user k's N receive antennas jointly; power P/M per stream. This
    validates its arguments and evaluates :func:`rates_batch` with h_k in
    every user's slot, reading off user k.
    """
    _check_type("cfg", cfg, SystemConfig)
    _check_type("precoders", precoders, PrecoderSet)
    h_k = _shaped(h_k, (cfg.m, cfg.n), "channel")
    mats = precoders.matrices
    if mats.shape[:2] != (cfg.k, cfg.m):
        raise DimensionError(f"precoder set must be {cfg.k} matrices with {cfg.m} rows, got {mats.shape}")
    if not (_is_count(k) and k < cfg.k):
        raise ParameterError(f"user index {k!r} is not an integer in 0..{cfg.k - 1}")
    channels = np.broadcast_to(h_k, (1, cfg.k, cfg.m, cfg.n))
    return float(rates_batch(cfg.p, channels, mats[np.newaxis], precoders.scheme)[0][0, k])


@dataclass(frozen=True)
class AnalogObservation:
    """Unquantized feedback of one user's channel.

    received = sqrt(beta P) H + W with unit-variance complex Gaussian W;
    estimate is the MMSE reconstruction sqrt(beta P)/(1 + beta P) received.
    """

    beta: float
    received: np.ndarray
    estimate: np.ndarray


def analog_feedback(rng, cfg, h_k, beta):
    """Observe a channel through beta M uses of an AWGN feedback link.

    Raises ParameterError for a non-finite beta, beta P or channel entry.
    """
    _check_type("cfg", cfg, SystemConfig)
    _check_real("beta", beta, low=0)
    snr = float(beta) * float(cfg.p)
    _check_real("beta P", snr, low=0)
    h_k = _shaped(h_k, (cfg.m, cfg.n), "channel")
    if not np.isfinite(h_k).all():
        raise ParameterError("channel has a non-finite entry")
    received, estimate = analog_feedback_batch(gaussian_matrix(rng, cfg.m, cfg.n), h_k, snr)
    return AnalogObservation(beta=float(beta), received=received, estimate=estimate)


def analog_feedback_batch(noise, h, snr):
    """(received, MMSE estimate) of a (..., M, N) channel stack h observed
    through the unit-variance Gaussian ``noise``; snr = beta P. Internal."""
    received = math.sqrt(snr) * h + noise
    return received, math.sqrt(snr) / (1.0 + snr) * received


def rate_loss_bound(cfg, distortion):
    """Per-user rate loss bound under quantized feedback.

    N log2(1 + (P/N) D) with D the expected quantization distortion
    E[min d^2].
    """
    _check_type("cfg", cfg, SystemConfig)
    _check_real("distortion", distortion, low=0, closed=True)
    return cfg.n * math.log2(1.0 + cfg.p / cfg.n * distortion)


def analog_rate_loss_bound(cfg, beta):
    """Per-user rate loss bound under analog feedback at finite power.

    N log2(1 + ((M-N)/M) P / (1 + beta P)).
    """
    _check_type("cfg", cfg, SystemConfig)
    _check_real("beta", beta, low=0)
    frac = (cfg.m - cfg.n) / cfg.m
    return cfg.n * math.log2(1.0 + frac * cfg.p / (1.0 + beta * cfg.p))


def analog_rate_loss_limit(m, n, beta):
    """High-power limit of the analog bound: N log2(1 + ((M-N)/M)/beta)."""
    _check_shape(m, n, loaded=True)
    _check_real("beta", beta, low=0)
    return n * math.log2(1.0 + (m - n) / m / beta)


def perfect_csi_sum_rate(cfg, scheme="bd"):
    """Expected sum rate under perfect CSI, bps/Hz.

    K T_N(P/M) / ln 2 for BD and M T_1(P/M) / ln 2 for ZF, where T_N(c) is
    the mean of ln det(I + c G G^H) over N x N matrices G of i.i.d.
    CN(0, 1) entries (:func:`_telatar`). It is also the mean of the
    interference-free sum rate at any feedback, so the rate loss of a
    simulated curve is this minus its sum rate.
    """
    _check_type("cfg", cfg, SystemConfig)
    if scheme not in ("bd", "zf"):
        raise ParameterError(f"scheme must be 'bd' or 'zf', got {scheme!r}")
    return _free_sum_rate_mean(cfg.m, cfg.n, cfg.p, scheme)


def _free_sum_rate_mean(m, n, p, scheme):
    """:func:`perfect_csi_sum_rate` for a shape and power already checked."""
    c = p / m
    if scheme == "zf":
        return m * _telatar(1, c) / math.log(2.0)
    return m // n * _telatar(n, c) / math.log(2.0)


def _telatar(n, c):
    """T_N(c) = E ln det(I + c G G^H) for G N x N with i.i.d. CN(0, 1)
    entries, in nats, c >= 0.

    With p(l) = sum_{k<N} L_k(l)^2 (Laguerre polynomials) the eigenvalue
    density of G G^H gives T_N = int_0^inf ln(1 + c l) p(l) e^-l dl
    (Telatar 1999). Write p(l) e^-l = sum_j b_j l^j e^-l / j!, whose
    integer weights b_j sum to N, and phi_j = E ln(1 + c Gamma_{j+1}) for
    a Gamma(j + 1, 1) variable. Integrating by parts gives
    phi_j = phi_{j-1} + d_j with d_j = x^j e^x Gamma(-j, x), x = 1/c, and
    phi_0 = d_0 = e^x E_1(x), so T_N = sum_j B_j d_j with the tail sums
    B_j = sum_{i>=j} b_i. Every d_j is positive and comes without
    cancellation: below x = 1 from the series of E_1 and the stable
    recurrence d_j = (1 - x d_{j-1}) / j, from x = 1 up by Legendre's
    continued fraction. The B_j alternate, so rounding grows with N:
    against 50-digit quadrature it is within 2e-14 relative for N <= 4
    and 4e-12 at N = 8, from -60 to 3082.5 dB. Below c = 1e-20 the
    first-order term N^2 c is exact to double precision.
    """
    if c < 1e-20:
        return n * n * c
    b = [0] * (2 * n - 1)
    for k in range(n):
        for i in range(k + 1):
            for j in range(k + 1):
                b[i + j] += (-1) ** (i + j) * math.comb(k, i) * math.comb(k, j) * math.comb(i + j, i)
    x = 1.0 / c
    total = 0.0
    for j in range(2 * n - 1):
        if x >= 1.0:
            d = _gamma_cf(j, x)
        elif j:
            d = (1.0 - x * d) / j
        else:
            series = sum((-x) ** i / (i * math.factorial(i)) for i in range(1, 30))
            d = math.exp(x) * (-_EULER_GAMMA - math.log(x) - series)
        total += sum(b[j:]) * d
    return total


def _gamma_cf(j, x):
    """x^j e^x Gamma(-j, x) for x >= 1: Legendre's continued fraction
    1/(x + 1 + j - 1(1 + j)/(x + 3 + j - 2(2 + j)/(x + 5 + j - ...))),
    by the modified Lentz method."""
    tiny = 1e-300
    den = x + 1.0 + j
    front, back = 1.0 / tiny, 1.0 / den
    value = back
    for i in range(1, 10000):
        an = -i * (i + j)
        den += 2.0
        back = an * back + den
        back = 1.0 / (back if abs(back) >= tiny else tiny)
        front = den + an / front
        if abs(front) < tiny:
            front = tiny
        step = back * front
        value *= step
        if abs(step - 1.0) <= 2.0 ** -52:
            break
    return value


def _inverse_blocks(knowledge):
    """inv(A^H) of the stacked knowledge A, as (T, K, M, N) column blocks.
    RankDeficient if an A is singular or, as NaN knowledge is, not finite."""
    t, k, m, n = knowledge.shape
    a_h = np.swapaxes(knowledge, -2, -1).conj().reshape(t, m, m)
    try:
        w = np.linalg.inv(a_h)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient("stacked channel knowledge is singular") from exc
    if not np.isfinite(w).all():
        raise RankDeficient("stacked channel knowledge has a non-finite inverse")
    return np.swapaxes(w.reshape(t, m, k, n), 1, 2)


def bd_precoders_batch(knowledge):
    """Batched BD precoders for a (T, K, M, N) knowledge stack. Internal."""
    # copied out whole, the inverse is freed before the Gram-Schmidt runs
    return orthonormalize(np.ascontiguousarray(_inverse_blocks(knowledge)))


def zf_precoders_batch(knowledge):
    """Batched ZF beams for a (T, K, M, N) knowledge stack. Internal.

    ZF is BD over M one-column users: the knowledge's M columns, in user
    order, go through :func:`bd_precoders_batch`, so each beam is
    normalized by the same scaled Gram-Schmidt at any knowledge scale.
    """
    t, k, m, n = knowledge.shape
    units = np.swapaxes(knowledge, -2, -1).reshape(t, m, m)[..., np.newaxis]
    beams = bd_precoders_batch(units)[..., 0].reshape(t, k, n, m)
    return np.swapaxes(beams, -2, -1)


def rates_batch(p, channels, precoders, scheme):
    """(rates, free, leak) per user for a (T, K, M, N) channel and
    precoder stack, scheme "bd" or "zf". Internal.

    Every G_kj = H_k^H V_j comes from one (KN, M) x (M, KN) product per
    trial. The own blocks G_kk are copied out and then zeroed, so user k's
    interference Gram is its (N, KN) row block times its conjugate
    transpose: a sum over the other users' terms alone. Subtracting the own
    term from the full sum would cancel catastrophically at high power and
    lose positive definiteness. Both N x N Grams come from their
    N(N+1)/2 upper entries, one vector operation over the whole stack each
    (:func:`~grassfeed.linalg.gram_rows`), and both log-dets from a
    vectorized LDL^H, so no per-user matmul or LAPACK call runs.

    free is each user's interference-free rate, read off the same own
    blocks: log2 det(I + c G_kk G_kk^H) under BD (one more LDL^H) and
    sum_i log2(1 + c |g_ii|^2) under ZF, whose streams are separate users.
    leak is each user's leakage L_k = sum_{j!=k} ||G_kj||_F^2, the real
    trace of the interference Gram, taken before it is scaled by c.
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
    leak = np.diagonal(intf, axis1=-2, axis2=-1).real.sum(axis=-1)
    total = gram_rows(own)
    try:
        with np.errstate(over="raise"):
            intf *= c
            intf += np.eye(n)
            total *= c
            alone = total + np.eye(n) if scheme == "bd" else None
            total += intf
    except FloatingPointError as exc:
        raise ParameterError(
            f"rates overflow the double range at P = {10 * math.log10(p):.6g} dB"
        ) from exc
    if scheme == "bd":
        free = logdet_hermitian_batch(alone)
    else:
        # c |g_ii|^2 is finite because its row's sum in total is; own has
        # the layout of advanced indexing, and a C-ordered copy makes the
        # chunk sum users in the same order as the rates
        gain = sumsq(np.ascontiguousarray(np.diagonal(own, axis1=-2, axis2=-1))[..., np.newaxis])
        free = np.log2(c * gain + 1.0).sum(axis=-1)
    return logdet_hermitian_batch(total) - logdet_hermitian_batch(intf), free, leak
