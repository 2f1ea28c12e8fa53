"""Feedback scaling laws: bits needed to hold a target rate loss.

Setting the per-user rate-loss bound N log2(1 + (P/N) D(B)) equal to
log2 b and solving for B gives

    B ~= T/3 P_dB - T log2(N (b^(1/N) - 1)) + T log2(Gamma(1/T)/T) - log2 C_MN

with T = N (M - N). The b = 2^N case is the 3-dB law
B = T/3 P_dB - log2(N^T C_MN): one bps/Hz lost per user antenna, a fixed
3 dB power offset at every operating point. The zero-forcing counterpart
treats the system as M single-antenna users and scales as (M-1)/3 P_dB per
antenna.

All functions take and return real-valued bit counts; the CLI and
FeedbackPolicy.resolve_bits take the integer ceiling.
"""

import math
from dataclasses import dataclass

from .errors import Infeasible, ParameterError, _check_real, _check_shape
from .grassmann import GrassmannConstants
from .precoding import SystemConfig, analog_rate_loss_bound

__all__ = [
    "BitsResult",
    "bits_for_rate_loss",
    "bd_3db_bits",
    "zf_3db_bits",
    "zf_bits_for_rate_loss",
    "bd_zf_rate_gap",
    "c_prime",
    "c_double_prime",
    "analog_vs_quantized_bounds",
]


@dataclass(frozen=True)
class BitsResult:
    """Bit requirement from the closed-form law and from bound inversion."""

    approx: float
    exact: float


def c_prime(gc):
    """3-dB-law constant N^T * C_MN."""
    return float(gc.n) ** gc.t * gc.c


def c_double_prime(gc):
    """Analog-comparison constant Gamma(1/T) / (N^2 (M-N)) * C_MN^(1/T)."""
    t = gc.t
    return math.gamma(1.0 / t) / (gc.n * t) * gc.c ** (1.0 / t)


def bits_for_rate_loss(m, n, p_db, b):
    """Feedback bits keeping the per-user rate loss below log2(b) bps/Hz.

    Parameters
    ----------
    m, n : antenna counts, 1 <= N <= M/2.
    p_db : operating power in dB.
    b : rate-loss target, loss <= log2(b); must exceed 1.

    Returns
    -------
    BitsResult
        approx: the closed-form law above (3 dB per bit-triple slope).
        exact: the bit count at which the distortion bound's main term
        meets the target, i.e. approx with T log2 P in place of
        T/3 P_dB, floored at zero.

    Raises
    ------
    Infeasible
        If b is not a finite real above 1 (log2 b must be positive).
    """
    gc = GrassmannConstants(m, n)
    _check_real("p_db", p_db)
    _check_real("rate-loss target b", b, low=1, error=Infeasible)
    t = gc.t
    approx = (
        t / 3.0 * p_db
        - t * math.log2(n * (b ** (1.0 / n) - 1.0))
        + t * math.log2(math.gamma(1.0 / t) / t)
        - gc.log2_c
    )
    exact = max(0.0, approx + t * p_db * (math.log2(10.0) / 10.0 - 1.0 / 3.0))
    return BitsResult(approx=float(approx), exact=float(exact))


def bd_3db_bits(m, n, p_db):
    """Bits/user holding block diagonalization within 3 dB of perfect CSIT.

    T/3 P_dB - log2(N^T C_MN); that is N(M-N) bits per 3 dB, equivalently
    a per-user rate loss of at most N bps/Hz at every power.
    """
    gc = GrassmannConstants(m, n)
    _check_real("p_db", p_db)
    return gc.t / 3.0 * p_db - math.log2(c_prime(gc))


def zf_3db_bits(m, p_db):
    """Bits per single-antenna user holding zero forcing within 3 dB.

    (M-1)/3 P_dB, the single-antenna-user law; an N-antenna user quantizing
    each antenna separately spends N times this.
    """
    _check_shape(m, 1)
    _check_real("p_db", p_db)
    return (m - 1) / 3.0 * p_db


def zf_bits_for_rate_loss(m, n, p_db, b):
    """Zero-forcing bits per user at a per-user rate-loss target log2(b).

    The per-antenna law with the target split evenly over the N antennas:
    N (M-1)/3 P_dB - N (M-1) log2(b^(1/N) - 1). Reduces to N times
    :func:`zf_3db_bits` at b = 2^N. Used for matched-target comparisons
    against :func:`bits_for_rate_loss`.
    """
    _check_shape(m, n)
    _check_real("p_db", p_db)
    _check_real("rate-loss target b", b, low=1, error=Infeasible)
    return n * (m - 1) / 3.0 * p_db - n * (m - 1) * math.log2(b ** (1.0 / n) - 1.0)


def bd_zf_rate_gap(m, n, k=None):
    """High-power sum-rate advantage of BD over ZF with perfect CSIT.

    K log2(e) sum_{j=1}^{N} (N - j)/j bps/Hz, independent of power. k is
    redundant (it must equal M/N) and accepted only as a cross-check.
    """
    _check_shape(m, n, loaded=True)
    if k is not None and k != m // n:
        raise ParameterError(f"K must equal M/N = {m // n}, got {k}")
    k = m // n
    s = sum((n - j) / j for j in range(1, n + 1))
    return k * math.log2(math.e) * s


def analog_vs_quantized_bounds(m, n, beta, p):
    """Rate-loss bounds of quantized and analog feedback at equal resources.

    The quantized side spends B = beta N (M-N) log2(1 + P) bits (the bit
    budget matching beta M channel uses at the downlink rate), giving

        quant  = N log2(1 + P C'' / (1 + P)^beta)
        analog = N log2(1 + ((M-N)/M) P / (1 + beta P))

    Returns (quant, analog); the analog side is
    :func:`~grassfeed.precoding.analog_rate_loss_bound`, which checks the
    shape, beta and P.
    """
    analog = analog_rate_loss_bound(SystemConfig(m, n, p), beta)
    quant = n * math.log2(1.0 + p * c_double_prime(GrassmannConstants(m, n)) / (1.0 + p) ** beta)
    return quant, analog
