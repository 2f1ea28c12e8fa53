"""Grassmannian subspace quantization.

Distances between column spaces are measured by the squared chordal
distance d^2 = sum_j sin^2(theta_j), computed in trace form as
N - ||A^H B||_F^2 (the principal-angle route is kept only as a test
oracle). Random codebooks hold 2^B independent isotropic frames; a channel
is quantized to the entry of minimum d^2, lowest index on ties.

A scan of fresh codebooks, one per trial, never draws an entry as a
matrix. Only an entry's principal angles to the channel frame hq matter,
and they follow from two independent complex Wishart matrices: split an
entry G = hq B + hq_perp G_2; then d^2 = tr(A^-1 W) with A = S + W,
S = B^H B ~ CW_N(N, I) and W = G_2^H G_2 ~ CW_N(M - N, I). Each entry is
drawn as the Bartlett factors of S and W, with T_w's superdiagonal made
real by a phase gauge: 2N gammas (sums of exponentials at shape <= 3),
N - 1 exponentials and 2(N-1)^2 normals against 2MN normals for G, and
scored by one LDL^H pass over A on (E,) vectors over the block's entries.
Only each trial's winner becomes a frame, drawn from its exact
conditional law given its statistics. A one-entry codebook is its own
winner: the scan draws it as one
:func:`~grassfeed.ensembles.isotropic_frame` stack, with nothing to score.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ensembles import as_generator, gaussian_off, isotropic_frame
from .errors import (
    DimensionError,
    DomainError,
    MemoryGuard,
    ParameterError,
    RankDeficient,
    _as_array,
    _check_count,
    _check_real,
    _check_shape,
)
from .linalg import ORTHO_TOL, orthonormalize, sumsq

__all__ = [
    "CODEBOOK_ENTRY_CAP",
    "GrassmannConstants",
    "Codebook",
    "QuantizationResult",
    "chordal_distance_sq",
    "principal_angles",
    "random_codebook",
    "quantize",
    "distortion_bound",
    "distortion_main_term",
    "distortion_samples",
]

# complex elements (2^B entries times M w, w the frame width) a codebook may
# hold: 256 MiB of entries. A scan of one such codebook per trial holds
# half as many bytes of statistics (2 w^2 <= M w reals per entry) and peaks
# at about 336 MiB with its scoring workspace: 21 rows of 2^21 doubles at
# M=4, N=2, B=21 (traced at B=14 and scaled); the draws' spare row is freed
# before scoring
_CAP_BITS = 24
CODEBOOK_ENTRY_CAP = 2 ** _CAP_BITS
# complex codebook elements per scored block: a scan block holds the
# statistics of that many elements' worth of entries, at most 1 MiB of
# reals, and its scoring temporaries. Each block draws all its
# statistics before the next, so this size fixes how a multi-block scan
# consumes the random stream, as CHUNK_TRIALS does for the engine:
# changing it changes the results.
_SCAN_BLOCK_ELEMS = 2 ** 17


@dataclass(frozen=True)
class GrassmannConstants:
    """Exact constants of the Grassmannian G(M, N).

    T = N (M - N) is the real dimension of the complex manifold (the
    exponent of the metric-ball volume), and C_MN the ball-volume
    coefficient: the CDF of one random d^2 draw is C_MN * x^T for x <= 1.
    C_MN is computed in exact integer arithmetic before conversion.
    """

    m: int
    n: int

    def __post_init__(self):
        _check_shape(self.m, self.n)

    @property
    def t(self):
        return self.n * (self.m - self.n)

    @property
    def c_exact(self):
        return _ball_coefficient(self.m, self.n)[0]

    @property
    def c(self):
        return _ball_coefficient(self.m, self.n)[1]

    @property
    def log2_c(self):
        return _ball_coefficient(self.m, self.n)[2]


@functools.cache
def _ball_coefficient(m, n):
    """(C_MN as a Fraction, as a float, log2 C_MN) of G(m, n), from exact
    integers once per shape: the factorials take about 0.6 s at
    G(400, 200)."""
    num = 1
    den = math.factorial(n * (m - n))
    for i in range(1, n + 1):
        num *= math.factorial(m - i)
        den *= math.factorial(n - i)
    frac = Fraction(num, den)
    return frac, float(frac), math.log2(frac.numerator) - math.log2(frac.denominator)


def _check_frames(**frames):
    """The named frames as complex arrays, once each is a tall orthonormal
    (m, n) frame and all have the first one's shape."""
    out = []
    for name, a in frames.items():
        a = _as_array(name, a)
        if a.ndim != 2 or a.shape[0] < a.shape[1]:
            raise DimensionError(f"{name} must be a tall (m, n) frame, got {a.shape}")
        gram = a.conj().T @ a
        # a NaN norm fails the comparison, so non-finite frames are rejected too
        if not np.linalg.norm(gram - np.eye(a.shape[1])) <= ORTHO_TOL * a.shape[1]:
            raise ParameterError(f"{name} columns are not orthonormal within {ORTHO_TOL:g}")
        if out and a.shape != out[0].shape:
            raise DimensionError(f"frame shapes disagree: {out[0].shape} vs {a.shape}")
        out.append(a)
    return out


def chordal_distance_sq(a, b):
    """Squared chordal distance between the spans of two orthonormal frames.

    d^2(A, B) = N - ||A^H B||_F^2 = sum_j sin^2(theta_j). Invariant under
    right-unitary rotation of either frame; rounding can push the trace form
    epsilon negative, which is clamped to 0.
    """
    a, b = _check_frames(a=a, b=b)
    return float(max(_d2(a, b), 0.0))


def _d2(a, b):
    """N - ||a^H b||_F^2 of (..., m, n) frame stacks broadcast against
    each other, unclamped."""
    g = np.einsum("...mn,...mp->...np", a.conj(), b)
    return a.shape[-1] - sumsq(g.reshape(g.shape[:-2] + (-1,)))


def principal_angles(a, b):
    """Principal angles between two frame spans, ascending, in radians.

    arccos of the singular values of A^H B, clipped into [0, 1] before the
    arccos. This is the reference route; production code uses the trace
    form in :func:`chordal_distance_sq`.
    """
    a, b = _check_frames(a=a, b=b)
    s = np.linalg.svd(a.conj().T @ b, compute_uv=False)
    return np.arccos(np.clip(s, 0.0, 1.0))


@dataclass(frozen=True)
class Codebook:
    """2^B isotropic frames on G(M, N), index order significant.

    The shape and bits are checked before 2^B is formed: a shape off the
    Grassmannian or bits other than an integer >= 0 raise ParameterError,
    and 2^B M N elements above :data:`CODEBOOK_ENTRY_CAP` raise MemoryGuard.
    """

    m: int
    n: int
    bits: int
    entries: np.ndarray

    def __post_init__(self):
        _check_shape(self.m, self.n)
        size = _codebook_size(self.bits, self.m, self.n)
        e = _as_array("entries", self.entries)
        if e.shape != (size, self.m, self.n):
            raise DimensionError(
                f"entries shape {e.shape} does not match (2^{self.bits}, {self.m}, {self.n})"
            )
        object.__setattr__(self, "entries", e)

    def __len__(self):
        return self.entries.shape[0]


@dataclass(frozen=True)
class QuantizationResult:
    index: int
    d2: float
    entry: np.ndarray


def _codebook_size(bits, m, n):
    """2^bits, once bits is checked as an integer >= 0 and 2^bits (m, n)
    entries hold at most CODEBOOK_ENTRY_CAP complex elements."""
    _check_count("bits", bits)
    # the exponent is compared first, so a huge bits fails at once
    if bits > _CAP_BITS or 2 ** bits * m * n > CODEBOOK_ENTRY_CAP:
        raise MemoryGuard(
            f"2^{bits} entries of ({m}, {n}) exceed the cap of {CODEBOOK_ENTRY_CAP} complex elements"
        )
    return 2 ** bits


def random_codebook(rng, m, n, bits):
    """Fresh random quantization codebook of 2^bits isotropic frames."""
    gc = GrassmannConstants(m, n)
    size = _codebook_size(bits, gc.m, gc.n)
    return Codebook(gc.m, gc.n, bits, isotropic_frame(rng, gc.m, gc.n, batch=(size,)))


def quantize(h, codebook):
    """Quantize a channel to the chordal-nearest codebook entry.

    The channel is orthonormalized first, so quantization depends only on
    its column space; any right-multiplied full-rank factor gives the same
    index. Ties break to the lowest index.
    """
    h = _as_array("channel", h)
    if h.shape != (codebook.m, codebook.n):
        raise DimensionError(f"channel shape {h.shape} does not match codebook ({codebook.m}, {codebook.n})")
    idx, d2, entry = _scan_np(orthonormalize(h[np.newaxis]), codebook.entries[np.newaxis])
    return QuantizationResult(int(idx[0]), float(max(d2[0], 0.0)), entry[0])


def distortion_main_term(gc, bits):
    """Leading term of the expected-distortion bound: the metric-ball part.

    (Gamma(1/T) / T) * C_MN^(-1/T) * 2^(-B/T), for any finite real B >= 0.
    C_MN^(-1/T) is formed from log2 C_MN, which stays finite where C_MN
    underflows a double.

    It is an upper bound on the exact mean of the metric-ball law,
    :func:`_mean_min_d2`, which it exceeds by the factor
    Gamma(2^B + 1 + 1/T) / (2^(B/T) Gamma(2^B + 1)) >= 1 (Gautschi's
    inequality); the factor tends to 1 as B grows.
    """
    _check_real("bits", bits, low=0, closed=True)
    t = gc.t
    return (math.gamma(1.0 / t) / t) * 2.0 ** (-gc.log2_c / t) * 2.0 ** (-bits / t)


def _stirling_tail(z):
    """ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi)/2), from five terms of
    Stirling's series; the first omitted term is below 1e-16 for z >= 16."""
    w = 1.0 / (z * z)
    return (1.0 / 12 - w * (1.0 / 360 - w * (1.0 / 1260 - w * (1.0 / 1680 - w / 1188)))) / z


def _mean_min_d2(gc, bits):
    """E[min d^2] over 2^bits independent entries whose d^2 has CDF
    C_MN x^T. Internal.

    With n = 2^bits and a = 1/T it is the Beta integral
    C_MN^(-a) Gamma(1 + a) Gamma(n + 1) / Gamma(n + 1 + a):
    :func:`distortion_main_term` times rho = n^a Gamma(n + 1) / Gamma(n + 1 + a),
    formed in O(1) at any B. ln rho comes from lgamma while n < 16 and
    from Stirling's series at x = n + 1 above, as
    a - (x - 1/2) log1p(a/x) - a log1p((1 + a)/n) - (tail(x + a) - tail(x)),
    whose terms are all of order a, so only its absolute error, a few
    ulps, reaches rho. Past n = 2^64, ln rho is below 2^-64 and is taken as 0.

    For G(M, 1) the law holds on all of [0, 1], so this is the exact mean
    of the scan at every B. For wider frames it holds for d^2 <= 1 only,
    and the mean is exact to within N e^-40 where the emulation guard
    2^B C_MN >= 40 holds.
    """
    a = 1.0 / gc.t
    if bits < 4:
        n = 2 ** bits
        log_rho = a * math.log(n) + math.lgamma(n + 1) - math.lgamma(n + 1 + a)
    elif bits <= 64:
        n = 2.0 ** bits
        x = n + 1.0
        log_rho = (a - (x - 0.5) * math.log1p(a / x) - a * math.log1p((1.0 + a) / n)
                   - (_stirling_tail(x + a) - _stirling_tail(x)))
    else:
        log_rho = 0.0
    return distortion_main_term(gc, bits) * math.exp(log_rho)


def distortion_bound(gc, bits, a=0.5):
    """Upper bound on E[min d^2] over a random 2^bits-entry codebook.

    (Gamma(1/T)/T) C_MN^{-1/T} 2^{-B/T} + N exp(-(2^B C_MN)^{1-a})

    Parameters
    ----------
    gc : GrassmannConstants
    bits : codebook size exponent B >= 0, any finite real.
    a : splitting exponent in (0, 1); 0.5 balances the two terms.

    Raises
    ------
    DomainError
        If 2^B * C_MN < 1, where the ball-volume expansion is invalid.
    ParameterError
        If a is outside (0, 1), or bits is negative or not finite.
    """
    _check_real("a", a, low=0, high=1)
    main = distortion_main_term(gc, bits)
    # 2^B C_MN in the log domain, where neither factor over- or underflows
    log2_product = bits + gc.log2_c
    if log2_product < 0:
        raise DomainError(f"2^B * C_MN = 2^{log2_product:g} < 1 is outside the bound's domain")
    # past (2^B C_MN)^(1-a) = 2^10, exp(-1024) is already below the smallest double
    return main + gc.n * math.exp(-(2.0 ** min((1.0 - a) * log2_product, 10.0)))


def _scan_np(hq, w):
    """(idx, d2, winner) of each (C, m, n) codebook w[t] against its frame hq[t]."""
    d2 = _d2(hq[:, np.newaxis], w)
    idx = np.argmin(d2, axis=1)
    rows = np.arange(len(w))
    return idx.astype(np.int64), d2[rows, idx], w[rows, idx]


def _scan_block(size, m, n):
    """Trials per scan block: _SCAN_BLOCK_ELEMS complex codebook elements'
    worth of 2^B-entry (M, N) codebooks, at least one."""
    return max(1, _SCAN_BLOCK_ELEMS // (size * m * n))


def _draw_stats(gen, m, n, work):
    """Draw the Bartlett factors T_s and T_w of len(work) / (2 n^2) entries
    into the float64 buffer ``work``, in stream order: the squared diagonals
    of T_s (Gamma(n - i), i = 0..n-1), then T_w's (Gamma(m - n - i)), each
    Gamma(k <= 3) the sum of k standard_exponential fills (the later ones
    through one spare row), else standard_gamma(k); T_w's superdiagonal
    moduli, sqrt(standard_exponential); one standard_normal fill of T_s's
    upper entries, real rows then imaginary rows; T_w's other upper entries
    likewise, one fill per column from the third; normals times sqrt(1/2).
    T_w's superdiagonal is real by a gauge: (D^H T_s D, D^H T_w D), D
    diagonal unitary, has the same d^2 and, as U_s D^H and U_w D^H keep their
    Haar laws, the same winner span. So D may take the phases of that
    superdiagonal, which leaves every other upper entry CN(0, 1).

    Returns views of ``work``: gam, the (2, n, E) squared diagonals, and
    off, the (2, n(n-1)/2, 2, E) upper entries as real and imaginary rows.
    """
    e = work.size // (2 * n * n)
    gam = work[: 2 * n * e].reshape(2, n, e)
    off = work[2 * n * e:].reshape(2, n * (n - 1) // 2, 2, e)
    spare = np.empty(e)
    for row, k in zip(gam.reshape(2 * n, e), [dof - i for dof in (n, m - n) for i in range(n)]):
        if k > 3:
            gen.standard_gamma(k, out=row)
            continue
        gen.standard_exponential(out=row)
        for _ in range(k - 1):
            row += gen.standard_exponential(out=spare)
    for sup in (off[1, j * (j + 1) // 2 - 1] for j in range(1, n)):
        np.sqrt(gen.standard_exponential(out=sup[0]), out=sup[0])
        sup[1] = 0.0
    for z in [off[0]] + [off[1, j * (j - 1) // 2: j * (j + 1) // 2 - 1] for j in range(2, n)]:
        gen.standard_normal(out=z)
        z *= np.sqrt(0.5)
    return gam, off


def _abs2(z, out, tmp):
    """|z|^2 of (2, E) real and imaginary rows into the row out; tmp is a scratch row."""
    return np.add(np.multiply(z[0], z[0], out=out), np.multiply(z[1], z[1], out=tmp), out=out)


def _mul(x, y, out, tmp, conj=False):
    """x y, or conj(x) y, of (2, E) real and imaginary rows into out; tmp is a scratch row."""
    re, im = (np.add, np.subtract) if conj else (np.subtract, np.add)
    re(np.multiply(x[0], y[0], out=out[0]), np.multiply(x[1], y[1], out=tmp), out=out[0])
    im(np.multiply(x[0], y[1], out=out[1]), np.multiply(x[1], y[0], out=tmp), out=out[1])
    return out


def _stat_d2(gam, off):
    """d^2 = tr(A^-1 W) = ||T_w R^-1||_F^2 of every entry, from its Bartlett
    factors (see :func:`_draw_stats`), with A = S + W = R^H R.

    A runs through the square-root-free Cholesky A = U^H D U (unit upper U,
    D the pivots) and Y = T_w U^-1 column by column, so d^2 is
    sum_j ||y_j||^2 / d_j, a sum of positive terms. Complex values are
    (2, E) real and imaginary rows, so every step is a real vector
    operation over the entries, written into the rows of one workspace.
    Raises RankDeficient if a pivot is zero or not finite.
    """
    n, e = gam.shape[1:]
    t = np.sqrt(gam[:, : n - 1])
    # rows: the n pivots; past n = 1, a product pair, a scratch row and the
    # pairs of U and Y; past n = 2, the pair acc
    ws = np.empty((n + (n > 1) * (3 + 2 * n * (n - 1)) + 2 * (n > 2), e))
    d, mul, tmp = ws[:n], ws[n: n + 2], ws[n + 2] if n > 1 else None
    free, acc = iter(ws[n + 3:].reshape(-1, 2, e)), ws[-2:] if n > 2 else None
    score = np.empty(e)

    def upper(f, k, j):
        return off[f, j * (j - 1) // 2 + k]

    u, y = {}, []
    for j in range(n):
        pivot = np.add(gam[0, j], gam[1, j], out=d[j])
        # rows 0..j-1 of y_j, copied into free pairs; row j is t_w[j], whose square is gam[1, j]
        yj = [np.positive(upper(1, k, j), out=next(free)) for k in range(j)]
        for i in range(j):
            a = u[i, j] = np.multiply(upper(0, i, j), t[0, i], out=next(free))
            a += np.multiply(upper(1, i, j), t[1, i], out=mul)
            for k in range(i):
                _mul(upper(0, k, i), upper(0, k, j), acc, tmp, True)
                a += np.add(acc, _mul(upper(1, k, i), upper(1, k, j), mul, tmp, True), out=acc)
                a -= np.multiply(_mul(u[k, i], u[k, j], mul, tmp, True), d[k], out=mul)
            a /= d[i]
            pivot += _abs2(upper(0, i, j), mul[0], tmp)
            pivot += _abs2(upper(1, i, j), mul[0], tmp)
            pivot -= np.multiply(d[i], _abs2(a, mul[0], tmp), out=mul[0])
            yj[i] -= np.multiply(a, t[1, i], out=mul)
            for r in range(i):
                yj[r] -= _mul(y[i][r], a, mul, tmp)
        # min and max propagate NaN, which fails both comparisons
        if not (pivot.min() > 0 and pivot.max() < np.inf):
            raise RankDeficient("a codebook entry's Gram matrix has a zero or non-finite pivot")
        y.append(yj)
        if j == 0:
            np.divide(gam[1, 0], pivot, out=score)
            continue
        _abs2(yj[0], mul[0], tmp)
        for v in yj[1:]:
            mul[0] += _abs2(v, mul[1], tmp)
        score += np.divide(np.add(gam[1, j], mul[0], out=mul[1]), pivot, out=mul[1])
    return score


def _scan_stats(gen, m, n, bits, count, winners=False):
    """Scan count trials, each against its own fresh 2^bits-entry codebook,
    from the entries' statistics alone, one :func:`_scan_block` block of
    trials at a time. Returns the (count,) minimum d^2 and, with
    ``winners``, the (2, count, n, n) Bartlett factors T_s and T_w of each
    trial's winner (else None)."""
    size = _codebook_size(bits, m, n)
    block = _scan_block(size, m, n)
    work = np.empty(min(block, count) * size * 2 * n * n)
    d2 = np.empty(count)
    fac = np.zeros((2, count, n, n), dtype=np.complex128) if winners else None
    for lo in range(0, count, block):
        hi = min(lo + block, count)
        gam, off = _draw_stats(gen, m, n, work[: (hi - lo) * size * 2 * n * n])
        scores = _stat_d2(gam, off).reshape(hi - lo, size)
        idx = np.argmin(scores, axis=1)
        d2[lo:hi] = scores[np.arange(hi - lo), idx]
        if winners:
            won = np.arange(hi - lo) * size + idx
            for j in range(n):
                fac[:, lo:hi, j, j] = np.sqrt(gam[:, j, won])
                for k in range(j):
                    z = off[:, j * (j - 1) // 2 + k][..., won]
                    fac[:, lo:hi, k, j] = z[:, 0] + 1j * z[:, 1]
    return d2, fac


def _frames_from_stats(gen, hq, ts, tw):
    """Frames Q whose statistics against hq are (ts, tw), drawn from their
    exact law: Q = orth(hq U_s T_s + U_w T_w), U_s an N x N Haar unitary
    and U_w = orth((I - hq hq^H) Z) for an M x N Gaussian Z
    (:func:`~grassfeed.ensembles.gaussian_off`), drawn in that order."""
    t, _, n = hq.shape
    us = isotropic_frame(gen, n, n, batch=(t,))
    return orthonormalize(hq @ (us @ ts) + orthonormalize(gaussian_off(gen, hq, n)) @ tw)


def scan_fresh_codebooks(gen, hq, bits):
    """Quantize each frame of a (T, M, N) orthonormal stack against its own
    fresh random 2^bits-entry codebook.

    Each entry is drawn as the Bartlett factors of its two Wishart
    statistics (see the module docstring) and scored from them
    (:func:`_scan_stats`), in blocks of :func:`_scan_block` trials, so the
    scan holds one block's statistics and scoring temporaries whatever T
    is. After the last block the T winners alone are built from their
    exact conditional law (:func:`_frames_from_stats`), drawn from ``gen``.
    A one-entry codebook is its own winner: the scan draws all T as one
    ``isotropic_frame`` stack, with nothing to score.
    Returns the (T, M, N) winners and their (T,) d^2, the order of
    :func:`~grassfeed.quant_emulator.emulate_batch`.
    """
    t, m, n = hq.shape
    if _codebook_size(bits, m, n) > 1:
        d2, fac = _scan_stats(gen, m, n, bits, t, winners=True)
        return _frames_from_stats(gen, hq, fac[0], fac[1]), d2
    won = isotropic_frame(gen, m, n, batch=(t,))
    return won, _d2(hq, won)


def distortion_samples(rng, m, n, bits, trials):
    """Per-trial min d^2 values with a fresh random codebook every trial.

    The law of d^2 does not depend on the channel, so no channel is drawn:
    each trial's minimum comes from its entries' statistics alone, as
    :func:`scan_fresh_codebooks` scores them (one-entry codebooks too).
    Memory stays that of one scan block; results come in trial order and
    are deterministic for a fixed (rng, trials) pair.
    """
    _check_shape(m, n)
    _check_count("trials", trials, 1)
    return _scan_stats(as_generator(rng), m, n, bits, trials)[0]
