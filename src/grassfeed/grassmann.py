"""Grassmannian subspace quantization.

Distances between column spaces are measured by the squared chordal
distance d^2 = sum_j sin^2(theta_j), computed in trace form as
N - ||A^H B||_F^2 (the principal-angle route is kept only as a test
oracle). Random codebooks hold 2^B independent isotropic frames; a channel
is quantized to the entry of minimum d^2, lowest index on ties.

A scan of fresh codebooks, one per trial, never draws an entry as a
matrix. Only an entry's principal angles to the channel frame hq matter,
and for beta = 2 the Jacobi matrix model of Edelman & Sutton ("The
beta-Jacobi matrix model, the CS decomposition, and generalized singular
value problems", Found. Comput. Math. 2008), with a = 0 and b = M - 2N,
gives them exactly from 2N - 1 independent Beta variates:
c_i^2 ~ Beta(i, M - 2N + i) for i = 1..N and
c'_i^2 ~ Beta(i, M - 2N + 1 + i) for i = 1..N-1. The two laws with p = 1
(the only one at N = 1) take one uniform V on (0, 1] each, with
s^2 = V^(1/q) and c^2 = -expm1(log(V) / q); the others are
G_p / (G_p + G_q) from two Gamma variates, each -log of a product of
that many uniforms at shape <= 3 (Devroye, Non-Uniform Random Variate
Generation, 1986). An entry's d^2 is ||B21||_F^2 of the model's
bidiagonal blocks, s_N^2 + sum_{i<N} (s_i^2 s'_i^2 + c_{i+1}^2 c'_i^2), a
sum of positive terms over (E,) rows of the block's entries. At M=4, N=2
an entry costs 6 uniforms, 4 logs and 3 exponentials; at N = 1 its d^2
is s_1^2, one uniform, a log and an exp. Only each trial's winner becomes
a frame, orth(hq U_s B11 + U_w B21), U_s and U_w drawn after the
scan. A one-entry codebook is its own winner: the scan draws it as one
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
    _check_type,
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
# two rows of 2^B doubles per Beta law, 2(2w - 1), and past w = 1 a spare
# row and a score row, whatever its number of blocks: it peaks at 2 rows
# of 2^23 doubles, 128 MiB, at M=2, N=1, B=23 and at 8 rows of 2^21,
# 128 MiB, at M=4, N=2, B=21 (traced with tracemalloc at B=16 and 14, one
# and two blocks, and scaled)
_CAP_BITS = 24
CODEBOOK_ENTRY_CAP = 2 ** _CAP_BITS
# complex codebook elements per scored block: a scan block holds the
# Beta-law rows of that many elements' worth of entries, at most 1 MiB of
# reals, and its scoring temporaries. Each block draws all its rows
# before the next, so this size fixes how a multi-block scan consumes the
# random stream, as CHUNK_TRIALS does for the engine: changing it changes
# the results.
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
    _check_type("codebook", codebook, Codebook)
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
    _check_type("gc", gc, GrassmannConstants)
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


def _beta_shapes(m, n):
    """(p, q) of the 2n - 1 Beta laws of the beta = 2 Jacobi model with
    a = 0, b = m - 2n, in draw order: c_i^2 ~ Beta(i, m - 2n + i) for
    i = 1..n, then c'_i^2 ~ Beta(i, m - 2n + 1 + i) for i = 1..n-1."""
    b = m - 2 * n
    return [(i, b + i) for i in range(1, n + 1)] + [(i, b + 1 + i) for i in range(1, n)]


def _uniform(gen, out):
    """V = 1 - U into ``out`` from one uniform fill U on [0, 1): on (0, 1],
    exactly, for numpy's 53-bit doubles."""
    gen.random(out=out)
    return np.subtract(1.0, out, out=out)


def _check_unit(v):
    """``v``, once each entry lies in (0, 1]; else RankDeficient."""
    # min and max propagate NaN, which fails both comparisons
    if not (v.min() > 0 and v.max() <= 1):
        raise RankDeficient("a codebook entry's Beta draw has a product of uniforms outside (0, 1]")
    return v


def _gamma(gen, k, out, spare):
    """Gamma(k) variates into ``out``: -log of the product of k uniforms
    V on (0, 1] (:func:`_uniform`, the later ones through the row
    ``spare``) for k <= 3, else standard_gamma(k). Raises RankDeficient
    where the product is not in (0, 1], as a NaN or inf fill makes it."""
    if k > 3:
        return gen.standard_gamma(k, out=out)
    _uniform(gen, out)
    for _ in range(k - 1):
        out *= _uniform(gen, spare)
    return np.negative(np.log(_check_unit(out), out=out), out=out)


def _angle_d2(rows, out, tmp):
    """d^2 = ||B21||_F^2 = s_N^2 + sum_{i<N} (s_i^2 s'_i^2 + c_{i+1}^2 c'_i^2)
    of (2, 2N - 1, E) (cos^2, sin^2) rows in :func:`_beta_shapes` order,
    a sum of positive terms, into the (E,) row ``out`` with ``tmp`` as
    scratch. It reads every row but c_1^2; at N = 1 it is the row s_1^2
    itself, and neither ``out`` nor ``tmp`` is written."""
    c2, s2 = rows
    n = (len(s2) + 1) // 2
    if n == 1:
        return s2[0]
    np.copyto(out, s2[n - 1])
    for i in range(n - 1):
        out += np.multiply(s2[i], s2[n + i], out=tmp)
        out += np.multiply(c2[i + 1], c2[n + i], out=tmp)
    return out


def _jacobi_blocks(rows):
    """The (2, T, N, N) real upper bidiagonal blocks B11 and B21 of the
    beta = 2 Jacobi model from (2, 2N - 1, T) (cos^2, sin^2) rows in
    :func:`_beta_shapes` order. B11 has diagonal (c_N, c_{N-1} s'_{N-1},
    ..., c_1 s'_1) and superdiagonal (-s_N c'_{N-1}, ..., -s_2 c'_1); B21
    has diagonal (s_N, s_{N-1} s'_{N-1}, ..., s_1 s'_1) and superdiagonal
    (c_N c'_{N-1}, ..., c_2 c'_1). The columns of [B11; B21] are
    orthonormal, and the singular values of B11 are the cosines of the
    principal angles (Edelman & Sutton 2008)."""
    n = (rows.shape[1] + 1) // 2
    # c_N..c_1, s_N..s_1, then c'_{N-1}..c'_1, s'_{N-1}..s'_1
    (c, s), (cp, sp) = np.sqrt(rows[:, n - 1::-1]), np.sqrt(rows[:, :n - 1:-1])
    diag = np.concatenate([np.ones((1, rows.shape[-1])), sp])
    blocks = np.zeros((2, rows.shape[-1], n, n))
    i = np.arange(n)
    blocks[:, :, i, i] = np.moveaxis(np.stack([c, s]) * diag, 1, -1)
    blocks[:, :, i[:-1], i[1:]] = np.moveaxis(np.stack([-s[:-1], c[:-1]]) * cp, 1, -1)
    return blocks


def _scan_stats(gen, m, n, bits, count, winners=False):
    """Scan count trials, each against its own fresh 2^bits-entry codebook,
    from the entries' principal angles alone, one :func:`_scan_block` block
    of trials at a time. For each Beta law in :func:`_beta_shapes` order a
    block draws over its entries:
    - at p = 1, one uniform row V (:func:`_uniform`) and sets
      l = log(V) / q, sin^2 = exp(l), whose law is Beta(q, 1), and
      cos^2 = -expm1(l), so no 1 - sin^2 cancels. The first law keeps l
      in place of cos^2, which the score does not read, and only its
      winners get cos^2 = -expm1(l);
    - else a Gamma(p) row G_p and then a Gamma(q) row G_q (:func:`_gamma`)
      and sets sin^2 = G_q / (G_p + G_q) and cos^2 = G_p / (G_p + G_q).
    Each entry is scored by :func:`_angle_d2`. Raises RankDeficient where
    a uniform lies outside (0, 1] or a G_p + G_q is zero or not finite,
    and MemoryGuard where numpy refuses the count-long results.
    Returns the (count,) minimum d^2 and, with ``winners``, the
    (2, 2n - 1, count) (cos^2, sin^2) rows of each trial's winner (else
    None)."""
    size = _codebook_size(bits, m, n)
    block = _scan_block(size, m, n)
    shapes = _beta_shapes(m, n)
    e = min(block, count) * size
    work = np.empty((2, len(shapes), e))
    # past N = 1, Gamma rows take a spare row and the score its own row;
    # at N = 1 the score is the sin^2 row and both are empty
    spare, score = np.empty((2, e if n > 1 else 0))
    try:
        d2 = np.empty(count)
        rows = np.empty((2, len(shapes), count)) if winners else None
    except (MemoryError, ValueError) as exc:
        raise MemoryGuard(f"cannot allocate the results of {count} scans: {exc}") from exc
    for lo in range(0, count, block):
        hi = min(lo + block, count)
        eb = (hi - lo) * size
        g = work[..., :eb]
        for j, (p, q) in enumerate(shapes):
            c2, s2 = g[:, j]
            if p == 1:
                ell = np.log(_check_unit(_uniform(gen, c2)), out=c2)
                ell /= q
                np.exp(ell, out=s2)
                if j:
                    np.negative(np.expm1(ell, out=c2), out=c2)
                continue
            _gamma(gen, p, c2, spare[:eb])
            _gamma(gen, q, s2, spare[:eb])
            tot = np.add(c2, s2, out=spare[:eb])
            # min and max propagate NaN, which fails both comparisons
            if not (tot.min() > 0 and tot.max() < np.inf):
                raise RankDeficient("a codebook entry's Beta draw has a zero or non-finite Gamma sum")
            s2 /= tot
            c2 /= tot
        scores = _angle_d2(g, score[:eb], spare[:eb]).reshape(hi - lo, size)
        idx = np.argmin(scores, axis=1)
        d2[lo:hi] = scores[np.arange(hi - lo), idx]
        if winners:
            won = np.arange(hi - lo) * size + idx
            rows[:, :, lo:hi] = g[:, :, won]
            c1 = rows[0, 0, lo:hi]
            np.negative(np.expm1(c1, out=c1), out=c1)
    return d2, rows


def _frames_from_stats(gen, hq, rows):
    """Frames Q whose principal angles to hq are those of the (cos^2, sin^2)
    ``rows``, drawn from their exact law: Q = orth(hq U_s B11 + U_w B21)
    with B11, B21 from :func:`_jacobi_blocks`, U_s an N x N Haar unitary
    and U_w = orth((I - hq hq^H) Z) for an M x N Gaussian Z
    (:func:`~grassfeed.ensembles.gaussian_off`), drawn in that order."""
    t, _, n = hq.shape
    us = isotropic_frame(gen, n, n, batch=(t,))
    b11, b21 = _jacobi_blocks(rows)
    return orthonormalize(hq @ (us @ b11) + orthonormalize(gaussian_off(gen, hq, n)) @ b21)


def scan_fresh_codebooks(gen, hq, bits):
    """Quantize each frame of a (T, M, N) orthonormal stack against its own
    fresh random 2^bits-entry codebook.

    Each entry is drawn as the 2N - 1 Beta variates of the beta = 2 Jacobi
    model of its principal angles to the channel (see the module
    docstring) and scored from them (:func:`_scan_stats`), in blocks of
    :func:`_scan_block` trials, so the scan holds one block's law rows and
    scoring temporaries whatever T is. After the last block the T winners
    alone are built from their (cos^2, sin^2) rows
    (:func:`_frames_from_stats`), drawn from ``gen``. A one-entry codebook
    is its own winner: the scan draws all T as one ``isotropic_frame``
    stack, with nothing to score.
    Returns the (T, M, N) winners and their (T,) d^2, the order of
    :func:`~grassfeed.quant_emulator.emulate_batch`.
    """
    t, m, n = hq.shape
    if _codebook_size(bits, m, n) > 1:
        d2, rows = _scan_stats(gen, m, n, bits, t, winners=True)
        return _frames_from_stats(gen, hq, rows), d2
    won = isotropic_frame(gen, m, n, batch=(t,))
    return won, _d2(hq, won)


def distortion_samples(rng, m, n, bits, trials):
    """Per-trial min d^2 values with a fresh random codebook every trial.

    The law of d^2 does not depend on the channel, so no channel is drawn:
    each trial's minimum comes from its entries' Jacobi-model angles alone,
    as :func:`scan_fresh_codebooks` scores them (one-entry codebooks too).
    Memory stays that of one scan block; results come in trial order and
    are deterministic for a fixed (rng, trials) pair. A trial count whose
    results numpy refuses raises MemoryGuard.
    """
    _check_shape(m, n)
    _check_count("trials", trials, 1)
    return _scan_stats(as_generator(rng), m, n, bits, trials)[0]
