"""Grassmannian subspace quantization.

Distances between column spaces are measured by the squared chordal
distance d^2 = sum_j sin^2(theta_j), computed in trace form as
N - ||A^H B||_F^2 (the principal-angle route is kept only as a test
oracle). Random codebooks hold 2^B independent isotropic frames; a channel
is quantized to the entry of minimum d^2, lowest index on ties.

A scan of fresh codebooks, one per trial, draws and scores them in
fixed-size blocks of trials. Each block's codebooks are drawn as one
Gaussian draw would draw them, into planes: a (T, 2, M, N, C) float64
array holding the real and then the imaginary parts of every entry, with
the entry index innermost. One workspace holds the planes and the draw
buffer for every block of a scan.

The scan (:func:`quantize_planes`) runs no QR per codebook entry. It
scores every entry from its Gram matrix A = G^H G and B = hq^H G, takes
the best score per trial and orthonormalizes only the T winners, whose
d^2 and frame are then bit-identical to orthonormalizing every entry. B of
a trial's C entries is one real matrix product, and A and the LDL^H
factorization run on real and imaginary (T, C) arrays, so every step reads
contiguous vectors over the entries. A block with an entry near the rank
floor, where the Gram is too coarse, takes the exact path instead, and so
does every trial whose two best scores nearly tie; both rebuild the
complex entries from the planes, which is exact. A one-entry codebook is
its own winner: the scan draws it as one complex Gaussian and
orthonormalizes it, with no planes and nothing to score.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ensembles import as_generator, gaussian_matrix
from .errors import (
    DimensionError,
    DomainError,
    MemoryGuard,
    ParameterError,
    _check_count,
    _check_real,
    _check_shape,
)
from .linalg import ORTHO_TOL, orthonormalize, thin_qr_batch

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
# hold: 256 MiB of entries, and about 400 MB of scan workspace (three float64
# words per element) when one trial's codebook fills a scan block
_CAP_BITS = 24
CODEBOOK_ENTRY_CAP = 2 ** _CAP_BITS
# complex codebook elements per scored block: a scan's workspace is the
# block's real and imaginary planes (2 MiB) and its draw buffer (1 MiB),
# which the scorer reuses for B = hq^H G. Each block draws all its real
# parts, then all its imaginary parts, so this size fixes how a
# multi-block scan consumes the random stream, as CHUNK_TRIALS does for
# the engine: changing it changes the results.
_SCAN_BLOCK_ELEMS = 2 ** 17
# The Gram squares the condition number, so it ranks entries only well away
# from the rank floor: a pivot r_jj^2 at or below _PIVOT_MARGIN ||G||_F^2
# (score error about 5e-9 there), or ||G||_F^2 outside _TRACE_RANGE, sends
# the block down the exact path, which checks the floor itself. Trials whose
# two best scores are within _TIE_GAP are rescanned exactly.
_PIVOT_MARGIN = 1e-8
_TRACE_RANGE = (1e-300, 1e250)
_TIE_GAP = 1e-6


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
        num = 1
        den = math.factorial(self.t)
        for i in range(1, self.n + 1):
            num *= math.factorial(self.m - i)
            den *= math.factorial(self.n - i)
        return Fraction(num, den)

    @property
    def c(self):
        return float(self.c_exact)

    @property
    def log2_c(self):
        frac = self.c_exact
        return math.log2(frac.numerator) - math.log2(frac.denominator)


def _check_frames(**frames):
    """The named frames as complex arrays, once each is a tall orthonormal
    (m, n) frame and all have the first one's shape."""
    out = []
    for name, a in frames.items():
        a = np.asarray(a, dtype=np.complex128)
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
    n = a.shape[1]
    d2 = n - np.sum(np.abs(a.conj().T @ b) ** 2)
    return float(max(d2, 0.0))


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
        e = np.asarray(self.entries, dtype=np.complex128)
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
    gen = as_generator(rng)
    g = gaussian_matrix(gen, gc.m, gc.n, batch=(size,))
    return Codebook(gc.m, gc.n, bits, orthonormalize(g))


def quantize(h, codebook):
    """Quantize a channel to the chordal-nearest codebook entry.

    The channel is orthonormalized first, so quantization depends only on
    its column space; any right-multiplied full-rank factor gives the same
    index. Ties break to the lowest index.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.shape != (codebook.m, codebook.n):
        raise DimensionError(f"channel shape {h.shape} does not match codebook ({codebook.m}, {codebook.n})")
    hq = orthonormalize(h[np.newaxis])[0]
    idx, d2 = scan_frames(hq, codebook.entries)
    return QuantizationResult(int(idx), float(max(d2, 0.0)), codebook.entries[idx])


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
    n = hq.shape[-1]
    g = np.einsum("tmn,tcmp->tcnp", hq.conj(), w)
    d2 = n - np.sum(np.abs(g) ** 2, axis=(-2, -1))
    idx = np.argmin(d2, axis=1)
    d2min = np.take_along_axis(d2, idx[:, np.newaxis], axis=1)[:, 0]
    qwin = np.take_along_axis(w, idx[:, np.newaxis, np.newaxis, np.newaxis], axis=1)[:, 0]
    return idx.astype(np.int64), d2min, qwin


def scan_frames(hq, frames):
    """(index, d^2) of the chordal-nearest frame in a (C, m, n) stack."""
    hq = np.ascontiguousarray(hq, dtype=np.complex128)
    frames = np.ascontiguousarray(frames, dtype=np.complex128)
    idx, d2, _ = _scan_np(hq[np.newaxis], frames[np.newaxis])
    return int(idx[0]), float(d2[0])


def _entries(planes):
    """The (T, C, m, n) complex entries held by (T, 2, m, n, C) planes."""
    t, _, m, n, c = planes.shape
    z = np.empty((t, c, m, n), dtype=np.complex128)
    z.real = planes[:, 0].transpose(0, 3, 1, 2)
    z.imag = planes[:, 1].transpose(0, 3, 1, 2)
    return z


def _dot(x, y):
    """Sum over the rows of x * y, per trial and entry, for (T, k, C) x and y."""
    return np.einsum("tkc,tkc->tc", x, y)


def _plane_scores(hq, planes, scratch):
    """||hq^H Q||_F^2 of every entry, Q = orth(G), without a QR.

    With A = G^H G = R^H R and B = hq^H G the score is ||B R^-1||_F^2.
    scratch is a float64 array of at least T 2n n C elements, overwritten
    with B. None when some entry's trace or pivot r_jj^2 leaves the range
    where the Gram is accurate enough to rank entries.
    """
    t, _, m, n, c = planes.shape
    re, im = planes[:, 0], planes[:, 1]
    # column j of every entry, real parts over imaginary parts: (T, 2m, C)
    cols = [planes[:, :, :, j].reshape(t, 2 * m, c) for j in range(n)]
    with np.errstate(over="ignore"):
        diag = [_dot(col, col) for col in cols]
        trace = np.sum(diag, axis=0)
    # min and max propagate NaN, which fails both comparisons
    if not (_TRACE_RANGE[0] <= trace.min() and trace.max() <= _TRACE_RANGE[1]):
        return None
    floor = _PIVOT_MARGIN * trace
    # [Re B; Im B] of a trial's entries is one product of [Re hq^T, Im hq^T;
    # -Im hq^T, Re hq^T] with its planes, read as (2m, n C)
    hqt = hq.transpose(0, 2, 1)
    kern = np.empty((t, 2 * n, 2 * m))
    kern[:, :n, :m] = kern[:, n:, m:] = hqt.real
    kern[:, :n, m:] = hqt.imag
    np.negative(hqt.imag, out=kern[:, n:, :m])
    b = scratch[: t * 2 * n * n * c].reshape(t, 2 * n, n * c)
    np.matmul(kern, planes.reshape(t, 2 * m, n * c), out=b)
    b = b.reshape(t, 2, n, n, c)
    # square-root-free Cholesky A = U^H D U (unit upper U, D the pivots
    # r_jj^2) and Y = B U^-1, column by column: ||B R^-1||^2 = sum ||y_j||^2 / d_j.
    # Each y_j is (T, 2, n, C), real parts over imaginary parts.
    ur, ui = {}, {}
    d, y = [], []
    for j in range(n):
        pivot, yj = diag[j], b[:, :, :, j]
        for i in range(j):
            sr = _dot(cols[i], cols[j])
            si = _dot(re[:, :, i], im[:, :, j]) - _dot(im[:, :, i], re[:, :, j])
            for k in range(i):
                # conj(u_ki) d_k u_kj
                sr -= d[k] * (ur[k, i] * ur[k, j] + ui[k, i] * ui[k, j])
                si -= d[k] * (ur[k, i] * ui[k, j] - ui[k, i] * ur[k, j])
            sr /= d[i]
            si /= d[i]
            ur[i, j], ui[i, j] = sr, si
            pivot = pivot - d[i] * (ur[i, j] ** 2 + ui[i, j] ** 2)
            vr, vi = ur[i, j][:, np.newaxis], ui[i, j][:, np.newaxis]
            yr, yi = y[i][:, 0], y[i][:, 1]
            prev, yj = yj, np.empty((t, 2, n, c))
            np.subtract(prev[:, 0], yr * vr - yi * vi, out=yj[:, 0])
            np.subtract(prev[:, 1], yr * vi + yi * vr, out=yj[:, 1])
        if not np.all(pivot > floor):
            return None
        d.append(pivot)
        y.append(yj)
        yj = yj.reshape(t, 2 * n, c)
        part = _dot(yj, yj)
        part /= pivot
        if j:
            score += part
        else:
            score = part
    return score


def quantize_planes(hq, planes, scratch):
    """Fused codebook orthonormalization and nearest-frame scan.

    hq: (T, m, n) orthonormal channel stack. planes: (T, 2, m, n, C) real
    and imaginary parts of one fresh C-entry codebook per trial, entry
    index innermost. scratch: a float64 array of at least T 2n n C
    elements, which the scan overwrites. Returns (idx, d2, qwin). Raises
    RankDeficient if any entry is under the rank floor.

    Entries are scored by Gram matrix and only the winners are
    orthonormalized; near the rank floor every entry gets a QR instead.
    """
    score = _plane_scores(hq, planes, scratch)
    if score is None:
        return _scan_np(hq, thin_qr_batch(_entries(planes))[0])
    rows = np.arange(score.shape[0])
    idx = np.argmax(score, axis=1)
    best = score[rows, idx]
    score[rows, idx] = -np.inf
    # near-ties resolve as the exact scan resolves them, lowest index first
    near = ~(best - np.max(score, axis=1) > _TIE_GAP)
    if np.any(near):
        idx[near] = _scan_np(hq[near], thin_qr_batch(_entries(planes[near]))[0])[0]
    # each trial's winner, as a one-entry codebook
    win = _entries(planes[rows, :, :, :, idx][..., np.newaxis])
    _, d2, qwin = _scan_np(hq, thin_qr_batch(win)[0])
    return idx.astype(np.int64), d2, qwin


def _scan_block(size, m, n):
    """Trials per scan block: _SCAN_BLOCK_ELEMS complex codebook elements'
    worth of 2^B-entry (M, N) codebooks, at least one."""
    return max(1, _SCAN_BLOCK_ELEMS // (size * m * n))


def _draw_planes(gen, draw, planes):
    """Fill (T, 2, M, N, C) planes with the real and imaginary parts of T
    fresh C-entry codebooks, through a (T, C, M, N) draw buffer.

    The normals are consumed as ``gaussian_matrix(gen, M, N, batch=(T, C))``
    consumes them and scaled by the same sqrt(1/2), so the planes hold the
    bytes of that draw, with the entry index innermost.
    """
    for half in range(2):
        gen.standard_normal(out=draw)
        # scaled in place, where it is contiguous: faster than scaling on
        # the way into the planes through the transposed view
        draw *= np.sqrt(0.5)
        planes[:, half] = draw.transpose(0, 2, 3, 1)


def _scan_blocks(gen, m, n, bits, count, hq=None):
    """Yield (lo, hi, d2, winners) for each block of count trials, each
    trial scanned against its own fresh 2^bits-entry codebook. With hq
    None, each block's channels are drawn and orthonormalized just before
    its codebooks."""
    size = _codebook_size(bits, m, n)
    block = _scan_block(size, m, n)
    if size > 1:
        # one workspace for every block, in one allocation: the planes, then
        # the draw buffer that the scorer reuses for B once the planes are
        # full. Freed as one piece, it raises glibc's mmap threshold past its
        # own size, so later scans take it and their temporaries from the
        # heap instead of faulting in fresh pages.
        rows = min(block, count)
        work = np.empty((3, rows * size * m * n))
        planes = work[:2].reshape(rows, 2, m, n, size)
        draw = work[2].reshape(rows, size, m, n)
    for lo in range(0, count, block):
        hi = min(lo + block, count)
        if hq is None:
            frames = orthonormalize(gaussian_matrix(gen, m, n, batch=(hi - lo,)))
        else:
            frames = hq[lo:hi]
        if size == 1:
            # a one-entry codebook is its own winner, drawn complex with
            # nothing to score. d^2 is _scan_np's; conjugating the winners in
            # place conjugates hq^H Q exactly, with no copy of the frames.
            won = thin_qr_batch(gaussian_matrix(gen, m, n, batch=(hi - lo,)))[0]
            np.conjugate(won, out=won)
            d2 = n - np.sum(np.abs(np.einsum("tmn,tmp->tnp", frames, won)) ** 2, axis=(-2, -1))
            np.conjugate(won, out=won)
        else:
            _draw_planes(gen, draw[: hi - lo], planes[: hi - lo])
            _, d2, won = quantize_planes(frames, planes[: hi - lo], draw.reshape(-1))
        yield lo, hi, d2, won


def scan_fresh_codebooks(gen, hq, bits):
    """Quantize each frame of a (T, M, N) orthonormal stack against its own
    fresh random 2^bits-entry codebook.

    The trials run in blocks of :func:`_scan_block` trials. Each block's
    codebooks are drawn from ``gen`` as one ``gaussian_matrix`` draw of
    shape (trials, 2^bits, M, N) would be, into real and imaginary planes
    that one workspace holds for every block, and scored at once by the
    fused Gram scan. So the scan holds one block and its scoring
    temporaries whatever T is. One-entry codebooks have nothing to score
    and are drawn by ``gaussian_matrix`` itself. Returns the (T,) minimum
    d^2 and (T, M, N) winners.
    """
    t, m, n = hq.shape
    d2 = np.empty(t)
    won = np.empty((t, m, n), dtype=np.complex128)
    for lo, hi, block_d2, block_won in _scan_blocks(gen, m, n, bits, t, hq):
        d2[lo:hi], won[lo:hi] = block_d2, block_won
    return d2, won


def distortion_samples(rng, m, n, bits, trials):
    """Per-trial min d^2 values with a fresh random codebook every trial.

    Channels are unit-variance complex Gaussian, orthonormalized before the
    scan. Each scan block's channels are drawn just before its codebooks,
    so memory stays that of one block; results come in trial order and are
    deterministic for a fixed (rng, trials) pair.
    """
    _check_shape(m, n)
    _check_count("trials", trials, 1)
    d2 = np.empty(trials)
    for lo, hi, block_d2, _ in _scan_blocks(as_generator(rng), m, n, bits, trials):
        d2[lo:hi] = block_d2
    return d2
