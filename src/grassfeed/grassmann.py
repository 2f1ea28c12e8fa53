"""Grassmannian subspace quantization.

Distances between column spaces are measured by the squared chordal
distance d^2 = sum_j sin^2(theta_j), computed in trace form as
N - ||A^H B||_F^2 (the principal-angle route is kept only as a test
oracle). Random codebooks hold 2^B independent isotropic frames; a channel
is quantized to the entry of minimum d^2, lowest index on ties. A scan of
fresh codebooks, one per trial, draws and scores them in fixed-size blocks
of trials. Each block's codebooks are drawn as one Gaussian draw would
draw them, into a real and an imaginary plane with the entry index
innermost; one workspace holds the planes and the draw buffer for every
block of a scan, and the Gram scorer reads the planes as they are.

The codebook file format is flat binary, little endian:

    bytes 0:4    magic b"GFCB"
    bytes 4:8    uint32 format version (1)
    bytes 8:20   uint32 M, N, B
    bytes 20:    2^B entries, each an M x N complex128 matrix in C order

"""

import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _backend
from .ensembles import as_generator, gaussian_matrix
from .errors import DimensionError, DomainError, MemoryGuard, ParameterError
from .linalg import ORTHO_TOL

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
    "empirical_distortion",
    "scan_fresh_codebooks",
    "save_codebook",
    "load_codebook",
]

_CAP_BITS = 24
CODEBOOK_ENTRY_CAP = 2 ** _CAP_BITS
# complex codebook elements per scored block: a scan's workspace is the
# block's real and imaginary planes (2 MiB) and its draw buffer (1 MiB),
# which the scorer reuses for B = hq^H G. Each block draws all its real
# parts, then all its imaginary parts, so this size fixes how a
# multi-block scan consumes the random stream, as CHUNK_TRIALS does for
# the engine: changing it changes the results.
_SCAN_BLOCK_ELEMS = 2 ** 17
_MAGIC = b"GFCB"
_FORMAT_VERSION = 1


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
        if self.n < 1 or self.m < 2 * self.n:
            raise ParameterError(
                f"need 1 <= N <= M/2, got M={self.m}, N={self.n}"
            )

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


def _check_frame(a, name):
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < a.shape[1]:
        raise DimensionError(f"{name} must be a tall (m, n) frame, got {a.shape}")
    gram = a.conj().T @ a
    if np.linalg.norm(gram - np.eye(a.shape[1])) > ORTHO_TOL * a.shape[1]:
        raise ParameterError(f"{name} columns are not orthonormal within {ORTHO_TOL:g}")
    return a


def chordal_distance_sq(a, b):
    """Squared chordal distance between the spans of two orthonormal frames.

    d^2(A, B) = N - ||A^H B||_F^2 = sum_j sin^2(theta_j). Invariant under
    right-unitary rotation of either frame; rounding can push the trace form
    epsilon negative, which is clamped to 0.
    """
    a = _check_frame(a, "a")
    b = _check_frame(b, "b")
    if a.shape != b.shape:
        raise DimensionError(f"frame shapes disagree: {a.shape} vs {b.shape}")
    n = a.shape[1]
    d2 = n - np.sum(np.abs(a.conj().T @ b) ** 2)
    return float(max(d2, 0.0))


def principal_angles(a, b):
    """Principal angles between two frame spans, ascending, in radians.

    arccos of the singular values of A^H B, clipped into [0, 1] before the
    arccos. This is the reference route; production code uses the trace
    form in :func:`chordal_distance_sq`.
    """
    a = _check_frame(a, "a")
    b = _check_frame(b, "b")
    if a.shape != b.shape:
        raise DimensionError(f"frame shapes disagree: {a.shape} vs {b.shape}")
    s = np.linalg.svd(a.conj().T @ b, compute_uv=False)
    return np.arccos(np.clip(s, 0.0, 1.0))


@dataclass(frozen=True)
class Codebook:
    """2^B isotropic frames on G(M, N), index order significant.

    bits is checked before 2^B is formed: negative bits raise
    ParameterError and bits above the entry cap raise MemoryGuard.
    """

    m: int
    n: int
    bits: int
    entries: np.ndarray

    def __post_init__(self):
        size = _codebook_size(self.bits)
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


def _is_count(x):
    """True for a nonnegative integer; bools and integral floats are not counts."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= 0


def _codebook_size(bits):
    """2^bits, once bits >= 0 and the entry cap are checked."""
    if bits < 0:
        raise ParameterError(f"bits must be >= 0, got {bits}")
    # compared before exponentiating, so a huge bits fails at once
    if bits > _CAP_BITS:
        raise MemoryGuard(f"2^{bits} entries exceed the {CODEBOOK_ENTRY_CAP} cap")
    return 2 ** bits


def random_codebook(rng, m, n, bits):
    """Fresh random quantization codebook of 2^bits isotropic frames."""
    gc = GrassmannConstants(m, n)
    size = _codebook_size(bits)
    gen = as_generator(rng)
    g = gaussian_matrix(gen, gc.m, gc.n, batch=(size,))
    return Codebook(gc.m, gc.n, bits, _backend.orthonormalize(g))


def quantize(h, codebook):
    """Quantize a channel to the chordal-nearest codebook entry.

    The channel is orthonormalized first, so quantization depends only on
    its column space; any right-multiplied full-rank factor gives the same
    index. Ties break to the lowest index.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.shape != (codebook.m, codebook.n):
        raise DimensionError(f"channel shape {h.shape} does not match codebook ({codebook.m}, {codebook.n})")
    hq = _backend.orthonormalize(h[np.newaxis])[0]
    idx, d2 = _backend.scan_frames(hq, codebook.entries)
    return QuantizationResult(int(idx), float(max(d2, 0.0)), codebook.entries[idx])


def distortion_main_term(gc, bits):
    """Leading term of the expected-distortion bound: the metric-ball part.

    (Gamma(1/T) / T) * C_MN^(-1/T) * 2^(-B/T).
    """
    t = gc.t
    return (math.gamma(1.0 / t) / t) * gc.c ** (-1.0 / t) * 2.0 ** (-bits / t)


def distortion_bound(gc, bits, a=0.5):
    """Upper bound on E[min d^2] over a random 2^bits-entry codebook.

    (Gamma(1/T)/T) C_MN^{-1/T} 2^{-B/T} + N exp(-(2^B C_MN)^{1-a})

    Parameters
    ----------
    gc : GrassmannConstants
    bits : codebook size exponent B >= 0.
    a : splitting exponent in (0, 1); 0.5 balances the two terms.

    Raises
    ------
    DomainError
        If 2^B * C_MN < 1, where the ball-volume expansion is invalid.
    ParameterError
        If a is outside (0, 1) or bits < 0.
    """
    if not 0.0 < a < 1.0:
        raise ParameterError(f"a must lie in (0, 1), got {a}")
    if bits < 0:
        raise ParameterError(f"bits must be >= 0, got {bits}")
    product = 2.0 ** bits * gc.c
    if product < 1.0:
        raise DomainError(f"2^B * C_MN = {product:g} < 1 is outside the bound's domain")
    return distortion_main_term(gc, bits) + gc.n * math.exp(-(product ** (1.0 - a)))


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
    size = _codebook_size(bits)
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
            frames = _backend.orthonormalize(gaussian_matrix(gen, m, n, batch=(hi - lo,)))
        else:
            frames = hq[lo:hi]
        if size == 1:
            res = _backend.quantize_gaussians(frames, gaussian_matrix(gen, m, n, batch=(hi - lo, 1)))
        else:
            _draw_planes(gen, draw[: hi - lo], planes[: hi - lo])
            res = _backend.quantize_planes(frames, planes[: hi - lo], draw.reshape(-1))
        yield lo, hi, res[1], res[2]


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
    GrassmannConstants(m, n)  # validates the shape
    if not _is_count(trials) or trials < 1:
        raise ParameterError(f"trials must be an integer >= 1, got {trials!r}")
    if not _is_count(bits):
        raise ParameterError(f"bits must be an integer >= 0, got {bits!r}")
    d2 = np.empty(trials)
    for lo, hi, block_d2, _ in _scan_blocks(as_generator(rng), m, n, bits, trials):
        d2[lo:hi] = block_d2
    return d2


def empirical_distortion(rng, m, n, bits, trials):
    """Monte Carlo E[min d^2], the mean of :func:`distortion_samples`."""
    return float(np.mean(distortion_samples(rng, m, n, bits, trials)))


def save_codebook(codebook, path):
    """Write a codebook in the flat binary format documented above."""
    header = np.array(
        [_FORMAT_VERSION, codebook.m, codebook.n, codebook.bits], dtype="<u4"
    )
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(header.tobytes())
        fh.write(np.ascontiguousarray(codebook.entries, dtype="<c16").tobytes())


def load_codebook(path):
    """Read a codebook written by :func:`save_codebook`.

    Raises ParameterError if the header is foreign, truncated or names an
    invalid shape or an over-cap B, or if the payload is not exactly
    2^B M N complex doubles.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ParameterError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        raw = fh.read(16)
        if len(raw) != 16:
            raise ParameterError(f"{path}: header truncated at {4 + len(raw)} bytes")
        version, m, n, bits = (int(x) for x in np.frombuffer(raw, dtype="<u4"))
        if version != _FORMAT_VERSION:
            raise ParameterError(f"unsupported format version {version}")
        try:
            GrassmannConstants(m, n)
            count = _codebook_size(bits)
        except (ParameterError, MemoryGuard) as exc:
            raise ParameterError(f"{path}: {exc}") from exc
        expected = count * m * n * 16
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload != expected:
            raise ParameterError(
                f"{path}: payload is {payload} bytes, (M, N, B) = ({m}, {n}, {bits}) needs {expected}"
            )
        entries = np.frombuffer(fh.read(expected), dtype="<c16").reshape(count, m, n)
    return Codebook(m, n, bits, entries.astype(np.complex128))
