"""Grassmannian subspace quantization.

Distances between column spaces are measured by the squared chordal
distance d^2 = sum_j sin^2(theta_j), computed in trace form as
N - ||A^H B||_F^2 (the principal-angle route is kept only as a test
oracle). Random codebooks hold 2^B independent isotropic frames; a channel
is quantized to the entry of minimum d^2, lowest index on ties.

The codebook file format is flat binary, little endian:

    bytes 0:4    magic b"GFCB"
    bytes 4:8    uint32 format version (1)
    bytes 8:20   uint32 M, N, B
    bytes 20:    2^B entries, each an M x N complex128 matrix in C order

"""

import math
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

CODEBOOK_ENTRY_CAP = 2 ** 24
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
    """2^B isotropic frames on G(M, N), index order significant."""

    m: int
    n: int
    bits: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.complex128)
        if e.shape != (2 ** self.bits, self.m, self.n):
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


def _codebook_size(bits):
    """2^bits, once bits >= 0 and the entry cap are checked."""
    if bits < 0:
        raise ParameterError(f"bits must be >= 0, got {bits}")
    size = 2 ** bits
    if size > CODEBOOK_ENTRY_CAP:
        raise MemoryGuard(f"2^{bits} entries exceed the {CODEBOOK_ENTRY_CAP} cap")
    return size


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


def scan_fresh_codebooks(gen, frames, count, m, n, bits, chunk_elems):
    """Quantize ``count`` frames, each against its own fresh random codebook.

    Runs in chunks of at most ``chunk_elems // (2^bits M N)`` trials (at
    least one). Per chunk, ``frames(start, stop)`` returns the chunk's
    (stop - start, M, N) orthonormal frames, possibly drawing from ``gen``;
    then its 2^bits-entry Gaussian codebooks are drawn from ``gen`` and
    scanned. Returns the (count,) minimum d^2 and (count, M, N) winners.
    """
    size = _codebook_size(bits)
    per = max(1, int(chunk_elems // (size * m * n)))
    d2 = np.empty(count)
    won = np.empty((count, m, n), dtype=np.complex128)
    for start in range(0, count, per):
        stop = min(start + per, count)
        hq = frames(start, stop)
        g = gaussian_matrix(gen, m, n, batch=(stop - start, size))
        _, d2[start:stop], won[start:stop] = _backend.quantize_gaussians(hq, g)
    return d2, won


def distortion_samples(rng, m, n, bits, trials, chunk_elems=2 ** 22):
    """Per-trial min d^2 values with a fresh random codebook every trial.

    Channels are unit-variance complex Gaussian, orthonormalized before the
    scan. Trials are processed in chunks sized by ``chunk_elems`` and
    returned in trial order; results are deterministic for a fixed
    (rng, trials, chunk_elems) triple.
    """
    GrassmannConstants(m, n)  # validates the shape
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    gen = as_generator(rng)

    def channels(start, stop):
        return _backend.orthonormalize(gaussian_matrix(gen, m, n, batch=(stop - start,)))

    return scan_fresh_codebooks(gen, channels, trials, m, n, bits, chunk_elems)[0]


def empirical_distortion(rng, m, n, bits, trials, chunk_elems=2 ** 22):
    """Monte Carlo E[min d^2], the mean of :func:`distortion_samples`."""
    return float(np.mean(distortion_samples(rng, m, n, bits, trials, chunk_elems)))


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
    """Read a codebook written by :func:`save_codebook`."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ParameterError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        header = np.frombuffer(fh.read(16), dtype="<u4")
        version, m, n, bits = (int(x) for x in header)
        if version != _FORMAT_VERSION:
            raise ParameterError(f"unsupported format version {version}")
        count = 2 ** bits
        raw = fh.read(count * m * n * 16)
        entries = np.frombuffer(raw, dtype="<c16").reshape(count, m, n)
    return Codebook(m, n, bits, entries.astype(np.complex128))
