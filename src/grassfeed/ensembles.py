"""Random matrix ensembles with splittable, spawn-key seeding.

All randomness in the package flows through :class:`RngStream`: a frozen
(seed, stream) pair mapped onto numpy's SFC64 generator through
SeedSequence spawn keys. Identical pairs always reproduce identical draws,
children derived with :meth:`RngStream.child` are statistically independent,
and none of it depends on call order or thread schedule.

Samplers accept either an RngStream or an already-derived
numpy.random.Generator; batch code derives one generator per chunk and draws
sequentially from it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, MemoryGuard, ParameterError, _as_array, _check_count
from .linalg import orthonormalize, project_off

# Every stream's bit generator. Streams are addressed by SeedSequence spawn
# keys, never by a counter, so no counter-based generator is needed; SFC64
# fills normals and exponentials faster than Philox or PCG64. Changing it
# changes every draw.
_BIT_GENERATOR = np.random.SFC64

__all__ = [
    "RngStream",
    "gaussian_matrix",
    "isotropic_frame",
    "isotropic_frame_in_nullspace",
]


@dataclass(frozen=True)
class RngStream:
    """Deterministic handle on one random stream.

    Attributes
    ----------
    seed : int
        Root seed, any nonnegative integer.
    stream : tuple of int
        Spawn path distinguishing this stream from siblings, each entry a
        nonnegative integer. The empty tuple is the root stream.
    """

    seed: int
    stream: tuple = ()

    def __post_init__(self):
        _check_count("seed", self.seed)
        if not isinstance(self.stream, tuple):
            raise ParameterError(f"stream must be a tuple of counts, got {self.stream!r}")
        for key in self.stream:
            _check_count("stream entry", key)
        object.__setattr__(self, "stream", tuple(int(s) for s in self.stream))

    def generator(self):
        """Fresh Generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(self.seed, spawn_key=self.stream)
        return np.random.Generator(_BIT_GENERATOR(ss))

    def child(self, *ids):
        """Substream addressed by appending ids to the spawn path."""
        return RngStream(self.seed, self.stream + ids)


def as_generator(rng):
    """Accept an RngStream or a Generator, return a Generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise ParameterError(f"rng must be an RngStream or numpy Generator, got {type(rng)!r}")


def gaussian_matrix(rng, m, n, batch=()):
    """Complex Gaussian matrix with unit-variance entries.

    Real and imaginary parts are independent N(0, 1/2), so E|h_ij|^2 = 1.
    With batch=(..) a stacked (..., m, n) array is drawn, every real part
    first and then every imaginary part, through one real buffer that each
    half is drawn into and one complex buffer that is returned. batch must
    be a tuple of integers >= 0; buffers numpy cannot allocate raise
    MemoryGuard.
    """
    _check_count("m", m)
    _check_count("n", n)
    if m < 1 or n < 1:
        raise DimensionError(f"matrix dimensions must be positive, got ({m}, {n})")
    if not isinstance(batch, tuple):
        raise ParameterError(f"batch must be a tuple of counts, got {batch!r}")
    for size in batch:
        _check_count("batch entry", size)
    gen = as_generator(rng)
    try:
        z = np.empty(batch + (m, n), dtype=np.complex128)
        part = np.empty(z.shape)
    except (MemoryError, ValueError) as exc:
        raise MemoryGuard(f"cannot allocate a {batch + (m, n)} Gaussian stack: {exc}") from exc
    for out in (z.real, z.imag):
        gen.standard_normal(out=part)
        np.multiply(part, np.sqrt(0.5), out=out)
    return z


def isotropic_frame(rng, m, n, batch=()):
    """Uniformly distributed orthonormal frame(s) on the Grassmannian.

    Thin QR of a complex Gaussian matrix under the positive-diagonal-R
    convention; for m = n this is a Haar unitary.
    """
    if m < n:
        raise DimensionError(f"frame needs m >= n, got ({m}, {n})")
    return orthonormalize(gaussian_matrix(rng, m, n, batch=batch))


def isotropic_frame_in_nullspace(rng, a, n):
    """Isotropic n-frame inside the left nullspace of a, or of each item of
    a stack.

    Parameters
    ----------
    a : (..., m, k) ndarray with m > k; each frame lives in the (m - k)-dim
        orthogonal complement of its matrix's columns.
    n : number of frame columns, n <= m - k.

    Notes
    -----
    The orthonormalized :func:`gaussian_off` of orthonormalize(a). It is
    isotropic in the complement: the projection commutes with every
    unitary that fixes the complement.
    """
    a = _as_array("a", a)
    if a.ndim < 2 or n > a.shape[-2] - a.shape[-1]:
        raise DimensionError(f"the left nullspace of a {a.shape} matrix cannot hold an n={n} frame")
    return orthonormalize(gaussian_off(rng, orthonormalize(a), n))


def gaussian_off(rng, q, n, col=None):
    """G - q (q^H G) for one m x n Gaussian G per item of the orthonormal
    (..., m, k) stack q: the library's one construction of a frame
    complement. Internal; col is an optional (..., m) scratch buffer."""
    p = gaussian_matrix(rng, q.shape[-2], n, batch=q.shape[:-2])
    return project_off(p, q, np.empty(q.shape[:-1], dtype=np.complex128) if col is None else col)
