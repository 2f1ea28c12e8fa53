"""Random matrix ensembles with splittable, counter-based seeding.

All randomness in the package flows through :class:`RngStream`: a frozen
(seed, stream) pair mapped onto numpy's Philox generator through
SeedSequence spawn keys. Identical pairs always reproduce identical draws,
children derived with :meth:`RngStream.child` are statistically independent,
and none of it depends on call order or thread schedule.

Samplers accept either an RngStream or an already-derived
numpy.random.Generator; batch code derives one generator per chunk and draws
sequentially from it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError, _check_count
from .linalg import left_nullspace_basis_batch, orthonormalize

__all__ = [
    "RngStream",
    "gaussian_matrix",
    "isotropic_frame",
    "isotropic_frame_in_nullspace",
    "matrix_beta",
]


@dataclass(frozen=True)
class RngStream:
    """Deterministic handle on one random stream.

    Attributes
    ----------
    seed : int
        Root seed, any nonnegative integer.
    stream : tuple of int
        Spawn path distinguishing this stream from siblings. The empty
        tuple is the root stream.
    """

    seed: int
    stream: tuple = ()

    def __post_init__(self):
        _check_count("seed", self.seed)
        object.__setattr__(self, "stream", tuple(int(s) for s in self.stream))

    def generator(self):
        """Fresh Generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(self.seed, spawn_key=self.stream)
        return np.random.Generator(np.random.Philox(ss))

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
    half is drawn into and one complex buffer that is returned.
    """
    _check_count("m", m)
    _check_count("n", n)
    if m < 1 or n < 1:
        raise DimensionError(f"matrix dimensions must be positive, got ({m}, {n})")
    gen = as_generator(rng)
    z = np.empty(tuple(batch) + (m, n), dtype=np.complex128)
    part = np.empty(z.shape)
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
    Unitary invariance makes the result isotropic within the complement no
    matter which complement basis is used.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or n > a.shape[-2] - a.shape[-1]:
        raise DimensionError(f"the left nullspace of a {a.shape} matrix cannot hold an n={n} frame")
    basis = left_nullspace_basis_batch(a)
    return basis @ isotropic_frame(rng, basis.shape[-1], n, batch=a.shape[:-2])


def matrix_beta(rng, n, a, b):
    """Draw from the matrix-variate Beta(a, b) ensemble, n x n.

    Construction: W an isotropic a-frame and H an independent isotropic
    n-frame, both in dimension a + b; return H^H (I - W W^H) H. The trace
    has mean n * b / (a + b); for n = a = N, b = M - N this is the law of
    the squared chordal distance Gram between a random channel direction
    and one random codebook frame.
    """
    _check_count("n", n, 1)
    _check_count("a", a, n)
    _check_count("b", b, n)
    gen = as_generator(rng)
    amb = a + b
    w = isotropic_frame(gen, amb, a)
    h = isotropic_frame(gen, amb, n)
    proj = h - w @ (w.conj().T @ h)
    return h.conj().T @ proj
