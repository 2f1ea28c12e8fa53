"""Exact emulation of Grassmannian codebook quantization.

Exhaustive quantization against a 2^B-entry random codebook costs O(2^B)
per trial, which caps usable feedback budgets. This module replaces the
scan by sampling from the exact law of its outcome:

1. The squared chordal distance of one random codebook entry has CDF
   C_MN x^T on [0, 1]; the scan returns the minimum z of 2^B independent
   copies, sampled in closed form by inverse-CDF (:func:`sample_min_d2`).
2. The quantized frame is H_hat = H_tilde X Y + S Z with X Haar, S
   isotropic in the left nullspace of H_tilde and trace(Z^H Z) = z, the
   split :func:`decompose` recovers from an explicit (H_tilde, H_hat) pair.
   Given z, the eigenvalues of Z^H Z have density proportional to
   Delta(d)^2 prod d_i^(M-2N) on the simplex sum d_i = z, with Haar
   eigenvectors: the law of a complex Wishart matrix with M - N degrees of
   freedom, scaled to trace z (James 1964). So S Z is sqrt(z) P / ||P||_F
   with P = (I - H_tilde H_tilde^H) G for one M x N Gaussian G, and Y is
   the Cholesky factor of I - Z^H Z.

The emulated (H_hat, d^2) pair is equal in distribution to the exhaustive
scan's output, at O(1) cost per trial for any B and any N.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ensembles import RngStream, as_generator, gaussian_matrix, gaussian_off, isotropic_frame
from .ensembles import isotropic_frame_in_nullspace
from .errors import (
    DegenerateProjection,
    DimensionError,
    DomainError,
    FallbackRequired,
    MemoryGuard,
    ParameterError,
    RankDeficient,
    _as_array,
    _check_count,
    _check_real,
    _check_type,
)
from .grassmann import GrassmannConstants, _check_frames
from .linalg import add_product, cholesky_upper_batch, gram_rows, project_off, sumsq, thin_qr_batch

__all__ = [
    "QuantDecomposition",
    "decompose",
    "sample_min_d2",
    "emulate_quantization",
    "beta_trace_pdf",
]

DEFAULT_GUARD_PRODUCT = 40.0
# keep the min-d^2 uniforms strictly inside (0, 1): d^2 < 1 at budgets that
# pass the default guard, so I - Z^H Z keeps a positive definite factor
_UNIFORM_EPS = 1e-12


@dataclass(frozen=True)
class QuantDecomposition:
    """Split of one frame against a reference frame.

    H_tilde = H_hat @ x @ y + s @ z, with x unitary (N x N), y and z upper
    triangular with nonnegative real diagonals, y^H y + z^H z = I, and s an
    orthonormal N-frame in the left nullspace of the reference.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    s: np.ndarray

    @property
    def d2(self):
        return float(np.sum(np.abs(self.z) ** 2))


def decompose(h_tilde, h_hat):
    """Split h_tilde into its projections onto span(h_hat) and the complement.

    Parameters
    ----------
    h_tilde, h_hat : (M, N) orthonormal frames, M >= 2N.

    Returns
    -------
    QuantDecomposition with h_tilde = h_hat x y + s z, trace(z^H z) equal
    to the squared chordal distance, and y^H y + z^H z = I: x y and s z
    are the thin QRs of h_hat^H h_tilde and of h_tilde projected off h_hat.
    Where the spans coincide, z = 0 and s is the fixed complement frame
    ``isotropic_frame_in_nullspace(RngStream(0), h_hat, N)``.

    Raises
    ------
    DegenerateProjection
        If either projection is rank deficient (e.g. orthogonal subspaces).
        The single exception: a zero complement projection (identical
        spans) is accepted and returns z = 0.
    """
    h_tilde, h_hat = _check_frames(h_tilde=h_tilde, h_hat=h_hat)
    m, n = h_tilde.shape
    if m < 2 * n:
        raise DimensionError(f"need M >= 2N for the complement frame, got ({m}, {n})")
    x, y = _thin_qr(h_hat.conj().T @ h_tilde, "column-space")
    p_null = project_off(h_tilde.copy(), h_hat, np.empty(m, dtype=np.complex128))
    if sumsq(p_null.ravel()) < 1e-18:
        # identical spans: any orthonormal complement frame is correct
        z = np.zeros((n, n), dtype=np.complex128)
        s = isotropic_frame_in_nullspace(RngStream(0), h_hat, n)
    else:
        s, z = _thin_qr(p_null, "complement")
    return QuantDecomposition(x=x, y=y, z=z, s=s)


def _thin_qr(a, what):
    """Q, R of one matrix by :func:`~grassfeed.linalg.thin_qr_batch`; its
    RankDeficient becomes DegenerateProjection of the ``what`` projection."""
    try:
        q, r = thin_qr_batch(a[np.newaxis])
    except RankDeficient as exc:
        raise DegenerateProjection(f"{what} projection lost rank") from exc
    return q[0], r[0]


class CondEigSampler:
    """Sampler for the eigenvalue split of Z^H Z given its trace (N = 2).

    The split u = d1/z has density proportional to (1 - 2u)^2 (u(1-u))^(M-4)
    on (0, 1) at every z: the eigenvalue share of a 2 x 2 complex Wishart
    matrix W = G^H G with G an (M-2) x 2 Gaussian. Each draw takes the
    eigenvalue nearer the first diagonal entry of W, a fair choice made by
    the eigenvectors alone, so the pair is exchangeable. ``m`` is the
    ambient dimension M >= 4.

    The engine does not use it: :func:`emulate_batch` draws the whole
    Z^H Z as a scaled Wishart. It is kept as a check of that law and for
    the benchmark's tracer, which wraps :meth:`sample`.
    """

    def __init__(self, m):
        _check_count("M", m, 4)
        self.m = int(m)

    def sample(self, rng, size=None):
        """Draw u = d1/z, one (M-2) x 2 Gaussian each."""
        batch = () if size is None else tuple(np.atleast_1d(size))
        g = gaussian_matrix(rng, self.m - 2, 2, batch=batch)
        a = np.sum(np.abs(g[..., 0]) ** 2, axis=-1)
        d = np.sum(np.abs(g[..., 1]) ** 2, axis=-1)
        r = np.hypot(0.5 * (a - d), np.abs(np.sum(g[..., 0].conj() * g[..., 1], axis=-1)))
        return 0.5 + np.copysign(r, a - d) / (a + d)


def emulation_valid(gc, bits, guard_product):
    """The emulation guard 2^bits * C_MN >= guard_product, in the log domain.

    :func:`sample_min_d2` decides by it; the engine asks it once per point,
    at DEFAULT_GUARD_PRODUCT, for both the mode and the leakage mean.
    Raises ParameterError unless bits is an integer >= 0 that a float can
    hold (below about 2^1024) and guard_product is finite and positive.
    """
    _check_count("bits", bits)
    _check_real("guard_product", guard_product, low=0)
    try:
        bits = float(bits)
    except OverflowError as exc:
        raise ParameterError(
            f"bits must fit in a float, below about 2^1024, got 2^{bits.bit_length() - 1} or more"
        ) from exc
    return bits + gc.log2_c >= math.log2(guard_product)


def sample_min_d2(rng, gc, bits, guard_product=DEFAULT_GUARD_PRODUCT, size=None):
    """Draw min d^2 over a fresh 2^bits-entry random codebook, in closed form.

    One random d^2 draw has CDF C_MN x^T on [0, 1]; the minimum of 2^B
    independent copies is inverted as x = (F/C_MN)^(1/T) with
    F = 1 - (1-U)^(2^-B), evaluated through log1p/expm1 so the tail is
    exact for any B.

    The closed form covers d^2 <= 1 only. The guard requires
    2^B * C_MN >= guard_product, which keeps P(min > 1) below
    exp(-guard_product); the residual unrepresentable tail is collapsed to
    d^2 = 1. ``size`` is None for one draw, else an integer >= 0.

    Raises
    ------
    FallbackRequired
        If the guard fails; callers should run the exhaustive scan instead.
    MemoryGuard
        If numpy refuses ``size`` draws.
    """
    _check_type("gc", gc, GrassmannConstants)
    _check_count("size", 0 if size is None else size)
    if not emulation_valid(gc, bits, guard_product):
        raise FallbackRequired(
            f"2^{bits} * C_MN < {guard_product:g}: closed-form min-d^2 CDF not valid, "
            "use the exhaustive codebook path"
        )
    gen = as_generator(rng)
    try:
        uni = gen.random(size)
    except (MemoryError, ValueError) as exc:
        raise MemoryGuard(f"cannot allocate {size} min-d^2 draws: {exc}") from exc
    uni = np.clip(uni, _UNIFORM_EPS, 1.0 - _UNIFORM_EPS)
    x = _min_d2_from_uniform(gc, bits, uni)
    return float(x) if size is None else x


def _min_d2_from_uniform(gc, bits, u):
    """Inverse-CDF map from uniform u to min d^2 (endpoints included).

    Wherever F is subnormal (B near or past 1022, or small u), F is taken
    as 2^-B * (-log(1 - u)), exact to double precision there, and x is
    formed in the log domain; it underflows to 0 only below the smallest
    double. So is every x of a shape whose C_MN is subnormal.
    """
    tiny = np.finfo(float).tiny
    # -inf logs at u = 0 and u = 1 give the limits x = 0 and 1; at u = 1 an
    # underflowed 2^-B makes F NaN, which also takes the log domain
    with np.errstate(divide="ignore", invalid="ignore"):
        log_surv = np.log1p(-np.asarray(u, dtype=float))
        f_target = -np.expm1(2.0 ** (-bits) * log_surv)
        log2_f = np.log2(-log_surv) - bits
        x = np.where(
            (f_target >= tiny) & (gc.c >= tiny),
            (f_target / gc.c) ** (1.0 / gc.t),
            np.exp2((log2_f - gc.log2_c) / gc.t),
        )
    return np.minimum(x, 1.0)


def beta_trace_pdf(m, z):
    """Density of one random d^2 draw on [0, 1] for N = 2 frames.

    f(z) = z^(2M-5) Gamma(M)^2 / ((M-1) Gamma(2M-4)); integrates to C_MN
    over [0, 1]. The coefficient, (M-1)! (M-2)! / (2M-5)!, is rounded once
    from exact integers, so no Gamma value overflows for large M.

    Raises
    ------
    DomainError
        If any z is outside [0, 1] (NaN included), where this expression is
        invalid.
    """
    _check_count("M", m, 4)
    z = _as_array("z", z, float)
    if not np.all((z >= 0.0) & (z <= 1.0)):
        raise DomainError("beta_trace_pdf is only valid on [0, 1]")
    coeff = float(Fraction(math.factorial(m - 1) * math.factorial(m - 2), math.factorial(2 * m - 5)))
    out = coeff * z ** (2 * m - 5)
    return float(out) if out.ndim == 0 else out


def emulate_quantization(rng, h_tilde, bits):
    """Sample the quantized frame a fresh random codebook would return.

    Draws (H_hat, d^2) equal in distribution to quantizing h_tilde against
    an independent 2^bits-entry random codebook, without building one:
    H_hat = h_tilde X Y + S Z, where trace(Z^H Z) is the sampled minimum
    distortion, X is Haar, and S is isotropic in the left nullspace.

    It checks the frame and runs :func:`emulate_batch` on a one-item stack.

    Parameters
    ----------
    rng : RngStream or Generator. Draw order is fixed: min d^2, then X,
        then the M x N complement Gaussian.
    h_tilde : (M, N) orthonormal frame, M >= 2N.
    bits : codebook size exponent B, an integer passing the default guard.

    Returns
    -------
    (h_hat, d2) : the emulated quantized frame and its squared distance.
    """
    h_tilde = _check_frames(h_tilde=h_tilde)[0]
    h_hat, d2 = emulate_batch(rng, h_tilde[np.newaxis], bits)
    return h_hat[0], float(d2[0])


def emulate_batch(rng, hq, bits):
    """Emulated quantization of every frame of a (T, M, N) orthonormal stack.

    Internal: the engine's kernel behind :func:`emulate_quantization`, which
    checks the frames (see it for the parameters); this checks only the
    stack's shape. One generator drives the stack with its draw order
    (z, X, G) applied arraywise. With P = G - hq (hq^H G) and W = P^H P,
    the error term is sqrt(s) P and Y = chol(I - s W), s = z / trace(W).
    Returns (T, M, N) frames and (T,) d^2. Any bit budget that passes the
    default guard works: a d^2 that underflows to 0 gives Z = 0 and Y = I.
    Y always exists: the uniforms are clipped to at most 1 - 1e-12, so
    F <= 27.64 2^-B, which the guard 2^B C_MN >= 40 keeps below 0.691 C_MN.
    So d^2 < 0.691^(1/T) < 1 and, as s W is PSD with trace d^2,
    I - s W >= (1 - d^2) I. A non-finite stack reaches Y as NaN and raises
    NotPD.

    The N x N products run as vector operations over the whole stack, not
    as stacked matmuls, which pay a per-item cost at these sizes: P by
    :func:`~grassfeed.ensembles.gaussian_off`, W from its upper entries
    (:func:`~grassfeed.linalg.gram_rows`), trace(W) as the sum of its real
    diagonal, and X Y and hq (X Y) as one column multiply-add per entry of
    the right factor (:func:`~grassfeed.linalg.add_product`). G's buffer
    becomes the returned frames.
    """
    hq = _as_array("hq", hq)
    if hq.ndim != 3:
        raise DimensionError(f"hq must be a (T, M, N) frame stack, got shape {hq.shape}")
    t, m, n = hq.shape
    if m < 2 * n:
        raise DimensionError(f"need M >= 2N, got ({m}, {n})")
    gen = as_generator(rng)
    z = sample_min_d2(gen, GrassmannConstants(m, n), bits, size=t)
    x = isotropic_frame(gen, n, n, batch=(t,))
    col = np.empty((t, m), dtype=np.complex128)
    p = gaussian_off(gen, hq, n, col)
    # W = P^H P is the transpose of the row Gram of P^T
    w = np.swapaxes(gram_rows(np.swapaxes(p, -2, -1)), -2, -1)
    s = z / np.diagonal(w, axis1=-2, axis2=-1).real.sum(axis=-1)
    w *= -s[:, np.newaxis, np.newaxis]
    w += np.eye(n)
    y = cholesky_upper_batch(w)
    xy = np.zeros_like(x)
    add_product(xy, x, y, np.empty((t, n), dtype=np.complex128))
    p *= np.sqrt(s)[:, np.newaxis, np.newaxis]
    add_product(p, hq, xy, col)
    return p, z
