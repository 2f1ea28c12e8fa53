"""Exact emulation of Grassmannian codebook quantization.

Exhaustive quantization against a 2^B-entry random codebook costs O(2^B)
per trial, which caps usable feedback budgets. This module replaces the
scan by sampling from the exact law of its outcome:

1. The squared chordal distance of one random codebook entry has CDF
   C_MN x^T on [0, 1]; the scan returns the minimum of 2^B independent
   copies, sampled in closed form by inverse-CDF (:func:`sample_min_d2`).
2. Given that minimum z, the two eigenvalues of Z^H Z (N = 2) follow the
   conditional law of the matrix-variate Beta(N, M-N) eigenvalues given
   their sum. The conditional density kernel is
   (z - 2 d1)^2 (d1 (z - d1))^(M-4) on (0, z), which is homogeneous in z:
   u = d1/z has a fixed density (1 - 2u)^2 (u(1-u))^(M-4) independent of z,
   tabulated once per M by :class:`CondEigSampler`.
3. The quantized frame is reassembled as H_hat = H_tilde X Y + S Z with X
   Haar unitary and S isotropic in the left nullspace of H_tilde, the same
   split :func:`decompose` recovers from an explicit (H_tilde, H_hat) pair.

The emulated (H_hat, d^2) pair is equal in distribution to the exhaustive
scan's output, at O(1) cost per trial for any B.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import beta as beta_fn
from scipy.special import betainc

from . import _backend
from .ensembles import as_generator, isotropic_frame, isotropic_frame_in_nullspace
from .errors import (
    DegenerateProjection,
    DimensionError,
    DomainError,
    FallbackRequired,
    ParameterError,
    RankDeficient,
)
from .grassmann import GrassmannConstants, _check_frame
from .linalg import cholesky_upper_batch, left_nullspace_basis, thin_qr

__all__ = [
    "DEFAULT_GUARD_PRODUCT",
    "QuantDecomposition",
    "CondEigSampler",
    "decompose",
    "emulation_valid",
    "sample_min_d2",
    "sample_cond_eigs",
    "emulate_quantization",
    "beta_trace_pdf",
]

DEFAULT_GUARD_PRODUCT = 40.0
_GRID_SIZE = 4097
_CACHE_VERSION = 1
# keep inverse-CDF inputs strictly inside (0, 1) so downstream Cholesky
# factors of Z^H Z and I - Z^H Z stay well defined
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
    to the squared chordal distance, and y^H y + z^H z = I.

    Raises
    ------
    DegenerateProjection
        If either projection is rank deficient (e.g. orthogonal subspaces).
        The single exception: a zero complement projection (identical
        spans) is accepted and returns z = 0.
    """
    h_tilde = _check_frame(h_tilde, "h_tilde")
    h_hat = _check_frame(h_hat, "h_hat")
    if h_tilde.shape != h_hat.shape:
        raise DimensionError(f"frame shapes disagree: {h_tilde.shape} vs {h_hat.shape}")
    m, n = h_tilde.shape
    if m < 2 * n:
        raise DimensionError(f"need M >= 2N for the complement frame, got ({m}, {n})")
    overlap = h_hat.conj().T @ h_tilde
    p_col = h_hat @ overlap
    p_null = h_tilde - p_col
    d2 = float(np.sum(np.abs(p_null) ** 2))
    try:
        q_col, y = thin_qr(p_col)
    except RankDeficient as exc:
        raise DegenerateProjection("column-space projection lost rank") from exc
    x = h_hat.conj().T @ q_col
    if d2 < 1e-18:
        z = np.zeros((n, n), dtype=np.complex128)
        s = left_nullspace_basis(h_hat)[:, :n]
    else:
        try:
            s, z = thin_qr(p_null)
        except RankDeficient as exc:
            raise DegenerateProjection("complement projection lost rank") from exc
    return QuantDecomposition(x=x, y=y, z=z, s=s)


class CondEigSampler:
    """Sampler for the eigenvalue split of Z^H Z given its trace (N = 2).

    The conditional density of d1 given d1 + d2 = z <= 1 is proportional to
    (z - 2 d1)^2 (d1 (z - d1))^(M-4) on (0, z). In the normalized variable
    u = d1/z the density is (1 - 2u)^2 (u (1-u))^(M-4), z-independent, so a
    single inverse-CDF table per M covers every z. CDF knots are exact
    regularized incomplete beta combinations on a 4097-point grid; the
    inverse is monotone cubic (PCHIP).

    Attributes
    ----------
    m : ambient dimension M >= 4.
    v_m : joint-density normalization (M-1)(M-2)^2(M-3)/2.
    """

    def __init__(self, m, grid_size=_GRID_SIZE):
        if m < 4:
            raise ParameterError(f"conditional eigenvalue sampler needs M >= 4, got {m}")
        if grid_size < 16:
            raise ParameterError(f"grid_size too small: {grid_size}")
        self.m = int(m)
        self.grid_size = int(grid_size)
        self.v_m = 0.5 * (m - 1) * (m - 2) ** 2 * (m - 3)
        self.u_grid = np.linspace(0.0, 1.0, grid_size)
        self.cdf_grid = self.cdf(self.u_grid)
        self._build_inverse()

    def _build_inverse(self):
        keep = np.concatenate(([True], np.diff(self.cdf_grid) > 0))
        self._inv = PchipInterpolator(self.cdf_grid[keep], self.u_grid[keep])

    def cdf(self, u):
        """Exact conditional CDF of u = d1/z.

        Integral of (1-2s)^2 (s(1-s))^k = s^k (1-s)^k - 4 s^(k+1) (1-s)^(k+1)
        with k = M - 4, expressed through regularized incomplete betas.
        """
        u = np.asarray(u, dtype=float)
        k = self.m - 4
        b1 = beta_fn(k + 1, k + 1)
        b2 = beta_fn(k + 2, k + 2)
        raw = b1 * betainc(k + 1, k + 1, u) - 4.0 * b2 * betainc(k + 2, k + 2, u)
        return raw / (b1 - 4.0 * b2)

    def sample(self, rng, size=None):
        """Draw u = d1/z by inverting the tabulated CDF, one uniform each."""
        gen = as_generator(rng)
        uni = gen.random(size)
        uni = np.clip(uni, _UNIFORM_EPS, 1.0 - _UNIFORM_EPS)
        return np.clip(self._inv(uni), _UNIFORM_EPS, 1.0 - _UNIFORM_EPS)

    def dump(self, path):
        """Cache the table; keyed by (M, grid size, format version)."""
        np.savez(
            path,
            version=_CACHE_VERSION,
            m=self.m,
            grid_size=self.grid_size,
            u_grid=self.u_grid,
            cdf_grid=self.cdf_grid,
        )

    @classmethod
    def load(cls, path, m, grid_size=_GRID_SIZE):
        """Load a cached table, validating the (M, grid size, version) key."""
        with np.load(path) as data:
            fields = {"version", "m", "grid_size", "u_grid", "cdf_grid"}
            if not fields.issubset(data.files):
                raise ParameterError(f"not a sampler cache file: {path}")
            if int(data["version"]) != _CACHE_VERSION:
                raise ParameterError(f"cache version {int(data['version'])} unsupported")
            if int(data["m"]) != m or int(data["grid_size"]) != grid_size:
                raise ParameterError(
                    f"cache keyed (M={int(data['m'])}, grid={int(data['grid_size'])}), "
                    f"requested (M={m}, grid={grid_size})"
                )
            obj = cls.__new__(cls)
            obj.m = m
            obj.grid_size = grid_size
            obj.v_m = 0.5 * (m - 1) * (m - 2) ** 2 * (m - 3)
            obj.u_grid = data["u_grid"].copy()
            obj.cdf_grid = data["cdf_grid"].copy()
        obj._build_inverse()
        return obj


_sampler_cache = {}


def default_cond_sampler(m):
    """Shared per-M sampler instance (the table depends only on M)."""
    if m not in _sampler_cache:
        _sampler_cache[m] = CondEigSampler(m)
    return _sampler_cache[m]


def emulation_valid(gc, bits, guard_product):
    """The emulation guard 2^bits * C_MN >= guard_product, in the log domain.

    The engine's mode choice and :func:`sample_min_d2` both decide by it.
    Raises ParameterError for negative bits, or unless guard_product is
    finite and positive.
    """
    if bits < 0:
        raise ParameterError(f"bits must be >= 0, got {bits}")
    if not 0.0 < guard_product < math.inf:
        raise ParameterError(f"guard_product must be finite and positive, got {guard_product}")
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
    d^2 = 1.

    Raises
    ------
    FallbackRequired
        If the guard fails; callers should run the exhaustive scan instead.
    """
    if not emulation_valid(gc, bits, guard_product):
        raise FallbackRequired(
            f"2^{bits} * C_MN < {guard_product:g}: closed-form min-d^2 CDF not valid, "
            "use the exhaustive codebook path"
        )
    gen = as_generator(rng)
    uni = gen.random(size)
    uni = np.clip(uni, _UNIFORM_EPS, 1.0 - _UNIFORM_EPS)
    x = _min_d2_from_uniform(gc, bits, uni)
    return float(x) if size is None else x


def _min_d2_from_uniform(gc, bits, u):
    """Inverse-CDF map from uniform u to min d^2 (endpoints included).

    Past B = 1022, 2^-B is not a normal double, so F is taken as
    2^-B * (-log(1 - u)), exact to double precision there, and x is formed
    in the log domain; it underflows to 0 only below the smallest double.
    """
    with np.errstate(divide="ignore"):  # log1p(-1) at u = 1; limit is x = 1
        log_surv = np.log1p(-np.asarray(u, dtype=float))
        if bits <= -np.finfo(float).minexp:
            f_target = -np.expm1(2.0 ** (-bits) * log_surv)
            return np.minimum((f_target / gc.c) ** (1.0 / gc.t), 1.0)
        # log2(0) = -inf at u = 0; the limit is x = 0
        log2_f = np.log2(-log_surv) - bits
    return np.minimum(np.exp2((log2_f - gc.log2_c) / gc.t), 1.0)


def sample_cond_eigs(rng, sampler, z):
    """Split a trace z into the two conditional eigenvalues (N = 2).

    Returns (d1, d2) with d1 + d2 = z exactly; the pair is exchangeable
    (unordered).

    Raises
    ------
    DomainError
        If z is outside (0, 1].
    """
    z = float(z)
    if not 0.0 < z <= 1.0:
        raise DomainError(f"trace z must lie in (0, 1], got {z}")
    u = float(sampler.sample(rng))
    d1 = z * u
    return d1, z - d1


def beta_trace_pdf(m, z):
    """Density of one random d^2 draw on [0, 1] for N = 2 frames.

    f(z) = z^(2M-5) Gamma(M)^2 / ((M-1) Gamma(2M-4)); integrates to C_MN
    over [0, 1].

    Raises
    ------
    DomainError
        If any z is outside [0, 1], where this expression is invalid.
    """
    if m < 4:
        raise ParameterError(f"need M >= 4, got {m}")
    z = np.asarray(z, dtype=float)
    if np.any((z < 0.0) | (z > 1.0)):
        raise DomainError("beta_trace_pdf is only valid on [0, 1]")
    coeff = math.gamma(m) ** 2 / ((m - 1) * math.gamma(2 * m - 4))
    out = coeff * z ** (2 * m - 5)
    return float(out) if out.ndim == 0 else out


def emulate_quantization(rng, h_tilde, bits, sampler=None,
                         guard_product=DEFAULT_GUARD_PRODUCT):
    """Sample the quantized frame a fresh random codebook would return.

    Draws (H_hat, d^2) equal in distribution to quantizing h_tilde against
    an independent 2^bits-entry random codebook, without building one:
    H_hat = h_tilde X Y + S Z, where trace(Z^H Z) is the sampled minimum
    distortion, X is Haar, and S is isotropic in the left nullspace.

    It checks the frame and runs :func:`emulate_batch` on a one-item stack.

    Parameters
    ----------
    rng : RngStream or Generator. Draw order is fixed: min d^2, then the
        eigenvalue split (N = 2), then the eigenvector rotation, then X,
        then S.
    h_tilde : (M, N) orthonormal frame, N in {1, 2}, M >= 2N.
    bits : codebook size exponent B.
    sampler : optional CondEigSampler for N = 2 (defaults to a shared
        per-M instance).
    guard_product : see :func:`sample_min_d2`.

    Returns
    -------
    (h_hat, d2) : the emulated quantized frame and its squared distance.
    """
    h_tilde = _check_frame(h_tilde, "h_tilde")
    h_hat, d2 = emulate_batch(rng, h_tilde[np.newaxis], bits, sampler=sampler,
                              guard_product=guard_product)
    return h_hat[0], float(d2[0])


def emulate_batch(rng, hq, bits, sampler=None, guard_product=DEFAULT_GUARD_PRODUCT):
    """Emulated quantization of every frame of a (T, M, N) orthonormal stack.

    The implementation behind :func:`emulate_quantization` (see it for the
    parameters): one generator drives the stack with its draw order
    (z, u, eigenvectors, X, S) applied arraywise. Returns (T, M, N) frames
    and (T,) d^2. Any bit budget works: a d^2 that underflows to 0 gives
    Z = 0 and Y = I.
    """
    hq = np.asarray(hq, dtype=np.complex128)
    t, m, n = hq.shape
    if n not in (1, 2):
        raise ParameterError(f"emulation supports N in {{1, 2}}, got N={n}")
    if m < 2 * n:
        raise DimensionError(f"need M >= 2N, got ({m}, {n})")
    if n == 2 and sampler is not None and sampler.m != m:
        raise ParameterError(f"sampler built for M={sampler.m}, channel has M={m}")
    gc = GrassmannConstants(m, n)
    gen = as_generator(rng)
    z = sample_min_d2(gen, gc, bits, guard_product=guard_product, size=t)
    if n == 1:
        zmat = np.sqrt(z).reshape(t, 1, 1).astype(np.complex128)
        y = np.sqrt(1.0 - z).reshape(t, 1, 1).astype(np.complex128)
    else:
        if sampler is None:
            sampler = default_cond_sampler(m)
        u = sampler.sample(gen, size=t)
        d1 = z * u
        d2p = z - d1
        evec = isotropic_frame(gen, 2, 2, batch=(t,))
        eig = np.stack([d1, d2p], axis=-1)
        zgram = (evec * eig[:, np.newaxis, :]) @ np.conj(np.swapaxes(evec, -2, -1))
        zmat = cholesky_upper_batch(zgram)
        eye = np.broadcast_to(np.eye(2), (t, 2, 2))
        y = cholesky_upper_batch(eye - zgram)
    x = isotropic_frame(gen, n, n, batch=(t,))
    s = isotropic_frame_in_nullspace(gen, hq, n)
    h_hat = hq @ (x @ y) + s @ zmat
    return h_hat, z
