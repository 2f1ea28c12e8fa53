"""Dense complex linear algebra with pinned conventions.

Everything downstream (frame sampling, quantization, precoding) relies on
two conventions fixed here once:

* QR factors carry a real, strictly positive R diagonal.  With that
  constraint the thin QR of a full-rank matrix is unique, so Gaussian
  matrices pushed through :func:`thin_qr` give Haar-distributed frames and
  any correct algorithm returns the same factors up to rounding.
  :func:`thin_qr_batch` computes it by two-pass classical Gram-Schmidt,
  vectorized over the stack: each column is projected twice against the
  earlier Q columns ("twice is enough", Giraud, Langou & Rozloznik 2005)
  and R_jj is the real norm of what remains, so the diagonal is positive
  by construction.
* Log-determinants and Cholesky factors of Hermitian positive definite
  matrices come from one square-root-free LDL^H factorization, vectorized
  over the stack with a Python loop over the n columns: the sum of log2
  pivots, and U = sqrt(D) L^H. Never LAPACK per tiny item and never a
  determinant expansion.

Tolerances are module constants, not arguments: 1e-10 relative for
orthonormality and reconstruction checks, 1e-12 relative as the rank floor,
and an absolute 1e-10 window below which an eigenvalue of a nominally PSD
matrix is an error; above it, negative eigenvalues are clamped to 0.
"""

import numpy as np

from .errors import (
    DimensionError,
    NotHermitian,
    NotPD,
    NotPSD,
    RankDeficient,
)

__all__ = [
    "thin_qr",
    "cholesky_upper",
    "left_nullspace_basis",
    "logdet_hermitian",
]

ORTHO_TOL = 1e-10
RANK_FLOOR = 1e-12
NOT_PSD_TOL = 1e-10
# Gram-Schmidt squares entries; items whose ||a||_F^2 leaves this range are
# first scaled by a power of two, which is exact, so nothing under- or
# overflows.
_SQUARE_RANGE = (1e-250, 1e250)


def _as_matrix(a, name="a"):
    a = np.asarray(a)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be a 2-D array, got shape {a.shape}")
    return a.astype(np.complex128, copy=False)


def _check_hermitian(a):
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"square matrix required, got {a.shape}")
    scale = np.linalg.norm(a)
    if np.linalg.norm(a - a.conj().T) > ORTHO_TOL * max(scale, 1.0):
        raise NotHermitian(f"a is not Hermitian within {ORTHO_TOL:g} relative")
    # symmetrize so eigh/cholesky see an exactly Hermitian matrix
    return 0.5 * (a + a.conj().T)


def thin_qr(a):
    """Thin QR factorization with a real, strictly positive R diagonal.

    Parameters
    ----------
    a : (m, n) complex ndarray, m >= n
        Matrix with full column rank.

    Returns
    -------
    q : (m, n) ndarray with orthonormal columns.
    r : (n, n) upper triangular ndarray, diagonal real and positive.

    Raises
    ------
    RankDeficient
        If any |R_jj| falls below 1e-12 times ||a||_F.
    DimensionError
        If m < n.

    Notes
    -----
    The positive-diagonal constraint makes the factorization unique, which
    is what makes QR of a complex Gaussian matrix Haar distributed.
    """
    a = _as_matrix(a)
    if a.shape[0] < a.shape[1]:
        raise DimensionError(f"thin_qr needs m >= n, got {a.shape}")
    q, r = thin_qr_batch(a[np.newaxis])
    return q[0], r[0]


def thin_qr_batch(a):
    """:func:`thin_qr` of every item of a tall (..., m, n) stack. Internal.

    Two-pass classical Gram-Schmidt over the n columns, vectorized over the
    stack. Raises RankDeficient if any item falls under the rank floor;
    non-finite input counts as rank deficient and is rejected before any
    arithmetic.
    """
    a, total, e = _square_safe(a)
    q, r = _gram_schmidt(a, total)
    if e is None:
        return q, r
    return q, np.ldexp(r.view(np.float64), e).view(np.complex128)


def orthonormalize(a):
    """Positive-diagonal thin-QR Q factors of a (..., m, n) stack. Internal."""
    return thin_qr_batch(np.ascontiguousarray(a, dtype=np.complex128))[0]


def _square_safe(a):
    """(a, ||a||_F^2 per item, e) for a (..., m, n) stack, as complex128.

    Non-finite input counts as rank deficient and is rejected before any
    arithmetic. When some item's ||a||_F^2 leaves _SQUARE_RANGE, every item
    is scaled by 2^-e, which brings its largest entry into [0.5, 1); e is
    None when the stack is returned unscaled.
    """
    a = np.asarray(a, dtype=np.complex128)
    if not np.isfinite(a).all():
        raise RankDeficient("non-finite entries have no column rank")
    m, n = a.shape[-2:]
    with np.errstate(over="ignore"):
        total = sumsq(a.reshape(a.shape[:-2] + (m * n,)))
    if np.all((total >= _SQUARE_RANGE[0]) & (total <= _SQUARE_RANGE[1])):
        return a, total, None
    big = np.maximum(np.abs(a.real), np.abs(a.imag)).max(axis=(-2, -1))
    e = np.frexp(big)[1][..., np.newaxis, np.newaxis]
    a = np.ldexp(np.ascontiguousarray(a).view(np.float64), -e).view(np.complex128)
    return a, sumsq(a.reshape(a.shape[:-2] + (m * n,))), e


def _gram_schmidt(a, total):
    """Q, R of a (..., m, n) stack with squared Frobenius norms total."""
    n = a.shape[-1]
    floor = RANK_FLOOR * np.sqrt(total)
    q = np.empty_like(a)
    r = np.zeros(a.shape[:-2] + (n, n), dtype=np.complex128)
    for j in range(n):
        v = a[..., j]
        if j:
            qj, qjh = q[..., :j], q[..., :j].conj()
            for _ in range(2):
                c = np.einsum("...mi,...m->...i", qjh, v)
                v = v - np.einsum("...mi,...i->...m", qj, c)
                r[..., :j, j] += c
        d = np.sqrt(sumsq(v))
        if not np.all(d > floor):
            raise RankDeficient(f"column rank below the {RANK_FLOOR:g} relative floor")
        r[..., j, j] = d
        q[..., j] = v / d[..., np.newaxis]
    return q, r


def sumsq(x):
    """Sum of |x|^2 over the last axis, through a real view. Internal."""
    v = x[..., np.newaxis].view(np.float64)
    return np.einsum("...ij,...ij->...", v, v)


def gram_rows(x):
    """x x^H of every item of a (..., n, c) stack. Internal.

    Formed entry by entry over the stack, which at small n beats a stacked
    matmul and its per-item cost: each diagonal entry is one :func:`sumsq`
    (real by construction), each entry above it one einsum over c, and the
    entries below are their conjugates.
    """
    n = x.shape[-2]
    out = np.empty(x.shape[:-1] + (n,), dtype=np.complex128)
    for a in range(n):
        out[..., a, a] = sumsq(x[..., a, :])
        for b in range(a + 1, n):
            upper = out[..., a, b]
            np.einsum("...c,...c->...", x[..., a, :], x[..., b, :].conj(), out=upper)
            np.conjugate(upper, out=out[..., b, a])
    return out


def cholesky_upper(a):
    """Upper-triangular factor U with U^H U = a and a nonnegative diagonal.

    For positive definite input this is the reversed-index Cholesky factor.
    Nominally PSD input is accepted: roundoff-negative eigenvalues (down to
    -1e-10) are clamped to zero and the factor is rebuilt through an
    eigendecomposition, so a zero matrix yields U = 0.

    Raises
    ------
    NotPSD
        If an eigenvalue is below -1e-10.
    NotHermitian
        If the input is not Hermitian within tolerance.
    """
    return cholesky_upper_batch(_check_hermitian(a)[np.newaxis])[0]


def cholesky_upper_batch(a):
    """:func:`cholesky_upper` of every item of a Hermitian (..., n, n) stack.

    Internal. When every pivot of the stack's LDL^H factorization
    (:func:`_ldl_batch`) lies in (0, inf), U = sqrt(D) L^H, formed entry
    by entry over the stack. If any item is not PD, the whole stack is
    factored through the clamped eigendecomposition instead.
    """
    d, ell = _ldl_batch(a)
    if np.all((d > 0.0) & (d < np.inf)):
        root = np.sqrt(d)
        u = np.zeros(a.shape, dtype=np.complex128)
        for j in range(a.shape[-1]):
            u[..., j, j] = root[..., j]
            if j < len(ell):
                np.multiply(ell[j].conj(), root[..., j, np.newaxis], out=u[..., j, j + 1:])
        return u
    w, v = np.linalg.eigh(a)
    if not np.all(w[..., 0] >= -NOT_PSD_TOL):
        raise NotPSD(f"eigenvalue {np.min(w):g} below -{NOT_PSD_TOL:g}")
    w = np.clip(w, 0.0, None)
    b = np.sqrt(w)[..., :, np.newaxis] * np.conj(np.swapaxes(v, -2, -1))
    _, r = np.linalg.qr(b)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    ad = np.abs(d)
    nz = ad > 0
    phase = np.where(nz, d / np.where(nz, ad, 1.0), 1.0)
    r *= phase.conj()[..., :, np.newaxis]
    idx = np.arange(a.shape[-1])
    r[..., idx, idx] = ad
    return r


def left_nullspace_basis(a):
    """Orthonormal basis of the orthogonal complement of the column space.

    Parameters
    ----------
    a : (m, n) complex ndarray with m > n and full column rank.

    Returns
    -------
    (m, m - n) ndarray Q with Q^H Q = I and Q^H a = 0.

    Raises
    ------
    RankDeficient
        If a loses column rank under the 1e-12 relative floor.
    DimensionError
        If m <= n.
    """
    a = _as_matrix(a)
    if a.shape[0] <= a.shape[1]:
        raise DimensionError(f"nullspace needs m > n, got {a.shape}")
    return left_nullspace_basis_batch(a[np.newaxis])[0]


def left_nullspace_basis_batch(a):
    """:func:`left_nullspace_basis` of every item of a (..., m, n) stack.

    Internal. Raises RankDeficient if any item falls under the rank floor;
    non-finite input counts as rank deficient and is rejected before any
    arithmetic. Items are scaled as in :func:`thin_qr_batch`, exactly, so
    the floor neither overflows nor underflows.
    """
    a, total, _ = _square_safe(a)
    n = a.shape[-1]
    q, r = np.linalg.qr(a, mode="complete")
    d = np.diagonal(r[..., :n, :], axis1=-2, axis2=-1)
    floor = RANK_FLOOR * np.sqrt(total)
    if not np.all(np.abs(d) > floor[..., np.newaxis]):
        raise RankDeficient(f"column rank below the {RANK_FLOOR:g} relative floor")
    return q[..., n:]


def logdet_hermitian(a):
    """log2 determinant of a Hermitian positive definite matrix.

    Computed from the pivots d_j of a square-root-free LDL^H factorization
    (a = L D L^H with L unit lower triangular), never by determinant
    expansion: log2 det(a) = sum(log2 d_j).

    Raises
    ------
    NotPD
        If a pivot is not positive and finite.
    NotHermitian
        If the input is not Hermitian within tolerance.
    """
    return float(logdet_hermitian_batch(_check_hermitian(a)[np.newaxis])[0])


def logdet_hermitian_batch(a):
    """:func:`logdet_hermitian` of every item of a Hermitian (..., n, n) stack.

    Internal. Raises NotPD, before any log, if any pivot of
    :func:`_ldl_batch` is not positive and finite. A NaN or infinite entry,
    or a Schur complement that overflows, reaches the diagonal and ends in
    a NaN or infinite pivot.
    """
    d, _ = _ldl_batch(a)
    if not np.all((d > 0.0) & (d < np.inf)):
        raise NotPD("matrix is not positive definite")
    return np.sum(np.log2(d), axis=-1)


def _ldl_batch(a):
    """Square-root-free a = L D L^H of every item of a (..., n, n) stack.

    Returns the (..., n) pivots d and, for each of the first n - 1 columns
    j, the (..., n - 1 - j) entries of unit-lower L below its diagonal.
    Each step takes the pivot d_j and replaces the trailing block by its
    Schur complement, A22 - a21 a21^H / d_j, for the whole stack at once;
    only the lower triangle and the real part of the diagonal are read.
    Pivots are not checked: a non-PD item gives a pivot outside (0, inf).
    """
    n = a.shape[-1]
    d = np.empty(a.shape[:-1])
    ell = []
    s = a
    with np.errstate(all="ignore"):
        for j in range(n - 1):
            d[..., j] = s[..., 0, 0].real
            col = s[..., 1:, 0]
            ell.append(col / d[..., j, np.newaxis])
            s = s[..., 1:, 1:] - ell[j][..., :, np.newaxis] * col.conj()[..., np.newaxis, :]
        d[..., n - 1] = s[..., 0, 0].real
    return d, ell
