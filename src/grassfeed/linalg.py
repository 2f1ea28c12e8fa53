"""Dense complex linear algebra with pinned conventions.

Everything downstream (frame sampling, quantization, precoding) relies on
two conventions fixed here once:

* QR factors carry a real, strictly positive R diagonal.  With that
  constraint the thin QR of a full-rank matrix is unique, so Gaussian
  matrices pushed through :func:`thin_qr` give Haar-distributed frames and
  the compiled and numpy backends compute the same mathematical function.
* Eigenvalues are returned ascending.

Tolerances are module constants, not arguments: 1e-10 relative for
orthonormality and reconstruction checks, 1e-12 relative as the rank floor,
and an absolute 1e-12 clamping window for almost-zero negative eigenvalues
of nominally PSD matrices.
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
    "ORTHO_TOL",
    "RANK_FLOOR",
    "PSD_CLAMP",
    "thin_qr",
    "hermitian_eig",
    "cholesky_upper",
    "left_nullspace_basis",
    "logdet_hermitian",
]

ORTHO_TOL = 1e-10
RANK_FLOOR = 1e-12
PSD_CLAMP = 1e-12
NOT_PSD_TOL = 1e-10


def _as_matrix(a, name="a"):
    a = np.asarray(a)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be a 2-D array, got shape {a.shape}")
    return a.astype(np.complex128, copy=False)


def _check_hermitian(a, name="a"):
    scale = np.linalg.norm(a)
    if np.linalg.norm(a - a.conj().T) > ORTHO_TOL * max(scale, 1.0):
        raise NotHermitian(f"{name} is not Hermitian within {ORTHO_TOL:g} relative")
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

    Raises RankDeficient if any item falls under the rank floor (NaN
    input counts as rank deficient).
    """
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    ad = np.abs(d)
    floor = RANK_FLOOR * np.linalg.norm(a, axis=(-2, -1))
    if not np.all(ad > floor[..., np.newaxis]):
        raise RankDeficient(f"column rank below the {RANK_FLOOR:g} relative floor")
    phase = d / ad
    q = q * phase[..., np.newaxis, :]
    r *= phase.conj()[..., :, np.newaxis]
    # force the diagonal exactly real
    idx = np.arange(a.shape[-1])
    r[..., idx, idx] = ad
    return q, r


def hermitian_eig(a):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Returns
    -------
    w : (n,) real ndarray, ascending.
    v : (n, n) unitary ndarray with eigenvectors in columns.

    Raises
    ------
    NotHermitian
        If ||a - a^H|| exceeds 1e-10 relative.
    """
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"square matrix required, got {a.shape}")
    a = _check_hermitian(a)
    w, v = np.linalg.eigh(a)
    return w, v


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
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"square matrix required, got {a.shape}")
    return cholesky_upper_batch(_check_hermitian(a)[np.newaxis])[0]


def cholesky_upper_batch(a):
    """:func:`cholesky_upper` of every item of a Hermitian (..., n, n) stack.

    Internal. PD stacks take one batched Cholesky. If any item is not PD,
    the whole stack is factored through the clamped eigendecomposition
    instead.
    """
    try:
        # a = U^H U  <=>  a^T = L L^H with L = U^T (plain transpose)
        ell = np.linalg.cholesky(np.swapaxes(a, -2, -1))
        return np.swapaxes(ell, -2, -1)
    except np.linalg.LinAlgError:
        pass
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

    Internal. Raises RankDeficient if any item falls under the rank floor.
    """
    n = a.shape[-1]
    q, r = np.linalg.qr(a, mode="complete")
    d = np.diagonal(r[..., :n, :], axis1=-2, axis2=-1)
    floor = RANK_FLOOR * np.linalg.norm(a, axis=(-2, -1))
    if not np.all(np.abs(d) > floor[..., np.newaxis]):
        raise RankDeficient(f"column rank below the {RANK_FLOOR:g} relative floor")
    return q[..., n:]


def logdet_hermitian(a):
    """log2 determinant of a Hermitian positive definite matrix.

    Computed from the Cholesky factor, never by determinant expansion:
    log2 det(a) = 2 * sum(log2 diag(L)).

    Raises
    ------
    NotPD
        If the Cholesky factorization fails.
    NotHermitian
        If the input is not Hermitian within tolerance.
    """
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"square matrix required, got {a.shape}")
    return float(logdet_hermitian_batch(_check_hermitian(a)[np.newaxis])[0])


def logdet_hermitian_batch(a):
    """:func:`logdet_hermitian` of every item of a Hermitian (..., n, n) stack.

    Internal. Raises NotPD if any item is not positive definite.
    """
    try:
        ell = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPD("matrix is not positive definite") from exc
    diag = np.real(np.diagonal(ell, axis1=-2, axis2=-1))
    return 2.0 * np.sum(np.log2(diag), axis=-1)
