"""Dense complex linear algebra kernels with pinned conventions. Internal.

The module has no public names: it holds the batch kernels the engine,
:func:`~grassfeed.quant_emulator.decompose` and the benchmark's tracer in
``perfbench/`` run. Everything downstream (frame sampling, quantization,
precoding) relies on two conventions fixed here once:

* QR factors carry a real, strictly positive R diagonal.  With that
  constraint the thin QR of a full-rank matrix is unique, so Gaussian
  matrices pushed through :func:`thin_qr_batch` give Haar-distributed
  frames and any correct algorithm returns the same factors up to
  rounding. It is computed by two-pass classical Gram-Schmidt,
  vectorized over the stack: each column is projected twice against the
  earlier Q columns ("twice is enough", Giraud, Langou & Rozloznik 2005)
  and R_jj is the real norm of what remains, so the diagonal is positive
  by construction.
* Log-determinants and Cholesky factors of Hermitian positive definite
  matrices come from one square-root-free LDL^H factorization, vectorized
  over the stack with a Python loop over the n columns: the sum of log2
  pivots, and U = sqrt(D) L^H. A pivot outside (0, inf) raises NotPD.
  Never LAPACK per tiny item and never a determinant expansion.

Tolerances are module constants, not arguments: 1e-10 relative for
orthonormality checks and 1e-12 relative as the rank floor.
"""

import numpy as np

from .errors import DimensionError, NotPD, RankDeficient

__all__ = []

ORTHO_TOL = 1e-10
RANK_FLOOR = 1e-12
# Gram-Schmidt squares entries; items whose ||a||_F^2 leaves this range are
# first scaled by a power of two, which is exact, so nothing under- or
# overflows.
_SQUARE_RANGE = (1e-250, 1e250)


def thin_qr_batch(a):
    """Thin QR, R with a real positive diagonal, of every item of a tall
    (..., m, n) stack. Internal.

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

    Empty items raise DimensionError; non-finite input counts as rank
    deficient and is rejected before any arithmetic. When some item's
    ||a||_F^2 leaves _SQUARE_RANGE, every item is scaled by 2^-e, which
    brings its largest entry into [0.5, 1); e is None when the stack is
    returned unscaled.
    """
    a = np.asarray(a, dtype=np.complex128)
    m, n = a.shape[-2:]
    if not (m and n):
        raise DimensionError(f"items need at least one row and one column, got ({m}, {n})")
    if not np.isfinite(a).all():
        raise RankDeficient("non-finite entries have no column rank")
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
            v = v.copy()  # both passes update one copy in place
            for _ in range(2):
                c = np.einsum("...mi,...m->...i", qjh, v)
                v -= np.einsum("...mi,...i->...m", qj, c)
                r[..., :j, j] += c
        d = np.sqrt(sumsq(v))
        if not np.all(d > floor):
            raise RankDeficient(f"column rank below the {RANK_FLOOR:g} relative floor")
        r[..., j, j] = d
        np.divide(v, d[..., np.newaxis], out=q[..., j])  # no stack-sized temporary
    return q, r


def project_off(p, q, col):
    """p -= q (q^H p) in place, for (..., m, n) p and orthonormal
    (..., m, k) q, through the (..., m) scratch buffer col. Internal.

    q^H p is formed entry by entry, one einsum over m each, and q times it
    added by :func:`add_product`; at these sizes both beat stacked matmuls.
    """
    coef = np.empty(q.shape[:-2] + (q.shape[-1], p.shape[-1]), dtype=np.complex128)
    for i in range(q.shape[-1]):
        np.conjugate(q[..., :, i], out=col)
        for j in range(p.shape[-1]):
            np.einsum("...m,...m->...", col, p[..., :, j], out=coef[..., i, j])
    # p + q (-q^H p)
    np.negative(coef, out=coef)
    add_product(p, q, coef, col)
    return p


def add_product(out, a, b, col):
    """out += a @ b for (..., r, k) and (..., k, n) stacks, in place. Internal.

    One multiply-add of an r-column stack per entry of b, through the
    reused (..., r) buffer ``col``. With k and n this small that beats a
    stacked matmul, and also a broadcast over all n columns at once, whose
    innermost loop would run over n alone.
    """
    for j in range(b.shape[-1]):
        target = out[..., :, j]
        for i in range(a.shape[-1]):
            np.multiply(a[..., :, i], b[..., i, j, np.newaxis], out=col)
            target += col


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


def cholesky_upper_batch(a):
    """Upper-triangular U with U^H U = a and a real positive diagonal, of
    every item of a Hermitian positive definite (..., n, n) stack. Internal.

    U = sqrt(D) L^H from the pivots and columns of :func:`_ldl_batch`,
    formed entry by entry over the stack; for each item it is the
    reversed-index Cholesky factor. Raises NotPD as :func:`_ldl_batch` does.
    """
    d, ell = _ldl_batch(a)
    root = np.sqrt(d)
    u = np.zeros(a.shape, dtype=np.complex128)
    for j in range(a.shape[-1]):
        u[..., j, j] = root[..., j]
        if j < len(ell):
            np.multiply(ell[j].conj(), root[..., j, np.newaxis], out=u[..., j, j + 1:])
    return u


def left_nullspace_basis_batch(a):
    """(..., m, m - n) orthonormal bases of the complements of a full-rank
    (..., m, n) stack's column spaces, by complete QR. Internal.

    The library builds complements with :func:`project_off`; this is kept
    only because the benchmark's tracer in ``perfbench/`` binds it. Raises
    RankDeficient under the rank floor, of the stack scaled exactly as in
    :func:`thin_qr_batch`, and for non-finite input.
    """
    a, total, _ = _square_safe(a)
    n = a.shape[-1]
    q, r = np.linalg.qr(a, mode="complete")
    d = np.diagonal(r[..., :n, :], axis1=-2, axis2=-1)
    floor = RANK_FLOOR * np.sqrt(total)
    if not np.all(np.abs(d) > floor[..., np.newaxis]):
        raise RankDeficient(f"column rank below the {RANK_FLOOR:g} relative floor")
    return q[..., n:]


def logdet_hermitian_batch(a):
    """log2 det of every item of a Hermitian positive definite (..., n, n)
    stack: the sum of the log2 pivots of :func:`_ldl_batch`, never a
    determinant expansion. Internal. Raises NotPD, before any log, as
    :func:`_ldl_batch` does.
    """
    return np.sum(np.log2(_ldl_batch(a)[0]), axis=-1)


def _ldl_batch(a):
    """Square-root-free a = L D L^H of every item of a (..., n, n) stack.

    Returns the (..., n) pivots d and, for each of the first n - 1 columns
    j, the (..., n - 1 - j) entries of unit-lower L below its diagonal.
    Each step takes the pivot d_j and replaces the trailing block by its
    Schur complement, A22 - a21 a21^H / d_j, for the whole stack at once;
    only the lower triangle and the real part of the diagonal are read.
    The column is divided by the real pivot part by part: numpy's complex
    division would multiply by 1/d_j, which is infinite for a subnormal
    pivot. Raises NotPD if any pivot of the stack lies outside (0, inf):
    a NaN or infinite entry, or a Schur complement that overflows, reaches
    the diagonal and ends in a NaN or infinite pivot.
    """
    n = a.shape[-1]
    d = np.empty(a.shape[:-1])
    ell = []
    s = a
    with np.errstate(all="ignore"):
        for j in range(n - 1):
            d[..., j] = s[..., 0, 0].real
            col = s[..., 1:, 0]
            pivot = d[..., j, np.newaxis]
            ell.append(np.empty(col.shape, dtype=np.complex128))
            np.divide(col.real, pivot, out=ell[j].real)
            np.divide(col.imag, pivot, out=ell[j].imag)
            s = s[..., 1:, 1:] - ell[j][..., :, np.newaxis] * col.conj()[..., np.newaxis, :]
        d[..., n - 1] = s[..., 0, 0].real
    if not np.all((d > 0.0) & (d < np.inf)):
        raise NotPD("matrix is not positive definite")
    return d, ell
