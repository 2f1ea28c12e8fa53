"""The engine's hot kernels, in numpy.

* ``orthonormalize(a)``: thin-QR Q factors (positive-diagonal R convention)
  of a stack of matrices.
* ``scan_frames(hq, frames)``: argmin chordal d^2 of one frame against a
  stack of frames, lowest index on ties.
* ``quantize_planes(hq, planes, scratch)``: fused per-trial codebook
  orthonormalization and scan, returning the winning index, d^2 and frame.
  The codebooks come as planes: a (T, 2, m, n, C) float64 array holding
  the real and then the imaginary parts of every entry, with the entry
  index innermost. ``quantize_gaussians(hq, gauss)`` is the same scan of
  complex (T, C, m, n) codebooks, copied into planes first.

The scan runs no QR per codebook entry. It scores every entry from its
Gram matrix A = G^H G and B = hq^H G, takes the best score per trial and
orthonormalizes only the T winners, whose d^2 and frame are then
bit-identical to orthonormalizing every entry. On planes, B of a trial's
C entries is one real matrix product, and A and the LDL^H factorization
run on real and imaginary (T, C) arrays, so every step reads contiguous
vectors over the entries. A chunk with an entry near the rank floor,
where the Gram is too coarse, takes the exact path instead, and so does
every trial whose two best scores nearly tie; both rebuild the complex
entries from the planes, which is exact.
"""

import numpy as np

from .linalg import thin_qr_batch

__all__ = ["BACKEND", "orthonormalize", "scan_frames", "quantize_planes", "quantize_gaussians"]

BACKEND = "python"
"""Always ``"python"``; kept only for the benchmark's environment record."""

# The Gram squares the condition number, so it ranks entries only well away
# from the rank floor: a pivot r_jj^2 at or below _PIVOT_MARGIN ||G||_F^2
# (score error about 5e-9 there), or ||G||_F^2 outside _TRACE_RANGE, sends
# the chunk down the exact path, which checks the floor itself. Trials whose
# two best scores are within _TIE_GAP are rescanned exactly.
_PIVOT_MARGIN = 1e-8
_TRACE_RANGE = (1e-300, 1e250)
_TIE_GAP = 1e-6


def _scan_np(hq, w):
    """(idx, d2, winner) of each (C, m, n) codebook w[t] against its frame hq[t]."""
    n = hq.shape[-1]
    g = np.einsum("tmn,tcmp->tcnp", hq.conj(), w)
    d2 = n - np.sum(np.abs(g) ** 2, axis=(-2, -1))
    idx = np.argmin(d2, axis=1)
    d2min = np.take_along_axis(d2, idx[:, np.newaxis], axis=1)[:, 0]
    qwin = np.take_along_axis(w, idx[:, np.newaxis, np.newaxis, np.newaxis], axis=1)[:, 0]
    return idx.astype(np.int64), d2min, qwin


def orthonormalize(a):
    """Positive-diagonal thin-QR Q factors of a (..., m, n) stack."""
    return thin_qr_batch(np.ascontiguousarray(a, dtype=np.complex128))[0]


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


def quantize_gaussians(hq, gauss):
    """:func:`quantize_planes` of complex (T, C, m, n) codebooks.

    A one-entry codebook is its own winner: it is orthonormalized and
    scanned as it is, with nothing to score.
    """
    hq = np.ascontiguousarray(hq, dtype=np.complex128)
    gauss = np.ascontiguousarray(gauss, dtype=np.complex128)
    t, c, m, n = gauss.shape
    if c == 1:
        return _scan_np(hq, thin_qr_batch(gauss)[0])
    planes = np.empty((t, 2, m, n, c))
    planes[:, 0] = gauss.real.transpose(0, 2, 3, 1)
    planes[:, 1] = gauss.imag.transpose(0, 2, 3, 1)
    return quantize_planes(hq, planes, np.empty(planes[:, 0].size))
