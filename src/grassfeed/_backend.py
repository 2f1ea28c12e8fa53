"""The engine's hot kernels, in numpy.

* ``orthonormalize(a)``: thin-QR Q factors (positive-diagonal R convention)
  of a stack of matrices.
* ``scan_frames(hq, frames)``: argmin chordal d^2 of one frame against a
  stack of frames, lowest index on ties.
* ``quantize_gaussians(hq, gauss)``: fused per-trial codebook
  orthonormalization and scan, returning the winning index, d^2 and frame.

``quantize_gaussians`` runs no QR per codebook entry. It scores every entry
from its Gram matrix A = G^H G and B = hq^H G, takes the best score per
trial and orthonormalizes only the T winners, whose d^2 and frame are then
bit-identical to orthonormalizing every entry. A chunk with an entry near
the rank floor, where the Gram is too coarse, takes that exact path
instead, and so does every trial whose two best scores nearly tie.
"""

import numpy as np

from .linalg import sumsq, thin_qr_batch

__all__ = ["BACKEND", "orthonormalize", "scan_frames", "quantize_gaussians"]

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


def _gram_scores(hq, gauss):
    """||hq^H Q||_F^2 of every entry, Q = orth(G), without a QR.

    With A = G^H G = R^H R and B = hq^H G the score is ||B R^-1||_F^2. None
    when some entry's trace or pivot r_jj^2 leaves the range where the Gram
    is accurate enough to rank entries.
    """
    t, c, m, n = gauss.shape
    cols = [gauss[..., j] for j in range(n)]
    with np.errstate(over="ignore"):
        diag = [sumsq(col) for col in cols]
    trace = sum(diag)
    if not np.all((trace >= _TRACE_RANGE[0]) & (trace <= _TRACE_RANGE[1])):
        return None
    # B^T of a trial's (C, m*n) entries is one product with kron(conj(hq), I_n)
    kron = np.einsum("tmn,pq->tmpqn", hq.conj(), np.eye(n)).reshape(t, m * n, n * n)
    bt = np.matmul(gauss.reshape(t, c, m * n), kron).reshape(t, c, n, n)
    # square-root-free Cholesky A = U^H D U (unit upper U, D the pivots
    # r_jj^2) and Y = B U^-1, column by column: ||B R^-1||^2 = sum ||y_j||^2 / d_j
    u = [[None] * n for _ in range(n)]
    d, y = [], []
    score = np.zeros((t, c))
    for j in range(n):
        pivot, yj = diag[j], bt[..., j, :]
        for i in range(j):
            s = np.einsum("tcm,tcm->tc", cols[i].conj(), cols[j])
            for k in range(i):
                s -= u[k][i].conj() * d[k] * u[k][j]
            u[i][j] = s / d[i]
            pivot = pivot - d[i] * (u[i][j].real ** 2 + u[i][j].imag ** 2)
            yj = yj - y[i] * u[i][j][..., np.newaxis]
        if not np.all(pivot > _PIVOT_MARGIN * trace):
            return None
        d.append(pivot)
        y.append(yj)
        score += sumsq(yj) / pivot
    return score


def quantize_gaussians(hq, gauss):
    """Fused codebook orthonormalization and nearest-frame scan.

    hq: (T, m, n) orthonormal channel stack. gauss: (T, C, m, n) Gaussian
    draws, one fresh C-entry codebook per trial. Returns (idx, d2, qwin).
    Raises RankDeficient if any entry is under the rank floor.

    Entries are scored by Gram matrix and only the winners are
    orthonormalized; near the rank floor every entry gets a QR instead.
    """
    hq = np.ascontiguousarray(hq, dtype=np.complex128)
    gauss = np.ascontiguousarray(gauss, dtype=np.complex128)
    # a one-entry codebook is its own winner: nothing to score
    score = _gram_scores(hq, gauss) if gauss.shape[1] > 1 else None
    if score is None:
        return _scan_np(hq, thin_qr_batch(gauss)[0])
    rows = np.arange(score.shape[0])
    idx = np.argmax(score, axis=1)
    best = score[rows, idx]
    score[rows, idx] = -np.inf
    # near-ties resolve as the exact scan resolves them, lowest index first
    near = ~(best - np.max(score, axis=1) > _TIE_GAP)
    if np.any(near):
        idx[near] = _scan_np(hq[near], thin_qr_batch(gauss[near])[0])[0]
    win = np.take_along_axis(gauss, idx[:, np.newaxis, np.newaxis, np.newaxis], axis=1)
    _, d2, qwin = _scan_np(hq, thin_qr_batch(win)[0])
    return idx.astype(np.int64), d2, qwin
