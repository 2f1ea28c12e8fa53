"""Backend selection for the hot kernels.

Two implementations of the same three contracts:

* ``orthonormalize(a)``: thin-QR Q factors (positive-diagonal R convention)
  of a stack of matrices.
* ``scan_frames(hq, frames)``: argmin chordal d^2 of one frame against a
  stack of frames, lowest index on ties.
* ``quantize_gaussians(hq, gauss)``: fused per-trial codebook
  orthonormalization and scan, returning the winning index, d^2 and frame.

The compiled module is used when importable; ``GRASSFEED_BACKEND=python``
forces the numpy path and ``GRASSFEED_BACKEND=compiled`` makes a missing
extension an error instead of a silent fallback. Both backends compute the
same function: thin QR with a positive real R diagonal is unique for
full-rank input, so results differ only in rounding.
"""

import os

import numpy as np

from .errors import ParameterError, RankDeficient
from .linalg import RANK_FLOOR, thin_qr_batch

__all__ = ["BACKEND", "orthonormalize", "scan_frames", "quantize_gaussians"]

try:
    from . import _kernels
except ImportError:
    _kernels = None

_choice = os.environ.get("GRASSFEED_BACKEND", "").strip().lower()
if _choice == "compiled" and _kernels is None:
    raise ImportError("GRASSFEED_BACKEND=compiled but grassfeed._kernels is not built")
if _choice not in ("", "python", "compiled"):
    raise ParameterError(f"GRASSFEED_BACKEND must be 'python' or 'compiled', got {_choice!r}")

_use_compiled = _kernels is not None and _choice != "python"
BACKEND = "compiled" if _use_compiled else "python"


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
    a = np.ascontiguousarray(a, dtype=np.complex128)
    if not _use_compiled:
        return thin_qr_batch(a)[0]
    try:
        q = _kernels.orthonormalize_batch(a.reshape((-1,) + a.shape[-2:]), RANK_FLOOR)
    except ValueError as exc:
        raise RankDeficient(str(exc)) from exc
    return q.reshape(a.shape)


def scan_frames(hq, frames):
    """(index, d^2) of the chordal-nearest frame in a (C, m, n) stack."""
    hq = np.ascontiguousarray(hq, dtype=np.complex128)
    frames = np.ascontiguousarray(frames, dtype=np.complex128)
    if _use_compiled:
        return _kernels.scan_frames(hq, frames)
    idx, d2, _ = _scan_np(hq[np.newaxis], frames[np.newaxis])
    return int(idx[0]), float(d2[0])


def quantize_gaussians(hq, gauss):
    """Fused codebook orthonormalization and nearest-frame scan.

    hq: (T, m, n) orthonormal channel stack. gauss: (T, C, m, n) Gaussian
    draws, one fresh C-entry codebook per trial. Returns (idx, d2, qwin).
    """
    hq = np.ascontiguousarray(hq, dtype=np.complex128)
    gauss = np.ascontiguousarray(gauss, dtype=np.complex128)
    if _use_compiled:
        try:
            return _kernels.quantize_gaussians(hq, gauss, RANK_FLOOR)
        except ValueError as exc:
            raise RankDeficient(str(exc)) from exc
    return _scan_np(hq, thin_qr_batch(gauss)[0])
