"""Backend contract tests.

The compiled kernels and the numpy fallback must compute the same
function; thin QR with a positive real diagonal is unique for full-rank
input, so outputs are compared at rounding-level tolerance, not just
statistically.
"""

import numpy as np
import pytest

from grassfeed import _backend
from grassfeed.errors import RankDeficient
from grassfeed.grassmann import chordal_distance_sq
from grassfeed.linalg import thin_qr_batch

_HAS_COMPILED = _backend._kernels is not None


def _gauss(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(0.5)


def _positive_qr_reference(a):
    """Per-matrix numpy QR with each column's phase turned so R_jj > 0."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def test_orthonormalize_matches_thin_qr():
    rng = np.random.default_rng(21)
    a = _gauss(rng, 64, 6, 2)
    q = _backend.orthonormalize(a)
    for i in range(a.shape[0]):
        assert np.linalg.norm(q[i] - _positive_qr_reference(a[i])) <= 1e-10


def test_orthonormalize_high_rank_batch_shape():
    rng = np.random.default_rng(22)
    a = _gauss(rng, 3, 5, 4, 2)
    q = _backend.orthonormalize(a)
    assert q.shape == a.shape
    gram = np.einsum("...mi,...mj->...ij", q.conj(), q)
    assert np.abs(gram - np.eye(2)).max() <= 1e-10


def test_orthonormalize_rank_deficient():
    a = np.ones((4, 4, 2), dtype=complex)
    with pytest.raises(RankDeficient):
        _backend.orthonormalize(a)


def test_scan_frames_brute_force_oracle():
    """Backend scan agrees with an index-by-index chordal-distance scan."""
    rng = np.random.default_rng(23)
    for _ in range(50):
        hq = _backend.orthonormalize(_gauss(rng, 4, 2))
        frames = _backend.orthonormalize(_gauss(rng, 16, 4, 2))
        idx, d2 = _backend.scan_frames(hq, frames)
        dists = [chordal_distance_sq(hq, frames[c]) for c in range(16)]
        assert idx == int(np.argmin(dists))
        assert d2 == pytest.approx(min(dists), abs=1e-12)


def test_scan_frames_tie_breaks_low_index():
    rng = np.random.default_rng(24)
    hq = _backend.orthonormalize(_gauss(rng, 4, 2))
    frames = _backend.orthonormalize(_gauss(rng, 8, 4, 2))
    winner, _ = _backend.scan_frames(hq, frames)
    dup = np.concatenate([frames[:2], frames[winner:winner + 1], frames], axis=0)
    idx, _ = _backend.scan_frames(hq, dup)
    assert idx == 2  # the first copy of the winning frame

def test_quantize_gaussians_composes():
    rng = np.random.default_rng(25)
    hq = _backend.orthonormalize(_gauss(rng, 8, 4, 2))
    gauss = _gauss(rng, 8, 32, 4, 2)
    idx, d2, qwin = _backend.quantize_gaussians(hq, gauss)
    for t in range(8):
        frames = _backend.orthonormalize(gauss[t])
        i_ref, d_ref = _backend.scan_frames(hq[t], frames)
        assert idx[t] == i_ref
        assert d2[t] == pytest.approx(d_ref, abs=1e-12)
        assert np.linalg.norm(qwin[t] - frames[i_ref]) <= 1e-10


@pytest.mark.skipif(not _HAS_COMPILED, reason="compiled kernels not built")
class TestCompiledParity:
    """Compiled results equal the numpy fallback at rounding level."""

    def test_orthonormalize(self):
        rng = np.random.default_rng(31)
        a = _gauss(rng, 128, 6, 2)
        qc = _backend._kernels.orthonormalize_batch(
            np.ascontiguousarray(a), _backend.RANK_FLOOR
        )
        qn = thin_qr_batch(a)[0]
        assert np.abs(qc - qn).max() <= 1e-12

    def test_scan_frames(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            hq = thin_qr_batch(_gauss(rng, 4, 2))[0]
            frames = thin_qr_batch(_gauss(rng, 64, 4, 2))[0]
            ic, dc = _backend._kernels.scan_frames(
                np.ascontiguousarray(hq), np.ascontiguousarray(frames)
            )
            i_np, d_np, _ = _backend._scan_np(hq[np.newaxis], frames[np.newaxis])
            assert ic == i_np[0]
            assert dc == pytest.approx(d_np[0], abs=1e-12)

    def test_quantize_gaussians(self):
        rng = np.random.default_rng(33)
        hq = thin_qr_batch(_gauss(rng, 32, 4, 2))[0]
        gauss = _gauss(rng, 32, 16, 4, 2)
        ic, dc, qc = _backend._kernels.quantize_gaussians(
            np.ascontiguousarray(hq), np.ascontiguousarray(gauss), _backend.RANK_FLOOR
        )
        i_np, d_np, q_np = _backend._scan_np(hq, thin_qr_batch(gauss)[0])
        assert np.array_equal(ic, i_np)
        assert np.abs(dc - d_np).max() <= 1e-12
        assert np.abs(qc - q_np).max() <= 1e-12
