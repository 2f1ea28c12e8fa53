"""Kernel contract tests: batched orthonormalization and the codebook scan.

Thin QR with a positive real diagonal is unique for full-rank input, so
the kernels are compared with per-matrix references at rounding-level
tolerance, not just statistically. The scan that orthonormalizes every
explicit entry is the benchmark's complex-codebook alias in ``_backend``;
the engine's fresh-codebook scan is checked against explicit codebooks in
``test_grassmann``.
"""

import numpy as np
import pytest

from grassfeed import _backend, grassmann
from grassfeed.errors import RankDeficient
from grassfeed.grassmann import Codebook, chordal_distance_sq, quantize
from grassfeed.linalg import RANK_FLOOR, orthonormalize
from tests.test_linalg import QR_SHAPES, _positive_qr_reference, assert_positive_qr


def _gauss(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(0.5)


@pytest.mark.parametrize("m,n", QR_SHAPES)
def test_orthonormalize_matches_thin_qr(m, n):
    rng = np.random.default_rng(21 + 10 * m + n)
    a = _gauss(rng, 64, m, n)
    q = orthonormalize(a)
    for i in range(a.shape[0]):
        assert np.linalg.norm(q[i] - _positive_qr_reference(a[i])[0]) <= 1e-10


def _conditioned(rng, t, m, n, cond):
    """(t, m, n) stack U diag(s) W^H whose singular values s run from 1 down
    to 1/cond, with U (m, n) orthonormal and W (n, n) unitary."""
    u = np.linalg.qr(_gauss(rng, t, m, n))[0]
    w = np.linalg.qr(_gauss(rng, t, n, n))[0]
    s = np.logspace(0.0, -np.log10(cond), n)
    return (u * s) @ np.swapaxes(w, -2, -1).conj()


@pytest.mark.parametrize("cond", [1e2, 1e6, 1e10])
@pytest.mark.parametrize("m,n", QR_SHAPES)
def test_thin_qr_ill_conditioned(m, n, cond):
    """Two passes of Gram-Schmidt keep Q orthonormal, Q^H A upper
    triangular with a positive diagonal and Q Q^H A = A at rounding level
    however far the columns are from orthogonal, short of the floor."""
    rng = np.random.default_rng(27 + 10 * m + n)
    a = _conditioned(rng, 64, m, n, cond)
    q = orthonormalize(a)
    assert np.abs(q.conj().swapaxes(-2, -1) @ q - np.eye(n)).max() <= 1e-10
    assert_positive_qr(q, a)


@pytest.mark.parametrize("factor,ok", [(1.5, True), (0.6, False)])
def test_thin_qr_rank_floor_edge(factor, ok):
    """A second column whose residual R_22 = (Q^H A)_22 sits just above
    (passes) or just below (raises) RANK_FLOOR * ||a||_F."""
    rng = np.random.default_rng(28)
    u = np.linalg.qr(_gauss(rng, 6, 2))[0]
    delta = factor * RANK_FLOOR * np.sqrt(2.0)
    a = u @ np.array([[1.0, 1.0], [0.0, delta]])
    if ok:
        q = orthonormalize(a[np.newaxis])[0]
        assert abs((q.conj().T @ a)[1, 1] - delta) <= 1e-3 * delta
    else:
        with pytest.raises(RankDeficient):
            orthonormalize(a[np.newaxis])


def test_orthonormalize_high_rank_batch_shape():
    rng = np.random.default_rng(22)
    a = _gauss(rng, 3, 5, 4, 2)
    q = orthonormalize(a)
    assert q.shape == a.shape
    gram = np.einsum("...mi,...mj->...ij", q.conj(), q)
    assert np.abs(gram - np.eye(2)).max() <= 1e-10


def test_scan_frames_brute_force_oracle():
    """quantize agrees with an index-by-index chordal-distance scan of its
    codebook."""
    rng = np.random.default_rng(23)
    for _ in range(50):
        hq = orthonormalize(_gauss(rng, 4, 2))
        frames = orthonormalize(_gauss(rng, 16, 4, 2))
        got = quantize(hq, Codebook(4, 2, 4, frames))
        dists = [chordal_distance_sq(hq, frames[c]) for c in range(16)]
        assert got.index == int(np.argmin(dists))
        assert got.d2 == pytest.approx(min(dists), abs=1e-12)
        np.testing.assert_array_equal(got.entry, frames[got.index])


def _scan_one(hq, frames):
    """(index, d^2) of the chordal-nearest of a (C, m, n) frame stack."""
    idx, d2, _ = grassmann._scan_np(hq[np.newaxis], frames[np.newaxis])
    return int(idx[0]), float(d2[0])


def test_scan_frames_tie_breaks_low_index():
    rng = np.random.default_rng(24)
    hq = orthonormalize(_gauss(rng, 4, 2))
    frames = orthonormalize(_gauss(rng, 8, 4, 2))
    winner, _ = _scan_one(hq, frames)
    dup = np.concatenate([frames[:2], frames[winner:winner + 1], frames], axis=0)
    idx, _ = _scan_one(hq, dup)
    assert idx == 2  # the first copy of the winning frame


def test_quantize_gaussians_composes():
    """The complex-codebook alias orthonormalizes every entry and scans them."""
    rng = np.random.default_rng(25)
    hq = orthonormalize(_gauss(rng, 8, 4, 2))
    gauss = _gauss(rng, 8, 32, 4, 2)
    idx, d2, qwin = _backend.quantize_gaussians(hq, gauss)
    for t in range(8):
        frames = orthonormalize(gauss[t])
        i_ref, d_ref = _scan_one(hq[t], frames)
        assert idx[t] == i_ref
        assert d2[t] == pytest.approx(d_ref, abs=1e-12)
        assert np.linalg.norm(qwin[t] - frames[i_ref]) <= 1e-10


def _exact_scan(hq, gauss):
    """The scan with one QR per codebook entry."""
    return grassmann._scan_np(hq, orthonormalize(gauss))


def _assert_same_scan(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[2], want[2])


class TestGramScan:
    """The benchmark's complex-codebook alias is the QR-per-entry scan of
    explicit entries."""

    @pytest.mark.parametrize("m,n,c", [(4, 2, 256), (8, 1, 64), (6, 3, 32), (6, 2, 1)])
    def test_matches_exact_scan(self, m, n, c):
        rng = np.random.default_rng(40 + m + n)
        hq = orthonormalize(_gauss(rng, 64, m, n))
        gauss = _gauss(rng, 64, c, m, n)
        _assert_same_scan(_backend.quantize_gaussians(hq, gauss), _exact_scan(hq, gauss))

    @pytest.mark.parametrize("eps", [1e-3, 1e-5])
    def test_ill_conditioned_entries(self, eps):
        """Near-parallel columns: the alias agrees bit for bit with the
        exact scan, whose QR handles them."""
        rng = np.random.default_rng(41)
        hq = orthonormalize(_gauss(rng, 32, 4, 2))
        gauss = _gauss(rng, 32, 64, 4, 2)
        gauss[:, ::2, :, 1] = gauss[:, ::2, :, 0] + eps * gauss[:, ::2, :, 1]
        _assert_same_scan(_backend.quantize_gaussians(hq, gauss), _exact_scan(hq, gauss))

    @pytest.mark.parametrize("scale", [1e-160, 1e150])
    def test_extreme_scales(self, scale):
        """Entries whose squares would underflow or overflow scan exactly."""
        rng = np.random.default_rng(45)
        hq = orthonormalize(_gauss(rng, 16, 4, 2))
        gauss = _gauss(rng, 16, 32, 4, 2)
        want = _exact_scan(hq, gauss)
        got = _backend.quantize_gaussians(hq, scale * gauss)
        assert np.array_equal(got[0], want[0])
        assert np.abs(got[1] - want[1]).max() <= 1e-12

    @pytest.mark.parametrize("defect", ["parallel", "zero", "nan"])
    def test_rank_deficient_loser_raises(self, defect):
        """Entry 0 of trial 3 equals the channel (d^2 = 0, a sure winner);
        the defective entry 5 can never win, yet the alias's QR still
        rank-checks it."""
        rng = np.random.default_rng(42)
        hq = orthonormalize(_gauss(rng, 8, 4, 2))
        gauss = _gauss(rng, 8, 16, 4, 2)
        gauss[3, 0] = hq[3]
        bad = gauss[3, 5]
        if defect == "parallel":
            bad[:, 1] = 2.0 * bad[:, 0]
        elif defect == "zero":
            bad[:, 1] = 0.0
        else:
            bad[1, 1] = np.nan
        with pytest.raises(RankDeficient):
            _backend.quantize_gaussians(hq, gauss)

    @pytest.mark.parametrize("copy", ["exact", "rotated"])
    def test_tie_resolves_as_exact_scan(self, copy):
        """A copy of each trial's winning Gaussian is inserted at index 1.
        An exact copy ties and resolves to the lower index. A copy rotated
        by a unitary spans the same plane, so its d^2 differs from the
        original's by rounding alone; the alias is still the exact scan."""
        rng = np.random.default_rng(43)
        hq = orthonormalize(_gauss(rng, 64, 4, 2))
        gauss = _gauss(rng, 64, 32, 4, 2)
        first = _exact_scan(hq, gauss)[0]
        win = gauss[np.arange(64), first]
        if copy == "rotated":
            win = win @ orthonormalize(_gauss(rng, 64, 2, 2))
        dup = np.concatenate([gauss[:, :1], win[:, np.newaxis], gauss[:, 1:]], axis=1)
        got = _backend.quantize_gaussians(hq, dup)
        _assert_same_scan(got, _exact_scan(hq, dup))
        if copy == "exact":
            assert np.array_equal(got[0], np.where(first == 0, 0, 1))
