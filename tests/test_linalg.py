import numpy as np
import pytest

from grassfeed.errors import (
    DimensionError,
    NotHermitian,
    NotPD,
    NotPSD,
    RankDeficient,
)
from grassfeed.linalg import (
    cholesky_upper,
    cholesky_upper_batch,
    hermitian_eig,
    left_nullspace_basis,
    left_nullspace_basis_batch,
    logdet_hermitian,
    logdet_hermitian_batch,
    thin_qr,
    thin_qr_batch,
)


def _complex_gaussian(rng, m, n):
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) * np.sqrt(0.5)


class TestThinQr:
    def test_identity(self):
        q, r = thin_qr(np.eye(2, dtype=complex))
        np.testing.assert_allclose(q, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(r, np.eye(2), atol=1e-14)

    def test_column_scaling(self):
        a = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 3.0]], dtype=complex)
        q, r = thin_qr(a)
        np.testing.assert_allclose(q, [[1, 0], [0, 0], [0, 1]], atol=1e-14)
        np.testing.assert_allclose(r, np.diag([2.0, 3.0]), atol=1e-14)

    def test_random_reconstruction(self):
        """1000 Gaussian draws per shape: orthonormal Q, positive real
        diagonal of R, and Q R = A to 1e-10 relative."""
        rng = np.random.default_rng(7)
        for m, n in ((4, 2), (6, 2), (8, 2), (6, 3)):
            for _ in range(250):
                a = _complex_gaussian(rng, m, n)
                q, r = thin_qr(a)
                scale = np.linalg.norm(a)
                assert np.linalg.norm(q.conj().T @ q - np.eye(n)) <= 1e-10
                assert np.linalg.norm(q @ r - a) <= 1e-10 * scale
                d = np.diagonal(r)
                assert np.all(d.imag == 0.0)
                assert np.all(d.real > 0.0)
                assert np.allclose(r, np.triu(r))

    def test_rank_deficient(self):
        a = np.ones((4, 2), dtype=complex)  # duplicated columns
        with pytest.raises(RankDeficient):
            thin_qr(a)

    def test_wide_rejected(self):
        with pytest.raises(DimensionError):
            thin_qr(np.ones((2, 4), dtype=complex))


class TestHermitianEig:
    def test_identity(self):
        w, v = hermitian_eig(np.eye(2, dtype=complex))
        np.testing.assert_allclose(w, [1.0, 1.0])
        assert np.linalg.norm(v.conj().T @ v - np.eye(2)) <= 1e-12

    def test_diagonal_sorted_ascending(self):
        w, _ = hermitian_eig(np.diag([0.7, 0.2]).astype(complex))
        np.testing.assert_allclose(w, [0.2, 0.7])

    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            b = _complex_gaussian(rng, 4, 4)
            a = b.conj().T @ b
            w, v = hermitian_eig(a)
            err = np.linalg.norm(v @ np.diag(w) @ v.conj().T - a)
            assert err <= 1e-10 * max(np.linalg.norm(a), 1.0)
            assert np.all(np.diff(w) >= 0)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


class TestCholeskyUpper:
    def test_identity(self):
        np.testing.assert_allclose(cholesky_upper(np.eye(2, dtype=complex)), np.eye(2), atol=1e-14)

    def test_diagonal(self):
        u = cholesky_upper(np.diag([4.0, 9.0]).astype(complex))
        np.testing.assert_allclose(u, np.diag([2.0, 3.0]), atol=1e-14)

    def test_zero_matrix(self):
        u = cholesky_upper(np.zeros((3, 3), dtype=complex))
        np.testing.assert_allclose(u, 0.0, atol=1e-14)

    def test_random_psd_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            b = _complex_gaussian(rng, 3, 3)
            a = b.conj().T @ b
            u = cholesky_upper(a)
            assert np.linalg.norm(u.conj().T @ u - a) <= 1e-10 * np.linalg.norm(a)
            assert np.allclose(u, np.triu(u))
            d = np.diagonal(u)
            assert np.all(d.imag == 0.0) and np.all(d.real >= 0.0)

    def test_roundoff_negative_clamped(self):
        # I - Z^H Z can round to a tiny negative eigenvalue at large B
        a = np.diag([1.0, -1e-13]).astype(complex)
        u = cholesky_upper(a)
        assert np.linalg.norm(u.conj().T @ u - np.diag([1.0, 0.0])) <= 1e-10

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            cholesky_upper(np.diag([1.0, -1e-6]).astype(complex))

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            cholesky_upper(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


class TestLeftNullspaceBasis:
    def test_identity_columns(self):
        a = np.eye(4, dtype=complex)[:, :2]
        b = left_nullspace_basis(a)
        proj = b @ b.conj().T
        expect = np.diag([0.0, 0.0, 1.0, 1.0])
        np.testing.assert_allclose(proj, expect, atol=1e-12)

    def test_random_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            a = _complex_gaussian(rng, 6, 4)
            b = left_nullspace_basis(a)
            assert b.shape == (6, 2)
            assert np.linalg.norm(b.conj().T @ a) <= 1e-10 * np.linalg.norm(a)
            assert np.linalg.norm(b.conj().T @ b - np.eye(2)) <= 1e-10

    def test_unitary_completion(self):
        """Q factor of A stacked beside the nullspace basis is unitary."""
        rng = np.random.default_rng(9)
        for _ in range(100):
            a = _complex_gaussian(rng, 6, 2)
            q, _ = thin_qr(a)
            b = left_nullspace_basis(a)
            u = np.concatenate([q, b], axis=1)
            assert np.linalg.norm(u.conj().T @ u - np.eye(6)) <= 1e-10

    def test_rank_deficient(self):
        a = np.ones((4, 2), dtype=complex)
        with pytest.raises(RankDeficient):
            left_nullspace_basis(a)


class TestLogdetHermitian:
    def test_identity(self):
        assert logdet_hermitian(np.eye(3, dtype=complex)) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal(self):
        assert logdet_hermitian(np.diag([2.0, 4.0]).astype(complex)) == pytest.approx(3.0, abs=1e-12)

    def test_rank_one_update(self):
        # det(I + v v^H) = 1 + |v|^2 = 4, so log2 = 2
        v = np.ones(3, dtype=complex)
        a = np.eye(3, dtype=complex) + np.outer(v, v.conj())
        assert logdet_hermitian(a) == pytest.approx(2.0, abs=1e-10)

    def test_scalar_scaling(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            b = _complex_gaussian(rng, 3, 3)
            a = b.conj().T @ b + np.eye(3)
            c = float(rng.uniform(0.5, 4.0))
            lhs = logdet_hermitian(c * a)
            rhs = logdet_hermitian(a) + 3 * np.log2(c)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_not_pd(self):
        with pytest.raises(NotPD):
            logdet_hermitian(np.diag([1.0, 0.0]).astype(complex))


class TestBatchKernels:
    """The *_batch kernels the engine runs, on stacks with bad items."""

    def test_thin_qr_batch_matches_scalar(self):
        rng = np.random.default_rng(17)
        a = np.stack([_complex_gaussian(rng, 6, 2) for _ in range(20)])
        q, r = thin_qr_batch(a)
        for i in range(20):
            qi, ri = thin_qr(a[i])
            np.testing.assert_array_equal(q[i], qi)
            np.testing.assert_array_equal(r[i], ri)

    def test_thin_qr_batch_nan_is_rank_deficient(self):
        a = np.zeros((3, 4, 2), dtype=complex)
        a[:] = np.eye(4)[:, :2]
        a[1, 0, 0] = np.nan
        with pytest.raises(RankDeficient):
            thin_qr_batch(a)

    def test_cholesky_psd_items(self):
        """One PSD item sends the stack through the clamped path: a zero
        matrix factors to 0, the identity to I, and a PD item still
        round-trips."""
        rng = np.random.default_rng(19)
        b = _complex_gaussian(rng, 2, 2)
        a = np.stack([np.zeros((2, 2)), np.eye(2), b.conj().T @ b, np.diag([1.0, -1e-13])]).astype(complex)
        clamped = a.copy()
        clamped[3, 1, 1] = 0.0
        u = cholesky_upper_batch(a)
        np.testing.assert_array_equal(u[0], 0.0)
        np.testing.assert_allclose(u[1], np.eye(2), atol=1e-15)
        for i in range(4):
            assert np.linalg.norm(u[i].conj().T @ u[i] - clamped[i]) <= 1e-10 * max(np.linalg.norm(a[i]), 1)
            assert np.allclose(u[i], np.triu(u[i]))
            d = np.diagonal(u[i])
            assert np.all(d.imag == 0.0) and np.all(d.real >= 0.0)

    def test_cholesky_pd_stack_takes_plain_cholesky(self):
        rng = np.random.default_rng(20)
        b = np.stack([_complex_gaussian(rng, 3, 3) for _ in range(10)])
        a = b.conj().swapaxes(-2, -1) @ b
        expect = np.swapaxes(np.linalg.cholesky(np.swapaxes(a, -2, -1)), -2, -1)
        np.testing.assert_array_equal(cholesky_upper_batch(a), expect)

    def test_cholesky_not_psd_item(self):
        a = np.stack([np.eye(2), np.diag([1.0, -1e-6])]).astype(complex)
        with pytest.raises(NotPSD):
            cholesky_upper_batch(a)

    def test_logdet_not_pd_item(self):
        a = np.stack([np.eye(2), np.diag([1.0, 0.0])]).astype(complex)
        with pytest.raises(NotPD):
            logdet_hermitian_batch(a)

    def test_nullspace_rank_deficient_item(self):
        rng = np.random.default_rng(21)
        a = np.stack([_complex_gaussian(rng, 4, 2), np.ones((4, 2), dtype=complex)])
        with pytest.raises(RankDeficient):
            left_nullspace_basis_batch(a)
