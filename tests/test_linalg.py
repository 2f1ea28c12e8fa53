import warnings

import numpy as np
import pytest

from grassfeed.errors import DimensionError, NotPD, RankDeficient
from grassfeed.linalg import (
    cholesky_upper_batch,
    gram_rows,
    left_nullspace_basis_batch,
    logdet_hermitian_batch,
    orthonormalize,
    project_off,
    sumsq,
)


def _complex_gaussian(rng, m, n):
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) * np.sqrt(0.5)


def _one(kernel, a):
    """A batch kernel's result for one matrix, run as a one-item stack."""
    return kernel(np.asarray(a, dtype=complex)[np.newaxis])[0]


QR_SHAPES = [(6, 2), (4, 2), (8, 1), (6, 3), (2, 2)]


def _positive_qr_reference(a):
    """Per-matrix numpy (Q, R) with each column's phase turned so R_jj > 0."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    phase = d / np.abs(d)
    return q * phase, r * phase.conj()[:, np.newaxis]


def assert_positive_qr(q, a, tol=1e-10):
    """Q of a (..., m, n) stack a is its positive-diagonal thin-QR factor:
    R = Q^H A is upper triangular to rounding with a real positive
    diagonal, and Q Q^H A = A. Tolerances are relative to each item's
    largest entry, so no entry is squared."""
    scale = np.abs(a).max(axis=(-2, -1), keepdims=True)
    r = q.conj().swapaxes(-2, -1) @ a
    assert np.all(np.abs(np.tril(r, -1)) <= tol * scale)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    assert np.all(np.abs(d.imag) <= tol * scale[..., 0]) and np.all(d.real > 0.0)
    assert np.all(np.abs(q @ r - a) <= tol * scale)


class TestThinQr:
    def test_identity(self):
        q = _one(orthonormalize, np.eye(2, dtype=complex))
        np.testing.assert_allclose(q, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(q.conj().T @ np.eye(2), np.eye(2), atol=1e-14)

    def test_column_scaling(self):
        a = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 3.0]], dtype=complex)
        q = _one(orthonormalize, a)
        np.testing.assert_allclose(q, [[1, 0], [0, 0], [0, 1]], atol=1e-14)
        np.testing.assert_allclose(q.conj().T @ a, np.diag([2.0, 3.0]), atol=1e-14)

    def test_rank_deficient(self):
        """Duplicated columns, in one item or in every item of a stack."""
        a = np.ones((4, 2), dtype=complex)
        with pytest.raises(RankDeficient):
            _one(orthonormalize, a)
        with pytest.raises(RankDeficient):
            orthonormalize(np.stack([a] * 4))

    def test_wide_rejected(self):
        """A wide item has no full column rank."""
        with pytest.raises(RankDeficient):
            _one(orthonormalize, _complex_gaussian(np.random.default_rng(8), 2, 4))

    def test_no_columns_rejected(self):
        with pytest.raises(DimensionError):
            _one(orthonormalize, np.zeros((3, 0)))


class TestCholeskyUpper:
    def test_identity(self):
        u = _one(cholesky_upper_batch, np.eye(2, dtype=complex))
        np.testing.assert_allclose(u, np.eye(2), atol=1e-14)

    def test_diagonal(self):
        u = _one(cholesky_upper_batch, np.diag([4.0, 9.0]).astype(complex))
        np.testing.assert_allclose(u, np.diag([2.0, 3.0]), atol=1e-14)

    def test_zero_matrix(self):
        """Nothing clamps a PSD input to a factor: the zero matrix is not PD."""
        with pytest.raises(NotPD):
            _one(cholesky_upper_batch, np.zeros((3, 3), dtype=complex))

    def test_random_psd_roundtrip(self):
        """Gram matrices of square Gaussians, PD with probability one."""
        rng = np.random.default_rng(3)
        for _ in range(200):
            b = _complex_gaussian(rng, 3, 3)
            a = b.conj().T @ b
            u = _one(cholesky_upper_batch, a)
            assert np.linalg.norm(u.conj().T @ u - a) <= 1e-10 * np.linalg.norm(a)
            assert np.allclose(u, np.triu(u))
            d = np.diagonal(u)
            assert np.all(d.imag == 0.0) and np.all(d.real > 0.0)

    def test_not_psd(self):
        with pytest.raises(NotPD):
            _one(cholesky_upper_batch, np.diag([1.0, -1e-6]).astype(complex))

    def test_not_hermitian(self):
        """Nothing checks symmetry: only the lower triangle and the real
        diagonal are read, so [[1, 1], [0, 1]] factors as the identity."""
        u = _one(cholesky_upper_batch, np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
        np.testing.assert_array_equal(u, np.eye(2))


class TestLeftNullspaceBasis:
    """The complete-QR nullspace basis, kept as a test oracle."""

    def test_identity_columns(self):
        a = np.eye(4, dtype=complex)[:, :2]
        b = left_nullspace_basis_batch(a)
        proj = b @ b.conj().T
        expect = np.diag([0.0, 0.0, 1.0, 1.0])
        np.testing.assert_allclose(proj, expect, atol=1e-12)

    def test_random_residual(self):
        rng = np.random.default_rng(5)
        a = np.stack([_complex_gaussian(rng, 6, 4) for _ in range(300)])
        b = left_nullspace_basis_batch(a)
        assert b.shape == (300, 6, 2)
        for bi, ai in zip(b, a):
            assert np.linalg.norm(bi.conj().T @ ai) <= 1e-10 * np.linalg.norm(ai)
            assert np.linalg.norm(bi.conj().T @ bi - np.eye(2)) <= 1e-10

    def test_unitary_completion(self):
        """Q factor of A stacked beside the nullspace basis is unitary."""
        rng = np.random.default_rng(9)
        for _ in range(100):
            a = _complex_gaussian(rng, 6, 2)
            q = _one(orthonormalize, a)
            b = left_nullspace_basis_batch(a)
            u = np.concatenate([q, b], axis=1)
            assert np.linalg.norm(u.conj().T @ u - np.eye(6)) <= 1e-10

    def test_rank_deficient(self):
        a = np.ones((4, 2), dtype=complex)
        with pytest.raises(RankDeficient):
            left_nullspace_basis_batch(a)


class TestLogdetHermitian:
    def test_identity(self):
        assert _one(logdet_hermitian_batch, np.eye(3, dtype=complex)) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal(self):
        a = np.diag([2.0, 4.0]).astype(complex)
        assert _one(logdet_hermitian_batch, a) == pytest.approx(3.0, abs=1e-12)

    def test_rank_one_update(self):
        # det(I + v v^H) = 1 + |v|^2 = 4, so log2 = 2
        v = np.ones(3, dtype=complex)
        a = np.eye(3, dtype=complex) + np.outer(v, v.conj())
        assert _one(logdet_hermitian_batch, a) == pytest.approx(2.0, abs=1e-10)

    def test_scalar_scaling(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            b = _complex_gaussian(rng, 3, 3)
            a = b.conj().T @ b + np.eye(3)
            c = float(rng.uniform(0.5, 4.0))
            lhs = _one(logdet_hermitian_batch, c * a)
            rhs = _one(logdet_hermitian_batch, a) + 3 * np.log2(c)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_not_pd(self):
        with pytest.raises(NotPD):
            _one(logdet_hermitian_batch, np.diag([1.0, 0.0]).astype(complex))

    @pytest.mark.parametrize("big", [1e200, 1e307])
    def test_large_entries_without_overflow(self, big):
        """The LDL^H pivots take no squares of entries, so entries far past
        1e154 neither warn nor overflow."""
        a = np.diag([big, 1.0]).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _one(logdet_hermitian_batch, a) == pytest.approx(np.log2(big), rel=1e-15)
            u = _one(cholesky_upper_batch, a)
            np.testing.assert_allclose(u, np.diag([np.sqrt(big), 1.0]), rtol=1e-15)

    def test_subnormal_pivots(self):
        """A subnormal pivot divides the column part by part; complex
        division would multiply by 1/d = inf and lose the factorization."""
        tiny = 1e-310
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _one(logdet_hermitian_batch, np.diag([tiny, tiny]).astype(complex)) == pytest.approx(
                2 * np.log2(tiny), rel=1e-15)
            a = np.array([[tiny, 0.1j * tiny], [-0.1j * tiny, tiny]])
            want = 2 * np.log2(tiny) + np.log2(0.99)
            assert _one(logdet_hermitian_batch, a) == pytest.approx(want, rel=1e-12)
            np.testing.assert_allclose(_one(cholesky_upper_batch, np.diag([tiny, tiny]).astype(complex)),
                                       np.diag([np.sqrt(tiny)] * 2), rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_batch_matches_slogdet(self, n):
        """The LDL^H pivots against LAPACK's slogdet on a (T, K, n, n)
        stack whose conditioning spans eight orders of magnitude."""
        rng = np.random.default_rng(40 + n)
        b = (rng.standard_normal((64, 3, n, n + 2)) + 1j * rng.standard_normal((64, 3, n, n + 2)))
        a = np.eye(n) + np.logspace(-4, 4, 64)[:, None, None, None] * (b @ b.conj().swapaxes(-2, -1))
        want = np.linalg.slogdet(a)[1] / np.log(2.0)
        got = logdet_hermitian_batch(a)
        assert got.shape == (64, 3)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestBatchKernels:
    """The *_batch kernels the engine runs, on stacks with bad items."""

    def test_thin_qr_batch_matches_scalar(self):
        """orthonormalize factors each item of a stack as it would alone,
        and each is its positive-diagonal Q."""
        rng = np.random.default_rng(17)
        a = np.stack([_complex_gaussian(rng, 6, 2) for _ in range(20)])
        q = orthonormalize(a)
        for i in range(20):
            np.testing.assert_array_equal(q[i], _one(orthonormalize, a[i]))
        assert_positive_qr(q, a)

    @pytest.mark.parametrize("shape", [(1024, 8, 8, 1), (8192, 1, 1), (1, 8192, 8, 1)])
    def test_one_column_is_divided_by_its_norm(self, shape):
        """At n = 1, Q is a / ||a|| bit for bit, with ||a|| the root of
        the column's sum of squares."""
        rng = np.random.default_rng(31)
        a = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(0.5)
        norm = np.sqrt(sumsq(a[..., 0]))[..., np.newaxis, np.newaxis]
        want = np.sqrt(np.sum(a.real ** 2 + a.imag ** 2, axis=-2, keepdims=True))
        np.testing.assert_allclose(norm, want, rtol=1e-15, atol=0)
        np.testing.assert_array_equal(orthonormalize(a), a / norm)

    def test_thin_qr_batch_nan_is_rank_deficient(self):
        a = np.zeros((3, 4, 2), dtype=complex)
        a[:] = np.eye(4)[:, :2]
        a[1, 0, 0] = np.nan
        with pytest.raises(RankDeficient):
            orthonormalize(a)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, 1j * np.inf])
    def test_thin_qr_batch_inf_is_rank_deficient(self, bad):
        """Rejected before any arithmetic, so no RuntimeWarning either."""
        a = np.zeros((3, 4, 2), dtype=complex)
        a[:] = np.eye(4)[:, :2]
        a[2, 3, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RankDeficient, match="non-finite"):
                orthonormalize(a)

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
    def test_thin_qr_batch_extreme_scales(self, scale):
        """Items whose squares would under- or overflow are rescaled by a
        power of two first: Q matches the unit-scale item's Q, and Q^H A of
        the scaled item keeps the positive-diagonal form. A unit-scale item
        in the same stack is untouched."""
        rng = np.random.default_rng(23)
        base = np.stack([_complex_gaussian(rng, 6, 2) for _ in range(2)])
        a = base.copy()
        a[1] *= scale
        q = orthonormalize(a)
        q_ref = orthonormalize(base)
        np.testing.assert_array_equal(q[0], q_ref[0])
        assert np.abs(q[1] - q_ref[1]).max() <= 1e-13
        assert_positive_qr(q, a)

    def test_cholesky_psd_items(self):
        """One singular PSD item, exactly or within rounding, fails the whole
        stack with NotPD and no warning: nothing clamps it."""
        rng = np.random.default_rng(19)
        b = _complex_gaussian(rng, 2, 2)
        for psd in (np.zeros((2, 2)), np.diag([1.0, -1e-13])):
            a = np.stack([np.eye(2), b.conj().T @ b, psd]).astype(complex)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NotPD):
                    cholesky_upper_batch(a)

    def test_cholesky_pd_stack_takes_plain_cholesky(self):
        """U = sqrt(D) L^H from a PD stack's LDL^H pivots, within 1e-14
        relative of LAPACK's factor, with U^H U within 1e-14 relative of
        the input."""
        rng = np.random.default_rng(20)
        for n in (1, 2, 3):
            b = np.stack([_complex_gaussian(rng, n + 1, n) for _ in range(10)])
            a = b.conj().swapaxes(-2, -1) @ b
            u = cholesky_upper_batch(a)
            expect = np.swapaxes(np.linalg.cholesky(np.swapaxes(a, -2, -1)), -2, -1)
            assert np.array_equal(u, np.triu(u))
            for i in range(10):
                assert np.linalg.norm(u[i] - expect[i]) <= 1e-14 * np.linalg.norm(expect[i])
                assert np.linalg.norm(u[i].conj().T @ u[i] - a[i]) <= 1e-14 * np.linalg.norm(a[i])

    def test_cholesky_not_psd_item(self):
        a = np.stack([np.eye(2), np.diag([1.0, -1e-6])]).astype(complex)
        with pytest.raises(NotPD):
            cholesky_upper_batch(a)

    def test_logdet_not_pd_item(self):
        a = np.stack([np.eye(2), np.diag([1.0, 0.0])]).astype(complex)
        with pytest.raises(NotPD):
            logdet_hermitian_batch(a)

    @pytest.mark.parametrize(
        "bad",
        [
            [[np.nan]],
            [[np.inf]],
            [[0.0]],
            [[1.0, np.nan], [np.nan, 1.0]],
            [[1.0, np.inf], [np.inf, 1.0]],
            [[1.0, 2.0], [2.0, 1.0]],
            [[1e-300, 1e10], [1e10, 1.0]],
        ],
        ids=["nan", "inf", "zero", "nan-offdiag", "inf-offdiag", "indefinite", "overflowing"],
    )
    def test_logdet_bad_item_raises_without_warning(self, bad):
        """A NaN, infinite, singular or indefinite item raises NotPD with
        no warning, and no NaN or inf log-det comes back."""
        bad = np.asarray(bad, dtype=complex)
        a = np.stack([np.eye(bad.shape[0]), bad]).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPD):
                logdet_hermitian_batch(a)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_gram_rows_matches_matmul(self, n):
        rng = np.random.default_rng(22 + n)
        x = rng.standard_normal((50, 2, n, 7)) + 1j * rng.standard_normal((50, 2, n, 7))
        got = gram_rows(x)
        want = x @ x.conj().swapaxes(-2, -1)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
        np.testing.assert_array_equal(got, got.conj().swapaxes(-2, -1))

    @pytest.mark.parametrize("k,n", [(1, 1), (2, 2), (3, 2)])
    def test_project_off_matches_matmul(self, k, n):
        """p - q (q^H p) in place, orthogonal to q's span."""
        rng = np.random.default_rng(31 + k)
        q = orthonormalize(rng.standard_normal((40, 7, k)) + 1j * rng.standard_normal((40, 7, k)))
        p = rng.standard_normal((40, 7, n)) + 1j * rng.standard_normal((40, 7, n))
        want = p - q @ (q.conj().swapaxes(-2, -1) @ p)
        got = project_off(p, q, np.empty((40, 7), dtype=complex))
        assert got is p
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        assert np.abs(q.conj().swapaxes(-2, -1) @ got).max() <= 1e-13

    def test_nullspace_rank_deficient_item(self):
        rng = np.random.default_rng(21)
        a = np.stack([_complex_gaussian(rng, 4, 2), np.ones((4, 2), dtype=complex)])
        with pytest.raises(RankDeficient):
            left_nullspace_basis_batch(a)


class TestNullspaceExtremeScales:
    """The nullspace rank floor comes from power-of-two-rescaled squares, so
    it neither overflows nor underflows: a full-rank stack at any finite
    scale passes, a nearly parallel pair still raises, and non-finite input
    is rejected before any arithmetic. Warnings are errors throughout."""

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_full_rank_passes(self, scale):
        rng = np.random.default_rng(29)
        a = np.stack([_complex_gaussian(rng, 4, 2) for _ in range(2)])
        ref = left_nullspace_basis_batch(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = left_nullspace_basis_batch(a * scale)
        for b, r in zip(got, ref):
            assert np.abs(b @ b.conj().T - r @ r.conj().T).max() <= 1e-12

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_nearly_parallel_raises(self, scale):
        rng = np.random.default_rng(30)
        c = _complex_gaussian(rng, 4, 1)
        a = np.stack([_complex_gaussian(rng, 4, 2), np.hstack([c, c * (1 + 1e-14)])]) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RankDeficient, match="floor"):
                left_nullspace_basis_batch(a)
            with pytest.raises(RankDeficient, match="floor"):
                left_nullspace_basis_batch(a[1])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_inf_is_rank_deficient(self, bad):
        a = np.zeros((2, 4, 2), dtype=complex)
        a[:] = np.eye(4)[:, :2]
        a[1, 2, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RankDeficient, match="non-finite"):
                left_nullspace_basis_batch(a)
            with pytest.raises(RankDeficient, match="non-finite"):
                left_nullspace_basis_batch(a[1])
