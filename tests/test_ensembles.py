import warnings

import numpy as np
import pytest

from grassfeed import ensembles
from grassfeed.ensembles import (
    RngStream,
    gaussian_matrix,
    isotropic_frame,
    isotropic_frame_in_nullspace,
)
from scipy.stats import ks_2samp

from grassfeed.errors import DimensionError, ParameterError, RankDeficient
from grassfeed.grassmann import GrassmannConstants
from grassfeed.linalg import left_nullspace_basis_batch


def restricted_ks(samples, cdf, lo=0.0, hi=1.0, grid=4001):
    """Sup |ecdf - cdf| over [lo, hi] only; the closed-form chordal CDF
    C_MN x^T is stated for d^2 <= 1 while the distribution extends to N."""
    xs = np.linspace(lo, hi, grid)
    srt = np.sort(samples)
    ecdf = np.searchsorted(srt, xs, side="right") / len(srt)
    return float(np.abs(ecdf - cdf(xs)).max())


class TestRngStream:
    def test_deterministic(self):
        a = gaussian_matrix(RngStream(42).child(3), 4, 2)
        b = gaussian_matrix(RngStream(42).child(3), 4, 2)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = gaussian_matrix(RngStream(42).child(0), 4, 2)
        b = gaussian_matrix(RngStream(42).child(1), 4, 2)
        assert not np.array_equal(a, b)

    def test_nested_children(self):
        a = gaussian_matrix(RngStream(1).child(2).child(5), 4, 2)
        b = gaussian_matrix(RngStream(1).child(2, 5), 4, 2)
        assert np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError):
            RngStream(-1)

    def test_stream_pin(self):
        """The engine's bit generator and its first words on one path.
        A change of generator or of seeding moves every golden digest; it
        fails here first, and CHANGES.md must record it as a change in how
        random numbers are consumed."""
        assert ensembles._BIT_GENERATOR is np.random.SFC64
        gen = RngStream(2026).child(0).generator()
        assert type(gen.bit_generator) is np.random.SFC64
        assert gen.bit_generator.random_raw(4).tolist() == [
            0x4A6837FEC1332A30, 0x17BC8B118E223A73, 0x5412557ECDE9997E, 0x25649A6BB7179A42,
        ]
        words = [RngStream(2026).child(i).generator().bit_generator.random_raw(4).tolist()
                 for i in range(3)] + [RngStream(2026).generator().bit_generator.random_raw(4).tolist()]
        assert len({tuple(w) for w in words}) == len(words)


class TestGaussianMatrix:
    def test_moments(self):
        """1e6 entries: mean 0 and E|entry|^2 = 1, halves per component."""
        g = gaussian_matrix(RngStream(0).child(0), 1000, 1000)
        assert abs(g.mean()) <= 0.01
        assert abs((np.abs(g) ** 2).mean() - 1.0) <= 0.01
        assert abs((g.real ** 2).mean() - 0.5) <= 0.01
        assert abs((g.imag ** 2).mean() - 0.5) <= 0.01

    def test_batch_shape(self):
        g = gaussian_matrix(RngStream(0).child(1), 4, 2, batch=(5, 3))
        assert g.shape == (5, 3, 4, 2)

    @pytest.mark.parametrize("m,n,batch", [(4, 2, (64, 256)), (8, 1, (3,)), (1, 1, ())])
    def test_bytes_of_two_draws(self, m, n, batch):
        """Same stream, same bytes as a real draw then an imaginary draw."""
        gen = RngStream(5).child(m, n).generator()
        shape = batch + (m, n)
        want = (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) * np.sqrt(0.5)
        got = gaussian_matrix(RngStream(5).child(m, n), m, n, batch=batch)
        assert np.array_equal(got.view(np.float64), want.view(np.float64))


class TestIsotropicFrame:
    def test_frame_valid(self):
        w = isotropic_frame(RngStream(2).child(0), 6, 2)
        assert np.linalg.norm(w.conj().T @ w - np.eye(2)) <= 1e-10

    def test_haar_mean_square_case(self):
        gen = RngStream(2).child(1).generator()
        acc = np.zeros((3, 3), dtype=complex)
        reps = 100000
        w = isotropic_frame(gen, 3, 3, batch=(reps,))
        acc = w.mean(axis=0)
        assert np.abs(acc).max() <= 0.01

    def test_isotropy_second_moment(self):
        """E[W W^H] = (n/m) I for (4,2) within 0.01 entrywise."""
        gen = RngStream(2).child(2).generator()
        w = isotropic_frame(gen, 4, 2, batch=(100000,))
        second = np.einsum("tmn,tpn->mp", w, w.conj()) / w.shape[0]
        assert np.abs(second - 0.5 * np.eye(4)).max() <= 0.01

    def test_chordal_cdf_matches_closed_form(self):
        """d^2 to a fixed frame follows C_MN x^T on [0, 1]; KS-style
        statistic over that interval below 0.02 at 1e5 samples."""
        gc = GrassmannConstants(4, 2)
        gen = RngStream(2).child(3).generator()
        ref = isotropic_frame(gen, 4, 2)
        w = isotropic_frame(gen, 4, 2, batch=(100000,))
        g = np.einsum("mn,tmp->tnp", ref.conj(), w)
        d2 = 2.0 - np.sum(np.abs(g) ** 2, axis=(1, 2))
        stat = restricted_ks(d2, lambda x: gc.c * x ** gc.t)
        assert stat < 0.02


class TestNullspaceFrame:
    def test_orthogonal_to_anchor(self):
        gen = RngStream(4).child(0).generator()
        for _ in range(1000):
            anchor = isotropic_frame(gen, 6, 2)
            s = isotropic_frame_in_nullspace(gen, anchor, 2)
            assert np.linalg.norm(s.conj().T @ anchor) <= 1e-10
            assert np.linalg.norm(s.conj().T @ s - np.eye(2)) <= 1e-10

    def test_identity_anchor_support(self):
        anchor = np.eye(4, dtype=complex)[:, :2]
        s = isotropic_frame_in_nullspace(RngStream(4).child(1), anchor, 2)
        # lives entirely in span{e3, e4}
        assert np.abs(s[:2]).max() <= 1e-12

    def test_full_width_spans_nullspace(self):
        gen = RngStream(4).child(2).generator()
        anchor = isotropic_frame(gen, 6, 2)
        s = isotropic_frame_in_nullspace(gen, anchor, 4)
        proj = s @ s.conj().T
        expect = np.eye(6) - anchor @ anchor.conj().T
        assert np.linalg.norm(proj - expect) <= 1e-9

    @pytest.mark.parametrize("m,k,n", [(6, 2, 2), (8, 1, 3), (6, 2, 4)])
    def test_stack_law_matches_nullspace_oracle(self, m, k, n):
        """A stack of 4000 frames in the complement of one anchor against
        the complete-QR oracle basis @ isotropic_frame: for a fixed unit x
        in the complement, ||x^H s||^2 (1 at full width) and |x^H s_1|^2
        pass a two-sample KS test at p > 0.001."""
        count = 4000
        anchor = np.repeat(gaussian_matrix(RngStream(4).child(7, m, n), m, k)[np.newaxis], count, axis=0)
        basis = left_nullspace_basis_batch(anchor[0])
        x = basis @ isotropic_frame(RngStream(4).child(8, m, n), m - k, 1)
        got = x.conj().T @ isotropic_frame_in_nullspace(RngStream(4).child(9, m, n), anchor, n)
        want = x.conj().T @ basis @ isotropic_frame(RngStream(4).child(10, m, n), m - k, n, batch=(count,))
        for stat in (lambda g: np.sum(np.abs(g) ** 2, axis=(-2, -1)), lambda g: np.abs(g[:, 0, 0]) ** 2):
            a, b = stat(got), stat(want)
            if n == m - k and a.std() < 1e-12:
                assert np.abs(a - 1).max() <= 1e-12 and np.abs(b - 1).max() <= 1e-12
            else:
                assert ks_2samp(a, b).pvalue > 1e-3

    def test_too_wide(self):
        anchor = np.eye(4, dtype=complex)[:, :2]
        with pytest.raises(DimensionError):
            isotropic_frame_in_nullspace(RngStream(4).child(3), anchor, 3)

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_extreme_scale_anchor(self, scale):
        """The nullspace's rank floor neither overflows nor underflows: a
        scaled anchor stack gives, draw for draw, the unit-scale frames."""
        anchor = isotropic_frame(RngStream(4).child(4), 6, 2, batch=(3,))
        ref = isotropic_frame_in_nullspace(RngStream(4).child(5), anchor, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = isotropic_frame_in_nullspace(RngStream(4).child(5), anchor * scale, 2)
        assert np.abs(got - ref).max() <= 1e-12
        assert np.abs(got.conj().swapaxes(-2, -1) @ anchor).max() <= 1e-12

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_inf_anchor_is_rank_deficient(self, bad):
        anchor = np.zeros((2, 4, 2), dtype=complex)
        anchor[:] = np.eye(4)[:, :2]
        anchor[0, 1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RankDeficient, match="non-finite"):
                isotropic_frame_in_nullspace(RngStream(4).child(6), anchor, 2)
