import copy
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import ks_2samp, kstest

from grassfeed.ensembles import RngStream, gaussian_matrix, isotropic_frame
from grassfeed.errors import (
    DegenerateProjection,
    FallbackRequired,
    ParameterError,
)
from grassfeed.grassmann import (
    GrassmannConstants,
    _mean_min_d2,
    chordal_distance_sq,
    distortion_bound,
    distortion_samples,
    scan_fresh_codebooks,
)
from grassfeed.linalg import cholesky_upper_batch
from grassfeed.quant_emulator import (
    CondEigSampler,
    _budget_free_draw,
    _map_to_budget,
    beta_trace_pdf,
    decompose,
    emulate_batch,
    emulate_quantization,
    sample_min_d2,
    _min_d2_from_uniform,
)
from tests.test_ensembles import restricted_ks
from tests.test_linalg import QR_SHAPES, _positive_qr_reference


def _orth(gen, m, n):
    return isotropic_frame(gen, m, n)


def _emulate_matmul(gen, hq, bits):
    """emulate_batch as stacked matmuls and np.trace: the same draws in the
    same order, with every N x N product a per-item matmul."""
    t, m, n = hq.shape
    z = sample_min_d2(gen, GrassmannConstants(m, n), bits, size=t)
    x = isotropic_frame(gen, n, n, batch=(t,))
    p = gaussian_matrix(gen, m, n, batch=(t,))
    p -= hq @ (np.conj(np.swapaxes(hq, -2, -1)) @ p)
    w = np.conj(np.swapaxes(p, -2, -1)) @ p
    s = (z / np.trace(w, axis1=-2, axis2=-1).real)[:, np.newaxis, np.newaxis]
    y = cholesky_upper_batch(np.eye(n) - s * w)
    return hq @ (x @ y) + np.sqrt(s) * p, z


class TestDecompose:
    def test_identical_frames(self):
        a = np.eye(5, dtype=complex)[:, :2]
        dec = decompose(a, a)
        np.testing.assert_allclose(dec.x @ dec.y, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(dec.z, 0, atol=1e-12)
        assert dec.d2 == pytest.approx(0.0, abs=1e-12)
        # any complement frame is correct; this one is a fixed draw
        np.testing.assert_allclose(dec.s.conj().T @ dec.s, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(a.conj().T @ dec.s, 0, atol=1e-12)
        assert np.array_equal(decompose(a, a).s, dec.s)

    def test_orthogonal_subspaces_degenerate(self):
        a = np.eye(4, dtype=complex)[:, :2]
        b = np.eye(4, dtype=complex)[:, 2:]
        with pytest.raises(DegenerateProjection):
            decompose(b, a)

    def test_reconstruction_batch(self):
        """1000 random pairs: exact reconstruction, trace identity, and the
        y^H y + z^H z = I complement, each to 1e-9."""
        gen = RngStream(21).child(0).generator()
        for m, n in ((4, 2), (6, 2), (6, 3)):
            for _ in range(334):
                ref = _orth(gen, m, n)
                tgt = _orth(gen, m, n)
                dec = decompose(tgt, ref)
                rebuilt = ref @ dec.x @ dec.y + dec.s @ dec.z
                assert np.abs(rebuilt - tgt).max() <= 1e-9
                d2 = chordal_distance_sq(ref, tgt)
                assert abs(np.sum(np.abs(dec.z) ** 2) - d2) <= 1e-9
                comp = dec.y.conj().T @ dec.y + dec.z.conj().T @ dec.z
                assert np.abs(comp - np.eye(n)).max() <= 1e-9
                assert np.abs(ref.conj().T @ dec.s).max() <= 1e-10

    def test_triangular_factors(self):
        """y and z are exactly upper triangular with real nonnegative
        diagonals; x is unitary."""
        gen = RngStream(21).child(1).generator()
        dec = decompose(_orth(gen, 6, 2), _orth(gen, 6, 2))
        for f in (dec.y, dec.z):
            np.testing.assert_array_equal(f, np.triu(f))
            assert np.all(np.diag(f).imag == 0.0) and np.all(np.diag(f).real >= 0.0)
        np.testing.assert_allclose(
            dec.x.conj().T @ dec.x, np.eye(2), atol=1e-10
        )

    @pytest.mark.parametrize("m,n", [(m, n) for m, n in QR_SHAPES if m >= 2 * n])
    def test_factors_match_positive_qr_reference(self, m, n):
        """x y and s z are the positive-diagonal thin QRs of h_hat^H h_tilde
        and of h_tilde projected off h_hat, against numpy's QR with the
        phases fixed."""
        gen = RngStream(21).child(2, m, n).generator()
        for _ in range(20):
            ref, tgt = _orth(gen, m, n), _orth(gen, m, n)
            dec = decompose(tgt, ref)
            coef = ref.conj().T @ tgt
            want = _positive_qr_reference(coef) + _positive_qr_reference(tgt - ref @ coef)
            for got, w in zip((dec.x, dec.y, dec.s, dec.z), want):
                assert np.abs(got - w).max() <= 1e-10


class TestSampleMinD2:
    def test_inverse_cdf_endpoints(self):
        gc = GrassmannConstants(4, 2)
        assert _min_d2_from_uniform(gc, 10, 0.0) == 0.0
        assert _min_d2_from_uniform(gc, 10, 1.0) == 1.0

    def test_inverse_cdf_is_exact_inverse(self):
        """F_min(x) = 1 - (1 - C x^T)^(2^B) on [0, 1]; the sampler must
        invert it pointwise."""
        gc = GrassmannConstants(4, 2)
        bits = 8
        for u in (0.001, 0.2, 0.5, 0.9, 0.999999):
            x = float(_min_d2_from_uniform(gc, bits, u))
            f_back = -math.expm1(2.0 ** bits * math.log1p(-gc.c * x ** gc.t))
            assert f_back == pytest.approx(u, rel=1e-9)

    def test_guard_rejects_small_product(self):
        gc = GrassmannConstants(4, 2)  # 2^6 * 0.5 = 32 < 40
        with pytest.raises(FallbackRequired):
            sample_min_d2(RngStream(23).child(0), gc, 6)

    def test_guard_relaxation(self):
        gc = GrassmannConstants(4, 2)
        v = sample_min_d2(RngStream(23).child(0), gc, 6, guard_product=30.0)
        assert 0.0 < v < 1.0

    def test_huge_budget_stays_finite(self):
        # 2^500 overflows a double; the guard and the inversion must both
        # work in the log domain
        gc = GrassmannConstants(4, 2)
        v = sample_min_d2(RngStream(23).child(1), gc, 500, size=100)
        assert np.all(v > 0) and np.all(v < 1e-30)

    def test_log_domain_continues_the_direct_map(self):
        """Past B = 1022, where 2^-B stops being a normal double, x keeps
        scaling as 2^(-B/T): one bit shrinks it by 2^(-1/T), T bits halve it.
        (At B = 1022 the direct map's F is subnormal for small u, so the
        comparison there starts at u = 1e-3.)"""
        gc = GrassmannConstants(6, 2)
        u = np.array([1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-12])
        direct = _min_d2_from_uniform(gc, 1022, u)
        logdom = _min_d2_from_uniform(gc, 1023, u)
        np.testing.assert_allclose(logdom / direct, 2.0 ** (-1.0 / gc.t), rtol=1e-12)
        u[0] = 1e-12
        far = _min_d2_from_uniform(gc, 5000 + gc.t, u)
        np.testing.assert_allclose(far / _min_d2_from_uniform(gc, 5000, u), 0.5, rtol=1e-12)
        assert _min_d2_from_uniform(gc, 5000, 0.0) == 0.0
        assert _min_d2_from_uniform(gc, 5000, 1.0) == 1.0
        assert np.all(_min_d2_from_uniform(gc, 10 ** 5, u) == 0.0)

    def test_subnormal_f_takes_the_log_domain(self):
        """At B = 1022 and u = 1e-12, F = 2^-1022 (-log(1 - u)) is subnormal;
        x must still be exact: (L / C)^(1/T) 2^(-1022/T) with L = -log(1 - u)
        formed in normal doubles."""
        gc = GrassmannConstants(6, 2)
        u = 1e-12
        exact = (-math.log1p(-u) / gc.c) ** (1.0 / gc.t) * 2.0 ** (-1022 / gc.t)
        got = float(_min_d2_from_uniform(gc, 1022, u))
        assert abs(got / exact - 1.0) <= 1e-12

    def test_subnormal_c_takes_the_log_domain(self):
        """G(40, 20) has C_MN near 2^-1620, which a double holds as 0: the
        map must use log2 C_MN, as the direct map does for a normal C_MN."""
        gc = GrassmannConstants(40, 20)
        assert gc.c == 0.0
        bits = 2000
        u = np.array([1e-3, 0.1, 0.5, 0.9])
        log2_f = np.log2(-np.log1p(-u)) - bits
        expect = np.exp2((log2_f - gc.log2_c) / gc.t)
        np.testing.assert_allclose(_min_d2_from_uniform(gc, bits, u), expect, rtol=1e-12)
        assert np.all((expect > 0) & (expect < 1))

    @pytest.mark.parametrize("bits", [1, 2, 4, 8, 12, 20, 40, 80])
    def test_exact_mean_below_bound(self, bits):
        """The bound's claim: the exact E[min d^2] never exceeds it. (At
        B = 20 the gap is 5e-9, far inside a sample mean's error.)"""
        gc = GrassmannConstants(4, 2)
        assert _mean_min_d2(gc, bits) <= distortion_bound(gc, bits)

    def test_sample_mean_matches_exact_mean(self):
        """The sample mean of 1e5 draws lies within 4 standard errors of
        the exact mean, on either side."""
        gc = GrassmannConstants(4, 2)
        v = sample_min_d2(RngStream(23).child(2), gc, 20, size=100000)
        se = v.std(ddof=1) / math.sqrt(v.size)
        assert abs(float(v.mean()) - _mean_min_d2(gc, 20)) <= 4.0 * se

    def test_matches_min_cdf(self):
        gc = GrassmannConstants(6, 2)
        bits = 10
        v = sample_min_d2(RngStream(23).child(3), gc, bits, size=100000)
        cdf = lambda x: -np.expm1(2.0 ** bits * np.log1p(-gc.c * x ** gc.t))
        assert kstest(v, cdf).pvalue > 0.01


def _corrected_kernel(u, m):
    return (1.0 - 2.0 * u) ** 2 * (u * (1.0 - u)) ** (m - 4)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _split_cdf(m):
    """Exact CDF of the eigenvalue split u = d1/z: the kernel integrated
    by Gauss-Legendre quadrature, exact for its degree 2M - 6 <= 14."""

    def integral(u):
        u = np.asarray(u, dtype=float)[..., np.newaxis]
        nodes = 0.5 * u * (_GL_NODES + 1.0)
        return 0.5 * u[..., 0] * np.sum(_GL_WEIGHTS * _corrected_kernel(nodes, m), axis=-1)

    total = integral(1.0)
    return lambda u: integral(u) / total


def _overlap_laws(h, frames):
    """Per-frame statistics of the overlap A = h^H frames: the trace of the
    error Gram Z^H Z = I - A^H A, its smallest-eigenvalue share, |det A|
    and |tr A| (the last sees the rotation X)."""
    a = np.conj(np.swapaxes(h, -2, -1)) @ frames
    ev = np.linalg.eigvalsh(np.eye(a.shape[-1]) - np.conj(np.swapaxes(a, -2, -1)) @ a)
    tr = ev.sum(axis=-1)
    return (tr, ev[:, 0] / tr, np.abs(np.linalg.det(a)),
            np.abs(np.trace(a, axis1=-2, axis2=-1)))


class TestCondEigSampler:
    def test_kernel_normalization_identity(self):
        """V_M * integral of the kernel = C_MN * T for every M, which pins
        the (u(1-u))^(M-4) form; the alternative (1-u)(1-z+zu) reading fails
        this identity for all M > 4."""
        for m in range(4, 13):
            mm = m - 4
            integral = (
                math.factorial(mm) ** 2
                / math.factorial(2 * mm + 1)
                / (2 * mm + 3)
            )
            v_m = 0.5 * (m - 1) * (m - 2) ** 2 * (m - 3)
            gc = GrassmannConstants(m, 2)
            assert v_m * integral == pytest.approx(gc.c * gc.t, rel=1e-12)

    def test_cdf_against_quadrature(self):
        """The split CDF used as the oracle below vs adaptive quadrature."""
        for m in (4, 5, 6, 8):
            cdf = _split_cdf(m)
            total, _ = integrate.quad(_corrected_kernel, 0, 1, args=(m,))
            for u in (0.05, 0.2, 0.35, 0.5, 0.9):
                part, _ = integrate.quad(_corrected_kernel, 0, u, args=(m,))
                assert float(cdf(u)) == pytest.approx(part / total, abs=1e-12)

    def test_draws_match_cdf(self):
        for m in (4, 5, 6, 8):
            gen = RngStream(25).child(0, m).generator()
            draws = CondEigSampler(m).sample(gen, 20000)
            assert kstest(draws, _split_cdf(m)).pvalue > 0.01

    def test_emulated_split_matches_cdf(self):
        """The eigenvalue split of emulate_batch's Z^H Z has the same law,
        folded onto (0, 1/2) since the smaller share is taken."""
        for m in (4, 5, 6, 8):
            gen = RngStream(25).child(3, m).generator()
            h = isotropic_frame(gen, m, 2, batch=(20000,))
            frames, _ = emulate_batch(gen, h, 20)
            cdf = _split_cdf(m)
            assert kstest(_overlap_laws(h, frames)[1], lambda u: 2.0 * cdf(u)).pvalue > 0.01

    def test_symmetry_about_half(self):
        # the kernel is symmetric under u -> 1-u, so E[u] = 1/2
        s = CondEigSampler(6)
        gen = RngStream(25).child(1).generator()
        draws = s.sample(gen, 100000)
        assert abs(float(draws.mean()) - 0.5) < 0.003

    def test_repulsion_dip_at_center(self):
        # (1-2u)^2 vanishes at u = 1/2: equal eigenvalues are repelled
        s = CondEigSampler(4)
        gen = RngStream(25).child(2).generator()
        draws = s.sample(gen, 200000)
        center = np.mean((draws > 0.49) & (draws < 0.51))
        off = np.mean((draws > 0.24) & (draws < 0.26))
        assert center < 0.2 * off

    def test_requires_two_column_geometry(self):
        with pytest.raises(ParameterError):
            CondEigSampler(3)


class TestBetaTracePdf:
    def test_integrates_to_density_constant(self):
        """integral_0^1 f_Z = C_MN: the trace density restricted to [0,1]
        carries exactly the closed-form CDF's mass."""
        for m in (4, 5, 6, 8):
            gc = GrassmannConstants(m, 2)
            val, err = integrate.quad(lambda z: beta_trace_pdf(m, z), 0, 1)
            assert val == pytest.approx(gc.c, abs=1e-6)
            assert err < 1e-9

    def test_closed_form(self):
        # f_Z(z) = z^(2M-5) Gamma(M)^2 / ((M-1) Gamma(2M-4))
        for m in (4, 6):
            z = 0.7
            expect = (
                z ** (2 * m - 5)
                * math.gamma(m) ** 2
                / ((m - 1) * math.gamma(2 * m - 4))
            )
            assert beta_trace_pdf(m, z) == pytest.approx(expect, rel=1e-12)

    def test_coefficient_is_the_factorial_ratio(self):
        """The coefficient read as T C_M2 is the rounded factorial ratio
        (M-1)! (M-2)! / (2M-5)!, bit for bit."""
        for m in range(4, 61):
            ratio = Fraction(math.factorial(m - 1) * math.factorial(m - 2), math.factorial(2 * m - 5))
            assert beta_trace_pdf(m, 0.5) == float(ratio) * 0.5 ** (2 * m - 5), m

    @pytest.mark.parametrize("m", [90, 200, 2000])
    def test_large_m(self, m):
        """Gamma(2M-4) overflows a double past M = 87; the coefficient is
        (M-1)! (M-2)! / (2M-5)!, rounded once, and the density matches its
        lgamma form (or underflows to 0 with it)."""
        z = np.array([0.0, 0.5, 0.9, 1.0])
        with np.errstate(divide="ignore"):
            log_f = (2 * math.lgamma(m) - math.log(m - 1) - math.lgamma(2 * m - 4)
                     + (2 * m - 5) * np.log(z))
        np.testing.assert_allclose(beta_trace_pdf(m, z), np.exp(log_f), rtol=1e-9, atol=0)


class TestEmulateQuantization:
    def test_output_contract(self):
        gen = RngStream(29).child(0).generator()
        h = _orth(gen, 4, 2)
        frame, d2 = emulate_quantization(gen, h, 12)
        gram = frame.conj().T @ frame
        assert np.abs(gram - np.eye(2)).max() <= 1e-9
        assert d2 == pytest.approx(chordal_distance_sq(h, frame), abs=1e-9)
        assert 0.0 < d2 < 1.0

    def test_single_column_path(self):
        gen = RngStream(29).child(1).generator()
        h = _orth(gen, 4, 1)
        frame, d2 = emulate_quantization(gen, h, 10)
        assert frame.shape == (4, 1)
        assert d2 == pytest.approx(chordal_distance_sq(h, frame), abs=1e-9)

    def test_guard_propagates(self):
        gen = RngStream(29).child(2).generator()
        h = _orth(gen, 4, 2)
        with pytest.raises(FallbackRequired):
            emulate_quantization(gen, h, 5)

    @pytest.mark.parametrize("m,n", [(4, 2), (6, 2), (8, 1)])
    def test_any_bit_budget(self, m, n):
        """At B = 1100 the distortion is tiny but positive; at B = 10^5 it
        underflows to 0, so Z = 0, Y = I and each frame spans its channel."""
        gen = RngStream(29).child(5, m).generator()
        h = isotropic_frame(gen, m, n, batch=(64,))
        small, d2 = emulate_batch(gen, h, 1100)
        assert np.all((d2 > 0.0) & (d2 < 1e-40))
        frames, d2 = emulate_batch(gen, h, 10 ** 5)
        assert np.all(d2 == 0.0)
        for out in (small, frames):
            overlap = np.einsum("tmi,tmj->tij", h.conj(), out)
            gram = np.einsum("tki,tkj->tij", overlap.conj(), overlap)
            assert np.abs(gram - np.eye(n)).max() <= 1e-12


    @pytest.mark.parametrize("m,n,bits", [(4, 2, 12), (6, 2, 20), (8, 1, 12), (8, 3, 40)])
    def test_matches_matmul_form(self, m, n, bits):
        """Same generator, same z, and frames within 1e-14 of the matmul
        form, also for the strided column slices the ZF path passes."""
        wide = isotropic_frame(RngStream(29).child(6, m).generator(), m, n + 1, batch=(300,))
        for h in (np.ascontiguousarray(wide[..., :n]), wide[..., 1:]):
            want, z_want = _emulate_matmul(RngStream(29).child(7, m).generator(), h, bits)
            got, z_got = emulate_batch(RngStream(29).child(7, m).generator(), h, bits)
            np.testing.assert_array_equal(z_got, z_want)
            assert np.abs(got - want).max() <= 1e-14


    @pytest.mark.parametrize("m,n,bits", [(4, 2, 12), (6, 2, 20), (8, 1, 12), (8, 3, 40)])
    def test_is_the_map_of_the_budget_free_draw(self, m, n, bits):
        """emulate_batch is the per-budget map of the budget-free draw from a
        copy of its generator, bitwise; a map into a fresh buffer leaves the
        draw as it was, so one draw serves any number of budgets."""
        h = isotropic_frame(RngStream(29).child(8, m).generator(), m, n, batch=(300,))
        gen = RngStream(29).child(9, m).generator()
        draw = _budget_free_draw(copy.deepcopy(gen), h)
        kept = [a.copy() for a in draw]
        want = emulate_batch(gen, h, bits)
        for budget in (bits + 7, bits):
            got = _map_to_budget(draw, h, budget, np.empty_like(draw.p))
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(draw, kept):
            np.testing.assert_array_equal(a, b)


class TestEmulatedMatchesExhaustive:
    """Reduced-size version of the distribution-equality check; the
    acceptance suite runs the full 1e4-sample protocol."""

    @pytest.mark.parametrize("m,n,bits", [(4, 2, 8), (4, 1, 10)])
    def test_ks_and_mean(self, m, n, bits):
        trials = 32000
        base = RngStream(31).child(m, n)
        exh = distortion_samples(base.child(0), m, n, bits, trials)
        gc = GrassmannConstants(m, n)
        emu = sample_min_d2(
            base.child(1), gc, bits, guard_product=15.0, size=trials
        )
        assert ks_2samp(exh, emu).pvalue > 0.01
        rel = abs(exh.mean() - emu.mean()) / exh.mean()
        assert rel < 0.03

    @pytest.mark.parametrize("m,n,bits,trials", [(4, 2, 8, 2000), (8, 1, 8, 2000),
                                                 (6, 3, 11, 1000)])
    def test_frames_match_exhaustive(self, m, n, bits, trials):
        """Emulated vs scanned frames, through every statistic of
        :func:`_overlap_laws`."""
        base = RngStream(35).child(m, n, bits)
        gen = base.child(0).generator()
        h = isotropic_frame(gen, m, n, batch=(trials,))
        exh = scan_fresh_codebooks(gen, h, bits)[0]
        gen = base.child(1).generator()
        h_emu = isotropic_frame(gen, m, n, batch=(trials,))
        emu, _ = emulate_batch(gen, h_emu, bits)
        for x, y in zip(_overlap_laws(h, exh), _overlap_laws(h_emu, emu)):
            assert ks_2samp(x, y).pvalue > 0.01

    def test_batch_moments(self):
        """E[Z^H Z] = (D/2) I via I - A^H A with A = H~^H H^: off-diagonals
        near zero, diagonal entries equal within spread."""
        m, n, bits = 4, 2, 12
        trials = 60000
        gen = RngStream(31).child(9).generator()
        h = isotropic_frame(gen, m, n, batch=(trials,))
        frames, d2 = emulate_batch(gen, h, bits)
        a = np.einsum("tmi,tmj->tij", h.conj(), frames)
        zhz = np.eye(n) - np.einsum("tki,tkj->tij", a.conj(), a).mean(axis=0)
        target = d2.mean() / n
        assert np.abs(zhz - target * np.eye(n)).max() < 0.003
        assert abs(zhz[0, 0] - zhz[1, 1]) / target < 0.02

    def test_batch_consistency_with_decompose(self):
        gen = RngStream(31).child(10).generator()
        h = isotropic_frame(gen, 4, 2, batch=(50,))
        frames, d2 = emulate_batch(gen, h, 11)
        for i in range(50):
            dec = decompose(frames[i], h[i])
            assert abs(dec.d2 - d2[i]) <= 1e-9
