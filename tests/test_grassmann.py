import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from grassfeed.ensembles import RngStream, gaussian_matrix, isotropic_frame
from grassfeed.errors import (
    DomainError,
    MemoryGuard,
    ParameterError,
    RankDeficient,
)
from grassfeed.grassmann import (
    Codebook,
    GrassmannConstants,
    _codebook_size,
    chordal_distance_sq,
    distortion_bound,
    distortion_main_term,
    distortion_samples,
    principal_angles,
    quantize,
    random_codebook,
    scan_fresh_codebooks,
)
from grassfeed.linalg import orthonormalize, thin_qr_batch
from grassfeed import ensembles, grassmann
from grassfeed.cli import _ks_2samp
from tests.test_ensembles import restricted_ks


def _oracle_c(m, n):
    """Independent exact evaluation of the codebook density constant:
    (1/T!) prod_{i=1..N} (M-i)!/(N-i)! in rational arithmetic."""
    t = n * (m - n)
    val = Fraction(1, math.factorial(t))
    for i in range(1, n + 1):
        val *= Fraction(math.factorial(m - i), math.factorial(n - i))
    return val


class TestGrassmannConstants:
    def test_hand_values(self):
        assert GrassmannConstants(4, 2).c == 0.5
        assert GrassmannConstants(5, 2).c == pytest.approx(0.2, abs=1e-15)
        assert GrassmannConstants(6, 2).c == pytest.approx(1 / 14, abs=1e-15)
        assert GrassmannConstants(8, 2).c == pytest.approx(1 / 132, abs=1e-15)

    def test_t_values(self):
        assert GrassmannConstants(4, 2).t == 4
        assert GrassmannConstants(6, 2).t == 8
        assert GrassmannConstants(4, 1).t == 3

    def test_single_column_c_is_one(self):
        for m in (2, 3, 4, 6, 8):
            assert GrassmannConstants(m, 1).c == 1.0

    def test_exact_rational_matches_oracle(self):
        for m, n in ((4, 2), (6, 2), (8, 2), (6, 3), (9, 3), (12, 4)):
            assert GrassmannConstants(m, n).c_exact == _oracle_c(m, n)

    def test_log2_c_handles_tiny_constants(self):
        gc = GrassmannConstants(16, 4)
        assert gc.log2_c == pytest.approx(math.log2(float(_oracle_c(16, 4))), rel=1e-12)

    def test_dimension_validation(self):
        with pytest.raises(ParameterError):
            GrassmannConstants(4, 3)  # N > M/2
        with pytest.raises(ParameterError):
            GrassmannConstants(4, 0)


class TestPrincipalAngles:
    def test_identical_frames(self):
        a = np.eye(4, dtype=complex)[:, :2]
        np.testing.assert_allclose(principal_angles(a, a), [0.0, 0.0], atol=1e-7)

    def test_orthogonal_subspaces(self):
        a = np.eye(4, dtype=complex)[:, :2]
        b = np.eye(4, dtype=complex)[:, 2:]
        np.testing.assert_allclose(principal_angles(a, b), [np.pi / 2] * 2, atol=1e-12)

    def test_45_degrees(self):
        a = np.array([[1.0], [0.0]], dtype=complex)
        b = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2)
        assert principal_angles(a, b)[0] == pytest.approx(np.pi / 4, abs=1e-12)

    def test_ascending(self):
        gen = RngStream(0).child(0).generator()
        for _ in range(100):
            th = principal_angles(isotropic_frame(gen, 6, 3), isotropic_frame(gen, 6, 3))
            assert np.all(np.diff(th) >= 0)
            assert th.min() >= 0 and th.max() <= np.pi / 2 + 1e-12


class TestChordalDistance:
    def test_identical(self):
        a = np.eye(4, dtype=complex)[:, :2]
        assert chordal_distance_sq(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        a = np.eye(4, dtype=complex)[:, :2]
        b = np.eye(4, dtype=complex)[:, 2:]
        assert chordal_distance_sq(a, b) == pytest.approx(2.0, abs=1e-12)

    def test_45_degrees(self):
        a = np.array([[1.0], [0.0]], dtype=complex)
        b = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2)
        assert chordal_distance_sq(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_matches_principal_angle_form(self):
        """The trace form the engine runs equals the sum of sin^2 of the
        principal angles (the reference definition, arccos of the singular
        values of A^H B) to 1e-9 over 1e4 random pairs."""
        gen = RngStream(1).child(0).generator()
        a = isotropic_frame(gen, 4, 2, batch=(10000,))
        b = isotropic_frame(gen, 4, 2, batch=(10000,))
        s = np.linalg.svd(a.conj().swapaxes(-2, -1) @ b, compute_uv=False)
        th = np.arccos(np.clip(s, 0.0, 1.0))
        assert np.abs(grassmann._d2(a, b) - np.sum(np.sin(th) ** 2, axis=-1)).max() <= 1e-9

    def test_symmetry_and_range(self):
        gen = RngStream(1).child(1).generator()
        for _ in range(200):
            a = isotropic_frame(gen, 6, 2)
            b = isotropic_frame(gen, 6, 2)
            dab = chordal_distance_sq(a, b)
            assert dab == pytest.approx(chordal_distance_sq(b, a), abs=1e-12)
            assert 0.0 <= dab <= 2.0 + 1e-12

    def test_unitary_right_invariance(self):
        gen = RngStream(1).child(2).generator()
        a = isotropic_frame(gen, 6, 2)
        b = isotropic_frame(gen, 6, 2)
        u = isotropic_frame(gen, 2, 2)
        assert chordal_distance_sq(a @ u, b) == pytest.approx(
            chordal_distance_sq(a, b), abs=1e-10
        )


class TestRandomCodebook:
    def test_entry_counts(self):
        assert random_codebook(RngStream(3).child(0), 4, 2, 0).entries.shape[0] == 1
        cb = random_codebook(RngStream(3).child(0), 4, 2, 3)
        assert cb.entries.shape == (8, 4, 2)
        gram = np.einsum("cmi,cmj->cij", cb.entries.conj(), cb.entries)
        assert np.abs(gram - np.eye(2)).max() <= 1e-10

    def test_deterministic(self):
        a = random_codebook(RngStream(3).child(1), 4, 2, 4)
        b = random_codebook(RngStream(3).child(1), 4, 2, 4)
        assert np.array_equal(a.entries, b.entries)

    def test_memory_guard(self):
        with pytest.raises(MemoryGuard):
            random_codebook(RngStream(3).child(2), 4, 2, 25)

    def test_cap_counts_complex_elements(self):
        """The cap bounds 2^B M N complex elements, not 2^B entries, so
        wider frames get fewer bits; nothing is allocated to decide."""
        assert _codebook_size(21, 4, 2) == 2 ** 21
        assert _codebook_size(23, 2, 1) == 2 ** 23
        for bits, m, n in [(22, 4, 2), (24, 2, 1), (20, 8, 4)]:
            with pytest.raises(MemoryGuard):
                _codebook_size(bits, m, n)
        with pytest.raises(MemoryGuard):
            random_codebook(RngStream(3).child(2), 8, 4, 20)

    def test_codebook_checks_bits_first(self):
        """bits is validated before 2^bits is formed or shapes compared."""
        entries = np.zeros((1, 4, 2), dtype=complex)
        with pytest.raises(ParameterError):
            Codebook(4, 2, -1, entries)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryGuard):
                Codebook(4, 2, 2 ** 28, entries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 2**(2**28) alone is a 32 MiB integer
        assert peak < 2 ** 20


class TestQuantize:
    def test_exact_member_wins(self):
        gen = RngStream(5).child(0).generator()
        cb = random_codebook(gen, 4, 2, 3)
        h = cb.entries[5] @ np.diag([2.0, 3.0])  # same subspace, scaled
        res = quantize(h, cb)
        assert res.index == 5
        assert res.d2 == pytest.approx(0.0, abs=1e-10)

    def test_single_entry_codebook(self):
        gen = RngStream(5).child(1).generator()
        cb = random_codebook(gen, 4, 2, 0)
        res = quantize(gaussian_matrix(gen, 4, 2), cb)
        assert res.index == 0

    def test_brute_force_oracle(self):
        """100 random channels against an independent scan that
        orthonormalizes with numpy and compares via the angle route."""
        gen = RngStream(5).child(2).generator()
        cb = random_codebook(gen, 4, 2, 4)
        for _ in range(100):
            h = gaussian_matrix(gen, 4, 2)
            res = quantize(h, cb)
            q, r = np.linalg.qr(h)
            dists = np.array([
                float(np.sum(np.sin(principal_angles(q, w)) ** 2))
                for w in cb.entries
            ])
            assert res.index == int(np.argmin(dists))
            assert res.d2 == pytest.approx(dists.min(), abs=1e-9)

    def test_scale_invariance(self):
        gen = RngStream(5).child(3).generator()
        cb = random_codebook(gen, 4, 2, 4)
        h = gaussian_matrix(gen, 4, 2)
        base = quantize(h, cb)
        for c in (2.0, -3.0, 1.5j, 0.2 - 0.7j):
            assert quantize(c * h, cb).index == base.index

    def test_rank_deficient(self):
        cb = random_codebook(RngStream(5).child(4), 4, 2, 2)
        with pytest.raises(RankDeficient):
            quantize(np.ones((4, 2), dtype=complex), cb)


class TestSingleSampleCdf:
    def test_closed_form_cdf(self):
        """P(d^2 <= x) = C_MN x^T on [0,1] for (4,2) and (6,2), read off the
        scan's one-entry path: with B = 0 the minimum d^2 is the distance to
        a single random frame."""
        for m, n in ((4, 2), (6, 2)):
            gc = GrassmannConstants(m, n)
            d2 = distortion_samples(RngStream(9).child(m), m, n, 0, 100000)
            assert restricted_ks(d2, lambda x: gc.c * x ** gc.t) < 0.02


class TestDistortionBound:
    def test_hand_value(self):
        """(4,2,B=10): main term (Gamma(.25)/4) 0.5^(-1/4) 2^(-2.5),
        exponential term below 1e-9."""
        gc = GrassmannConstants(4, 2)
        expect = math.gamma(0.25) / 4.0 * 0.5 ** (-0.25) * 2.0 ** (-2.5)
        assert distortion_main_term(gc, 10) == pytest.approx(expect, rel=1e-12)
        assert distortion_bound(gc, 10) - distortion_main_term(gc, 10) < 1e-9
        assert distortion_bound(gc, 10) == pytest.approx(0.1905476, abs=1e-6)

    def test_monotone_in_bits(self):
        gc = GrassmannConstants(6, 2)
        vals = [distortion_bound(gc, b) for b in range(4, 40, 2)]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        assert vals[-1] < 0.05

    def test_domain_guard(self):
        gc = GrassmannConstants(8, 2)  # C = 1/132
        with pytest.raises(DomainError):
            distortion_bound(gc, 4)  # 16/132 < 1
        # C_MN of G(400, 200) underflows a double; 2^B C_MN is judged by logs
        with pytest.raises(DomainError):
            distortion_bound(GrassmannConstants(400, 200), 10)

    @pytest.mark.parametrize("bits", [1100, 2000, 1e300])
    def test_budget_past_the_largest_double(self, bits):
        """2^B overflows a double here; the exponential term is 0 and the
        main term scales as 2^(-B/T)."""
        gc = GrassmannConstants(4, 2)
        expect = math.gamma(0.25) / 4.0 * 0.5 ** (-0.25) * 2.0 ** (-bits / 4)
        assert distortion_bound(gc, bits) == pytest.approx(expect, rel=1e-12, abs=0)

    def test_large_shape(self):
        """G(400, 200): C_MN = 2^log2_c underflows a double, but C_MN^(-1/T)
        is about 83 and the bound is finite once 2^B C_MN >= 1."""
        gc = GrassmannConstants(400, 200)
        c_root = 2.0 ** (-gc.log2_c / gc.t)
        assert 80 < c_root < 90
        bits = 10 ** 6
        expect = math.gamma(1 / gc.t) / gc.t * c_root * 2.0 ** (-bits / gc.t)
        assert distortion_bound(gc, bits) == pytest.approx(expect, rel=1e-12)

    def test_a_parameter_validation(self):
        gc = GrassmannConstants(4, 2)
        with pytest.raises(ParameterError):
            distortion_bound(gc, 10, a=1.0)
        with pytest.raises(ParameterError):
            distortion_bound(gc, 10, a=0.0)

    def test_a_sweep_consistent(self):
        gc = GrassmannConstants(4, 2)
        main = distortion_main_term(gc, 12)
        for a in (0.1, 0.5, 0.9):
            assert distortion_bound(gc, 12, a=a) >= main


def _mean_min_d2_reference(gc, bits):
    """C_MN^(-1/T) Gamma(1 + 1/T) Gamma(n + 1) / Gamma(n + 1 + 1/T), n = 2^B,
    from mpmath log-gammas at enough digits to resolve their difference."""
    import mpmath

    with mpmath.workdps(30 + int(bits * 0.30103)):
        n = mpmath.mpf(2) ** bits
        a = mpmath.mpf(1) / gc.t
        c = mpmath.mpf(gc.c_exact.numerator) / gc.c_exact.denominator
        ratio = mpmath.exp(mpmath.loggamma(n + 1) - mpmath.loggamma(n + 1 + a))
        return float(c ** (-a) * mpmath.gamma(1 + a) * ratio)


class TestMeanMinD2:
    """The exact mean of the minimum of 2^B draws of the metric-ball law."""

    @pytest.mark.parametrize("m,n", [(4, 1), (8, 1), (4, 2), (6, 2), (8, 4), (12, 2)])
    def test_against_log_gamma_reference(self, m, n):
        gc = GrassmannConstants(m, n)
        for bits in list(range(65)) + [100, 1000, 2000]:
            got = grassmann._mean_min_d2(gc, bits)
            assert got == pytest.approx(_mean_min_d2_reference(gc, bits), rel=1e-12, abs=0), bits
            # the main term bounds it from above, and is its limit
            assert got <= distortion_main_term(gc, bits)
        assert got == distortion_main_term(gc, 2000)

    def test_hand_values(self):
        """G(M, 1), where d^2 has CDF x^T with T = M - 1. One entry:
        E[d^2] = 1 - 1/M. Two: int (1 - x^T)^2 dx = 2T^2/((T + 1)(2T + 1))."""
        for m in (2, 4, 8):
            gc = GrassmannConstants(m, 1)
            t = m - 1
            assert grassmann._mean_min_d2(gc, 0) == pytest.approx(1 - 1 / m, rel=1e-15)
            assert grassmann._mean_min_d2(gc, 1) == pytest.approx(
                2 * t * t / ((t + 1) * (2 * t + 1)), rel=1e-15)

    @pytest.mark.parametrize("m,n", [(4, 1), (4, 2), (12, 2)])
    def test_underflows_at_huge_budgets(self, m, n):
        assert grassmann._mean_min_d2(GrassmannConstants(m, n), 10 ** 5) == 0.0

    def test_matches_scan_sample_mean(self):
        """The scan's min d^2 of G(4, 1) at B = 3 averages to it."""
        gc = GrassmannConstants(4, 1)
        d2 = distortion_samples(RngStream(11).child(4), 4, 1, 3, 20000)
        se = d2.std(ddof=1) / math.sqrt(d2.size)
        assert abs(d2.mean() - grassmann._mean_min_d2(gc, 3)) <= 3.5 * se


class TestEmpiricalDistortion:
    def test_unquantized_scalar_beta_mean(self):
        # B=0, M=2, N=1: single random entry, d^2 ~ Beta(1,1), mean 1/2
        val = np.mean(distortion_samples(RngStream(11).child(0), 2, 1, 0, 100000))
        assert val == pytest.approx(0.5, abs=0.01)

    def test_unquantized_matrix_beta_mean(self):
        # B=0, M=4, N=2: E[tr Beta(2,2)] = 2*2/4 = 1
        val = np.mean(distortion_samples(RngStream(11).child(1), 4, 2, 0, 100000))
        assert val == pytest.approx(1.0, abs=0.01)

    def test_below_bound(self):
        """Sample mean stays under the bound up to 99% sampling error.
        At these budgets the bound is nearly tight (slack ~ mean / 2^B), so
        the CI allowance is essential, not optional."""
        for m, n, bits in ((4, 1, 8), (4, 2, 10)):
            gc = GrassmannConstants(m, n)
            d2 = distortion_samples(RngStream(11).child(2, m), m, n, bits, 10000)
            ci = 2.5758 * d2.std(ddof=1) / np.sqrt(d2.size)
            assert float(d2.mean()) <= distortion_bound(gc, bits) + ci

    @pytest.mark.parametrize("kwargs", [
        {"trials": 2.5}, {"trials": True}, {"trials": 0}, {"bits": 2.5}, {"bits": True}, {"bits": -1},
    ])
    def test_non_count_arguments_raise(self, kwargs):
        args = {"m": 4, "n": 2, "bits": 2, "trials": 8} | kwargs
        with pytest.raises(ParameterError):
            distortion_samples(RngStream(11), **args)

    def test_samples_deterministic(self):
        a = distortion_samples(RngStream(11).child(3), 4, 2, 6, 500)
        b = distortion_samples(RngStream(11).child(3), 4, 2, 6, 500)
        assert np.array_equal(a, b)
        assert a.shape == (500,)
        assert a.min() >= 0.0 and a.max() <= 2.0


def _per_block_scan(gen, m, n, bits, count, hq=None):
    """The scan as one gaussian_matrix draw per block of trials, with every
    entry orthonormalized and scanned. With hq None, each block's channels
    are drawn just before its codebooks. It is the explicit-codebook law
    the scan must match."""
    size = 2 ** bits
    block = max(1, grassmann._SCAN_BLOCK_ELEMS // (size * m * n))
    d2 = np.empty(count)
    won = np.empty((count, m, n), dtype=np.complex128)
    for lo in range(0, count, block):
        hi = min(lo + block, count)
        if hq is None:
            frames = thin_qr_batch(gaussian_matrix(gen, m, n, batch=(hi - lo,)))[0]
        else:
            frames = hq[lo:hi]
        g = gaussian_matrix(gen, m, n, batch=(hi - lo, size))
        _, d2[lo:hi], won[lo:hi] = grassmann._scan_np(frames, thin_qr_batch(g)[0])
    return d2, won


def _gamma(gen, k, e):
    """e Gamma(k) variates as the scan draws them: -log of the product of k
    uniform rows 1 - U on (0, 1] for k <= 3, else standard_gamma(k)."""
    if k > 3:
        return gen.standard_gamma(k, size=e)
    return -np.log(np.prod([1.0 - gen.random(e) for _ in range(k)], axis=0))


def _angle_scan(gen, m, n, bits, count):
    """(d2, idx, b11, b21) of the angle scan, entry by entry with numpy:
    each block draws, for c_i^2 ~ Beta(i, m - 2n + i), i = 1..n, and then
    c'_i^2 ~ Beta(i, m - 2n + 1 + i), i = 1..n-1, over its entries either
    one uniform row U at p = 1, with sin^2 = (1 - U)^(1/q) and
    cos^2 = 1 - sin^2, or a Gamma(p) and then a Gamma(q) row; it builds each
    entry's bidiagonal blocks B11 and B21 of the beta = 2 Jacobi model
    element by element and scores it as n - ||B11||_F^2."""
    size = 2 ** bits
    block = grassmann._scan_block(size, m, n)
    d2, idx = np.empty(count), np.empty(count, dtype=np.int64)
    b11, b21 = (np.zeros((count, n, n)) for _ in range(2))
    laws = [(i, m - 2 * n + i) for i in range(1, n + 1)] + [(i, m - 2 * n + 1 + i) for i in range(1, n)]
    for lo in range(0, count, block):
        hi = min(lo + block, count)
        e = (hi - lo) * size
        cos2, sin2 = [], []
        for p, q in laws:
            if p == 1:
                sin2.append((1.0 - gen.random(e)) ** (1.0 / q))
                cos2.append(1.0 - sin2[-1])
            else:
                gp, gq = _gamma(gen, p, e), _gamma(gen, q, e)
                cos2.append(gp / (gp + gq))
                sin2.append(gq / (gp + gq))
        # c[i - 1] = c_i and cp[i - 1] = c'_i, 1-based as in the model
        c, s, cp, sp = (np.sqrt(x) for x in (cos2[:n], sin2[:n], cos2[n:], sin2[n:]))
        e11, e21 = np.zeros((e, n, n)), np.zeros((e, n, n))
        for r in range(n):
            i = n - r
            scale = sp[i - 1] if i < n else 1.0
            e11[:, r, r], e21[:, r, r] = c[i - 1] * scale, s[i - 1] * scale
            if r + 1 < n:
                e11[:, r, r + 1], e21[:, r, r + 1] = -s[i - 1] * cp[i - 2], c[i - 1] * cp[i - 2]
        d = (n - np.sum(e11 ** 2, axis=(1, 2))).reshape(hi - lo, size)
        idx[lo:hi] = np.argmin(d, axis=1)
        d2[lo:hi] = d[np.arange(hi - lo), idx[lo:hi]]
        won = np.arange(hi - lo) * size + idx[lo:hi]
        b11[lo:hi], b21[lo:hi] = e11[won], e21[won]
    return d2, idx, b11, b21


class TestScanFreshCodebooks:
    def test_matches_per_trial_oracle(self):
        """Each trial's d^2 is the minimum over its entries' Jacobi-model
        angles, drawn in the documented order and scored entry by entry, and
        its winner is built from the winning entry's blocks by the draws
        that follow them."""
        m, n, bits, trials = 4, 2, 3, 6
        hq = isotropic_frame(RngStream(12).child(0), m, n, batch=(trials,))
        gen, ref = RngStream(12).child(1).generator(), RngStream(12).child(1).generator()
        won, d2 = scan_fresh_codebooks(gen, hq, bits)
        d2_ref, _, b11, b21 = _angle_scan(ref, m, n, bits, trials)
        assert np.abs(d2 - d2_ref).max() <= 1e-12
        us = orthonormalize(gaussian_matrix(ref, n, n, batch=(trials,)))
        z = gaussian_matrix(ref, m, n, batch=(trials,))
        for t in range(trials):
            uw = orthonormalize(z[t] - hq[t] @ (hq[t].conj().T @ z[t]))
            want = orthonormalize(hq[t] @ us[t] @ b11[t] + uw @ b21[t])
            assert np.abs(won[t] - want).max() <= 1e-12
        assert np.array_equal(gen.standard_normal(8), ref.standard_normal(8))

    def test_guards(self):
        gen = RngStream(12).child(2).generator()
        hq = isotropic_frame(RngStream(12).child(3), 4, 2, batch=(1,))
        with pytest.raises(ParameterError):
            scan_fresh_codebooks(gen, hq, -1)
        with pytest.raises(MemoryGuard):
            scan_fresh_codebooks(gen, hq, 25)

    @pytest.mark.parametrize("m,n,bits", [(4, 2, 0), (4, 2, 2), (4, 2, 8), (6, 2, 8), (6, 3, 4), (8, 1, 6)])
    def test_law_matches_explicit_codebooks(self, m, n, bits):
        """Two-sample KS p >= 0.01 for the scan's and distortion_samples'
        d^2 against the scan of explicit Gaussian codebooks."""
        count = 2048
        seed = RngStream(21).child(m, n, bits)
        ref = _per_block_scan(seed.child(0).generator(), m, n, bits, count)[0]
        hq = isotropic_frame(seed.child(1), m, n, batch=(count,))
        d2 = scan_fresh_codebooks(seed.child(2).generator(), hq, bits)[1]
        samples = distortion_samples(seed.child(3), m, n, bits, count)
        assert _ks_2samp(d2, ref)[1] >= 0.01
        assert _ks_2samp(samples, ref)[1] >= 0.01

    @pytest.mark.parametrize("m,n,bits", [(4, 2, 4), (6, 3, 2), (4, 2, 8)])
    def test_winner_span_matches_explicit_codebooks(self, m, n, bits):
        """Winners built from their Jacobi-model blocks have the span law
        of explicit winners: for the same channels, two-sample KS p >= 0.01
        against the winners of explicit Gaussian codebooks for
        ||hq[:, 0]^H Q||^2 and ||x^H Q||^2, x a fixed unit vector projected
        off hq. Both see the principal vectors, not only the angles."""
        count = 3000
        seed = RngStream(26).child(m, n, bits)
        hq = isotropic_frame(seed.child(0), m, n, batch=(count,))
        ref = _per_block_scan(seed.child(1).generator(), m, n, bits, count, hq)[1]
        won = scan_fresh_codebooks(seed.child(2).generator(), hq, bits)[0]
        x = np.arange(1.0, m + 1) - np.einsum("tmn,tpn,p->tm", hq, hq.conj(), np.arange(1.0, m + 1))
        x /= np.linalg.norm(x, axis=1, keepdims=True)

        def laws(q):
            return [(np.abs(np.einsum("tm,tmn->tn", v.conj(), q)) ** 2).sum(axis=1) for v in (hq[:, :, 0], x)]

        for a, b in zip(laws(won), laws(ref)):
            assert _ks_2samp(a, b)[1] >= 0.01

    @pytest.mark.parametrize("bits", [0, 3, 7])
    def test_width_one_mean_is_exact(self, bits):
        """For G(M, 1) the metric-ball law holds on all of [0, 1], so
        _mean_min_d2 is the exact mean at every B: the scan's sample mean
        is within 4 standard errors of it."""
        m, count = 6, 20000
        gen = RngStream(22).child(bits).generator()
        hq = isotropic_frame(RngStream(22).child(99), m, 1, batch=(count,))
        want = grassmann._mean_min_d2(GrassmannConstants(m, 1), bits)
        for d2 in (scan_fresh_codebooks(gen, hq, bits)[1], distortion_samples(gen, m, 1, bits, count)):
            se = d2.std(ddof=1) / math.sqrt(count)
            assert abs(d2.mean() - want) <= 4 * se

    @pytest.mark.parametrize("m,n,bits", [(4, 2, 0), (4, 2, 8), (6, 3, 4), (8, 1, 6)])
    def test_winners_reproduce_d2(self, m, n, bits):
        """Each winner is an orthonormal frame whose chordal distance to
        its channel is the returned d^2."""
        count = 300
        hq = isotropic_frame(RngStream(23).child(m, n), m, n, batch=(count,))
        won, d2 = scan_fresh_codebooks(RngStream(23).child(bits).generator(), hq, bits)
        gram = np.einsum("tmi,tmj->tij", won.conj(), won)
        assert np.abs(gram - np.eye(n)).max() <= 1e-12
        for t in range(count):
            assert abs(chordal_distance_sq(hq[t], won[t]) - d2[t]) <= 1e-12

    @pytest.mark.parametrize("bits", [0, 6])
    def test_same_state_same_bytes(self, bits):
        """Equal generator states give equal bytes and leave both streams
        at the same position."""
        m, n, count = 6, 2, 700
        hq = isotropic_frame(RngStream(24), m, n, batch=(count,))
        gens = [RngStream(25).generator() for _ in range(2)]
        (wa, d2a), (wb, d2b) = (scan_fresh_codebooks(g, hq, bits) for g in gens)
        assert np.array_equal(d2a, d2b)
        assert np.array_equal(wa.view(np.float64), wb.view(np.float64))
        assert np.array_equal(gens[0].standard_normal(8), gens[1].standard_normal(8))
        gens = [RngStream(25).generator() for _ in range(2)]
        assert np.array_equal(*(distortion_samples(g, m, n, bits, count) for g in gens))
        assert np.array_equal(gens[0].standard_normal(8), gens[1].standard_normal(8))


class TestJacobiModel:
    """The beta = 2 Jacobi model the scan draws its entries from."""

    @pytest.mark.parametrize("m,n", [(4, 2), (6, 3), (8, 2)])
    def test_angle_law_matches_explicit_frames(self, m, n):
        """The eigenvalues of B11^T B11 are an entry's cos^2 of principal
        angles: for model rows drawn by a one-entry scan, the min and max
        eigenvalue match, by two-sample KS p >= 0.01, the least and largest
        squared singular value of hq^H Q for explicit isotropic frames.
        (4, 2) and (6, 3) have b = m - 2n = 0, (8, 2) has b = 4."""
        count = 5000
        seed = RngStream(27).child(m, n)
        rows = grassmann._scan_stats(seed.generator(), m, n, 0, count, winners=True)[1]
        b11 = grassmann._jacobi_blocks(rows)[0]
        model = np.linalg.eigvalsh(np.swapaxes(b11, 1, 2) @ b11)
        hq, q = (isotropic_frame(seed.child(k), m, n, batch=(count,)) for k in (1, 2))
        explicit = np.sort(np.linalg.svd(np.swapaxes(hq.conj(), 1, 2) @ q, compute_uv=False) ** 2, axis=1)
        for k in (0, -1):
            assert _ks_2samp(model[:, k], explicit[:, k])[1] >= 0.01

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_score_is_b21_norm(self, n):
        """_angle_d2 of any non-negative rows is ||B21||_F^2 of the blocks
        the winner builder makes from them. For rows with cos^2 + sin^2 = 1
        the columns of [B11; B21] are orthonormal, so it is also
        n - ||B11||_F^2."""
        rng = np.random.default_rng(28 + n)

        def score(rows):
            return grassmann._angle_d2(rows, np.empty(200), np.empty(200))

        rows = rng.uniform(0.0, 2.0, size=(2, 2 * n - 1, 200))
        assert np.abs(score(rows)
                      - np.sum(grassmann._jacobi_blocks(rows)[1] ** 2, axis=(1, 2))).max() <= 1e-13
        cos2 = rng.uniform(size=(2 * n - 1, 200))
        rows = np.stack([cos2, 1.0 - cos2])
        b11, b21 = grassmann._jacobi_blocks(rows)
        stacked = np.concatenate([b11, b21], axis=1)
        assert np.abs(np.swapaxes(stacked, 1, 2) @ stacked - np.eye(n)).max() <= 1e-14
        assert np.abs(score(rows) - (n - np.sum(b11 ** 2, axis=(1, 2)))).max() <= 1e-14


class _EditedGenerator(np.random.Generator):
    """Generator on the engine's bit generator whose random(out=...) calls
    pass each filled buffer and the call's ordinal to edit(out, call)."""

    def __init__(self, seed, edit):
        super().__init__(ensembles._BIT_GENERATOR(seed))
        self.edit = edit
        self.calls = 0

    def random(self, size=None, dtype=np.float64, out=None):
        res = super().random(size, dtype, out)
        self.edit(res, self.calls)
        self.calls += 1
        return res


class TestStreamedScan:
    """scan_fresh_codebooks draws and scores one block of trials at a time,
    from each entry's Jacobi-model angles, then builds the winners."""

    @pytest.mark.parametrize("m,n,bits,count", [
        (4, 2, 8, 250),
        (8, 1, 6, 700),
        (2, 1, 8, 1100),
        (6, 3, 4, 1300),
        (6, 3, 7, 130),
        (8, 2, 6, 300),
        (4, 2, 0, 41000),
    ])
    def test_matches_per_block_draw(self, m, n, bits, count):
        """Over several blocks, the last one partial, d^2 and the stream
        position equal the entry-by-entry angle scan. One-entry
        codebooks, over as many trials as several blocks would hold, are
        one isotropic_frame draw, bit for bit, scored by the chordal
        distance."""
        block = grassmann._scan_block(2 ** bits, m, n)
        assert 1 < block < count and count % block
        seed = RngStream(13).child(m, n, bits)
        hq = isotropic_frame(seed.child(0), m, n, batch=(count,))
        gen, ref = seed.generator(), seed.generator()
        won, d2 = scan_fresh_codebooks(gen, hq, bits)
        if bits == 0:
            want = isotropic_frame(ref, m, n, batch=(count,))
            assert np.array_equal(won.view(np.float64), want.view(np.float64))
            for i in range(count):
                assert abs(d2[i] - chordal_distance_sq(hq[i], won[i])) <= 1e-15
        else:
            assert np.abs(d2 - _angle_scan(ref, m, n, bits, count)[0]).max() <= 1e-12
            gaussian_matrix(ref, n, n, batch=(count,))
            gaussian_matrix(ref, m, n, batch=(count,))
        assert np.array_equal(gen.standard_normal(8), ref.standard_normal(8))
        # distortion_samples draws the angles alone, one-entry codebooks too
        gen, ref = seed.generator(), seed.generator()
        d2 = distortion_samples(gen, m, n, bits, count)
        assert np.abs(d2 - _angle_scan(ref, m, n, bits, count)[0]).max() <= 1e-12
        assert np.array_equal(gen.standard_normal(8), ref.standard_normal(8))

    def test_rank_deficient_in_later_block_raises(self):
        """A zero Gamma sum for one entry, in the third block, raises
        RankDeficient and builds no winner. At (4, 2), b = m - 2n = 0, so
        the laws are c_1^2 ~ Beta(1, 1), c_2^2 ~ Beta(2, 2) and
        c'_1^2 ~ Beta(1, 2), and each block draws 1, 2 + 2 and 1 uniform
        fills for them: 6 fills. Fills 13-16, the second to fifth of block
        2, are c_2^2's G_p and G_q; a zero uniform in all four makes both
        -log(1) = 0 at entry 7."""
        m, n, bits = 4, 2, 4
        block = grassmann._scan_block(2 ** bits, m, n)
        count = 3 * block + 5
        target = {13, 14, 15, 16}  # c_2^2's G_p and G_q in block 2

        def edit(out, call):
            if call in target:
                out[7] = 0.0

        hq = isotropic_frame(RngStream(14), m, n, batch=(count,))
        with pytest.raises(RankDeficient):
            scan_fresh_codebooks(_EditedGenerator(15, edit), hq, bits)
        with pytest.raises(RankDeficient):
            distortion_samples(_EditedGenerator(15, edit), m, n, bits, count)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_statistic_raises(self, value):
        """A non-finite uniform in a Gamma row makes its product leave
        (0, 1]. At (6, 3), b = 0, so c_1^2 ~ Beta(1, 1) takes uniform fill
        0, c_2^2 ~ Beta(2, 2) fills 1-4, c_3^2 ~ Beta(3, 3) fills 5-7 for
        its G_p and 8-10 for its G_q, and c'_1^2 ~ Beta(1, 2) fill 11: fill
        10 is the last one multiplied into c_3^2's G_q."""
        m, n, bits = 6, 3, 2

        def edit(out, call):
            if call == 10:
                out[3] = value

        with pytest.raises(RankDeficient):
            distortion_samples(_EditedGenerator(16, edit), m, n, bits, 40)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("target", [0, 11])
    def test_non_finite_p1_uniform_raises(self, target, value):
        """A non-finite fill in the one uniform row of a p = 1 law raises
        RankDeficient: at (6, 3), fill 0 is c_1^2's and fill 11 c'_1^2's
        (see test_non_finite_statistic_raises)."""
        m, n, bits = 6, 3, 2

        def edit(out, call):
            if call == target:
                out[3] = value

        with pytest.raises(RankDeficient):
            distortion_samples(_EditedGenerator(16, edit), m, n, bits, 40)

    @pytest.mark.parametrize("q", [1, 2, 6])
    def test_p1_cos2_keeps_relative_accuracy(self, q):
        """A p = 1 law's cos^2 = -expm1(log(V) / q) keeps its relative
        accuracy where sin^2 = V^(1/q) is within 2^-30 of 1, where
        1 - sin^2 would lose about 30 bits. At N = 1 the law is
        Beta(1, M - 1), so M = q + 1; each one-entry trial's uniform
        u = 1 - V is set by hand, and the winner's cos^2 must match the
        series u/q + (q - 1) u^2 / (2 q^2) to 1e-15 relative (the next term
        is below u^2 / 3 of it, under 1e-17)."""
        u = np.unique(np.round(np.geomspace(1.0, q * 2.0 ** 22, 200))) * 2.0 ** -53

        def edit(out, call):
            out[:] = u

        rows = grassmann._scan_stats(_EditedGenerator(17, edit), q + 1, 1, 0, u.size, winners=True)[1]
        c2, s2 = rows[:, 0]
        assert np.all(1.0 - s2 <= 2.0 ** -30)
        want = u / q + (q - 1) * u * u / (2 * q * q)
        assert np.abs(c2 / want - 1.0).max() <= 1e-15


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScanMemory:
    def test_peak_below_complex_chunk(self):
        """1024 (4, 2, B=8) trials are 32 MB of complex codebooks; the scan
        holds one 2 MB block at a time."""
        m, n, bits, count = 4, 2, 8, 1024
        hq = isotropic_frame(RngStream(16), m, n, batch=(count,))
        peak = _traced_peak(lambda: scan_fresh_codebooks(RngStream(17).generator(), hq, bits))
        assert peak < count * 2 ** bits * m * n * 16

    @pytest.mark.parametrize("count", [1024, 4096])
    def test_peak_flat_in_trials(self, count):
        """The scan's peak is a few blocks' worth (a block, its draw buffer,
        its scores), whatever the trial count."""
        m, n, bits = 4, 2, 8
        hq = isotropic_frame(RngStream(16), m, n, batch=(count,))
        peak = _traced_peak(lambda: scan_fresh_codebooks(RngStream(17).generator(), hq, bits))
        assert peak < 4 * grassmann._SCAN_BLOCK_ELEMS * 16

    def test_one_entry_peak_no_higher(self):
        """A one-entry scan of 3072 (6, 2) frames is one block, drawn and
        orthonormalized as the per-entry scan does it. The 4 KB of slack is
        for Python objects alone."""
        m, n, count = 6, 2, 3072
        hq = isotropic_frame(RngStream(18), m, n, batch=(count,))
        peaks = [
            _traced_peak(lambda: scan_fresh_codebooks(RngStream(19).generator(), hq, 0)),
            _traced_peak(lambda: _per_block_scan(RngStream(19).generator(), m, n, 0, count, hq)),
        ]
        assert peaks[0] <= peaks[1] + 4096

    def test_two_block_peak_no_higher(self):
        """A scan of two full blocks holds one block's rows at a time: the
        second block reuses the first one's draw, spare and score rows, so
        it peaks no higher than a one-block scan. The 4 KB of slack is for
        Python objects and the longer d^2 result alone."""
        m, n, bits = 4, 2, 8
        block = grassmann._scan_block(2 ** bits, m, n)
        distortion_samples(RngStream(20), m, n, bits, 2 * block)
        one, two = (_traced_peak(lambda: distortion_samples(RngStream(20), m, n, bits, k * block)) for k in (1, 2))
        assert two <= one + 4096
