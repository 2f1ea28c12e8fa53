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
    chordal_distance_sq,
    distortion_bound,
    distortion_main_term,
    distortion_samples,
    empirical_distortion,
    load_codebook,
    principal_angles,
    quantize,
    random_codebook,
    save_codebook,
    scan_fresh_codebooks,
)
from grassfeed.linalg import orthonormalize, thin_qr_batch
from grassfeed import grassmann
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
        """Production trace form equals sum of sin^2 of principal angles
        (the reference definition) to 1e-9 over 1e4 random pairs."""
        gen = RngStream(1).child(0).generator()
        a = isotropic_frame(gen, 4, 2, batch=(10000,))
        b = isotropic_frame(gen, 4, 2, batch=(10000,))
        for i in range(10000):
            d2 = chordal_distance_sq(a[i], b[i])
            th = principal_angles(a[i], b[i])
            assert abs(d2 - float(np.sum(np.sin(th) ** 2))) <= 1e-9

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


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        cb = random_codebook(RngStream(7).child(0), 4, 2, 3)
        path = tmp_path / "cb.gfcb"
        save_codebook(cb, path)
        back = load_codebook(path)
        assert back.m == 4 and back.n == 2 and back.bits == 3
        assert np.array_equal(back.entries, cb.entries)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.gfcb"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ParameterError):
            load_codebook(path)

    @pytest.mark.parametrize("edit", ["truncated", "trailing", "short_header", "m_zero", "huge_bits"])
    def test_rejects_malformed_file(self, tmp_path, edit):
        """A (4, 2, B=3) file with its payload cut or padded, its header cut,
        M set to 0, or B set to 2^32 - 1, which must fail before 2^B is formed."""
        path = tmp_path / "cb.gfcb"
        save_codebook(random_codebook(RngStream(7).child(0), 4, 2, 3), path)
        raw = path.read_bytes()
        header = np.frombuffer(raw[4:20], dtype="<u4").copy()  # version, M, N, B
        if edit == "m_zero":
            header[1] = 0
        elif edit == "huge_bits":
            header[3] = 2 ** 32 - 1
        raw = raw[:4] + header.tobytes() + raw[20:]
        cuts = {"truncated": raw[:-16], "trailing": raw + b"\x00" * 16, "short_header": raw[:12]}
        path.write_bytes(cuts.get(edit, raw))
        with pytest.raises(ParameterError):
            load_codebook(path)


class TestSingleSampleCdf:
    def test_closed_form_cdf(self):
        """P(d^2 <= x) = C_MN x^T on [0,1] for (4,2) and (6,2)."""
        for m, n in ((4, 2), (6, 2)):
            gc = GrassmannConstants(m, n)
            gen = RngStream(9).child(m).generator()
            h = isotropic_frame(gen, m, n, batch=(100000,))
            w = isotropic_frame(gen, m, n, batch=(100000,))
            g = np.einsum("tmn,tmp->tnp", h.conj(), w)
            d2 = n - np.sum(np.abs(g) ** 2, axis=(1, 2))
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


class TestEmpiricalDistortion:
    def test_unquantized_scalar_beta_mean(self):
        # B=0, M=2, N=1: single random entry, d^2 ~ Beta(1,1), mean 1/2
        val = empirical_distortion(RngStream(11).child(0), 2, 1, 0, 100000)
        assert val == pytest.approx(0.5, abs=0.01)

    def test_unquantized_matrix_beta_mean(self):
        # B=0, M=4, N=2: E[tr Beta(2,2)] = 2*2/4 = 1
        val = empirical_distortion(RngStream(11).child(1), 4, 2, 0, 100000)
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
        with pytest.raises(ParameterError):
            empirical_distortion(RngStream(11), **args)

    def test_samples_deterministic(self):
        a = distortion_samples(RngStream(11).child(3), 4, 2, 6, 500)
        b = distortion_samples(RngStream(11).child(3), 4, 2, 6, 500)
        assert np.array_equal(a, b)
        assert a.shape == (500,)
        assert a.min() >= 0.0 and a.max() <= 2.0


class TestScanFreshCodebooks:
    def test_matches_per_trial_oracle(self):
        """One block: the trials' codebooks are one draw, and each winner is
        the chordal-nearest of its entries, lowest index first."""
        m, n, bits, trials = 4, 2, 3, 6
        hq = isotropic_frame(RngStream(12).child(0), m, n, batch=(trials,))
        d2, won = scan_fresh_codebooks(RngStream(12).child(1).generator(), hq, bits)
        gen = RngStream(12).child(1).generator()
        books = orthonormalize(gaussian_matrix(gen, m, n, batch=(trials, 2 ** bits)))
        for t, book in enumerate(books):
            dists = [chordal_distance_sq(hq[t], e) for e in book]
            best = int(np.argmin(dists))
            assert d2[t] == pytest.approx(dists[best], abs=1e-12)
            assert np.abs(won[t] - book[best]).max() <= 1e-12

    def test_guards(self):
        gen = RngStream(12).child(2).generator()
        hq = isotropic_frame(RngStream(12).child(3), 4, 2, batch=(1,))
        with pytest.raises(ParameterError):
            scan_fresh_codebooks(gen, hq, -1)
        with pytest.raises(MemoryGuard):
            scan_fresh_codebooks(gen, hq, 25)


def _per_block_scan(gen, m, n, bits, count, hq=None):
    """The scan as one gaussian_matrix draw per block of trials, with every
    entry orthonormalized and scanned. With hq None, each block's channels
    are drawn just before its codebooks, as distortion_samples draws them."""
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


class _EditedGenerator(np.random.Generator):
    """Philox generator whose standard_normal(out=...) calls pass each
    filled buffer, flattened, with its offset in the stream of normals, to
    edit(flat, offset)."""

    def __init__(self, seed, edit):
        super().__init__(np.random.Philox(seed))
        self.edit = edit
        self.offset = 0

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        res = super().standard_normal(size, dtype, out)
        flat = np.asarray(res).reshape(-1)
        self.edit(flat, self.offset)
        self.offset += flat.size
        return res


def _entry_positions(count, size, m, n, trial, entry, col):
    """Stream offsets of the real and imaginary parts of column col of one
    codebook entry, for a scan with fixed frames: each block's draw holds
    its real parts, then its imaginary parts."""
    block = grassmann._SCAN_BLOCK_ELEMS // (size * m * n)
    lo = trial - trial % block
    shape = (min(block, count - lo), size, m, n)
    re = [2 * lo * size * m * n + np.ravel_multi_index((trial - lo, entry, i, col), shape)
          for i in range(m)]
    return re, [p + math.prod(shape) for p in re]


class TestStreamedScan:
    """scan_fresh_codebooks draws and scores one block of trials at a time.
    Its output and stream position equal one gaussian_matrix draw per block
    with every entry orthonormalized and scanned."""

    @pytest.mark.parametrize("m,n,bits,count", [
        (4, 2, 8, 250),
        (8, 1, 6, 700),
        (2, 1, 8, 1100),
        (6, 3, 4, 1300),
        (6, 3, 7, 130),
        (4, 2, 0, 41000),
    ])
    def test_matches_per_block_draw(self, m, n, bits, count):
        block = grassmann._SCAN_BLOCK_ELEMS // (2 ** bits * m * n)
        # several blocks, the last one partial
        assert 1 < block < count and count % block
        seed = RngStream(13).child(m, n, bits)
        hq = isotropic_frame(seed.child(0), m, n, batch=(count,))
        gen, ref = seed.generator(), seed.generator()
        d2, won = scan_fresh_codebooks(gen, hq, bits)
        d2_ref, won_ref = _per_block_scan(ref, m, n, bits, count, hq)
        assert np.array_equal(d2, d2_ref)
        assert np.array_equal(won.view(np.float64), won_ref.view(np.float64))
        assert np.array_equal(gen.standard_normal(8), ref.standard_normal(8))
        # distortion_samples draws each block's channels before its codebooks
        gen, ref = seed.generator(), seed.generator()
        d2 = distortion_samples(gen, m, n, bits, count)
        assert np.array_equal(d2, _per_block_scan(ref, m, n, bits, count)[0])
        assert np.array_equal(gen.standard_normal(8), ref.standard_normal(8))

    @pytest.mark.parametrize("m,n,bits,count", [(4, 2, 8, 64), (6, 3, 2, 5), (8, 1, 4, 3)])
    def test_planes_hold_gaussian_matrix_bytes(self, m, n, bits, count):
        """The planes hold the real and imaginary parts of the
        gaussian_matrix draw of the same shape, entry index innermost, and
        the stream continues where that draw leaves it."""
        size = 2 ** bits
        gen, ref = RngStream(20).child(m, n).generator(), RngStream(20).child(m, n).generator()
        planes = np.empty((count, 2, m, n, size))
        grassmann._draw_planes(gen, np.empty((count, size, m, n)), planes)
        want = gaussian_matrix(ref, m, n, batch=(count, size)).transpose(0, 2, 3, 1)
        assert np.array_equal(planes[:, 0], want.real)
        assert np.array_equal(planes[:, 1], want.imag)
        assert np.array_equal(gen.standard_normal(8), ref.standard_normal(8))

    def test_rank_deficient_in_later_block_raises(self):
        """A zero column in an entry of the third block raises, as it does
        from the per-entry scan."""
        m, n, bits = 4, 2, 4
        block = grassmann._SCAN_BLOCK_ELEMS // (2 ** bits * m * n)
        count = 3 * block + 5
        zeros = set().union(*_entry_positions(count, 2 ** bits, m, n, 2 * block + 3, 7, 1))

        def edit(flat, offset):
            for p in zeros:
                if offset <= p < offset + flat.size:
                    flat[p - offset] = 0.0

        hq = isotropic_frame(RngStream(14), m, n, batch=(count,))
        with pytest.raises(RankDeficient):
            scan_fresh_codebooks(_EditedGenerator(15, edit), hq, bits)
        with pytest.raises(RankDeficient):
            _per_block_scan(_EditedGenerator(15, edit), m, n, bits, count, hq)

    def test_one_block_takes_exact_path(self, monkeypatch):
        """Near-parallel columns in one entry of the second block put its
        pivot under _PIVOT_MARGIN: that block alone is orthonormalized entry
        by entry, and the output is still the per-entry scan's."""
        m, n, bits = 4, 2, 4
        size = 2 ** bits
        block = grassmann._SCAN_BLOCK_ELEMS // (size * m * n)
        count = 3 * block + 5
        cols = [_entry_positions(count, size, m, n, block + 1, 3, j) for j in range(n)]
        pairs = [(c0, c1) for part in range(2) for c0, c1 in zip(cols[0][part], cols[1][part])]

        def edit(flat, offset):
            for c0, c1 in pairs:
                if offset <= c0 and c1 < offset + flat.size:
                    flat[c1 - offset] = flat[c0 - offset] + 1e-5 * flat[c1 - offset]

        seen = []

        def spy(a):
            seen.append(math.prod(a.shape[:-2]))
            return thin_qr_batch(a)

        hq = isotropic_frame(RngStream(14), m, n, batch=(count,))
        monkeypatch.setattr(grassmann, "thin_qr_batch", spy)
        d2, won = scan_fresh_codebooks(_EditedGenerator(15, edit), hq, bits)
        # winners of blocks 0, 2 and 3; every entry of block 1
        assert seen == [block, block * size, block, count - 3 * block]
        d2_ref, won_ref = _per_block_scan(_EditedGenerator(15, edit), m, n, bits, count, hq)
        assert np.array_equal(d2, d2_ref)
        assert np.array_equal(won.view(np.float64), won_ref.view(np.float64))


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
