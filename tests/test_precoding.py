import math
import warnings

import numpy as np
import pytest

from grassfeed.ensembles import (
    RngStream,
    gaussian_matrix,
    isotropic_frame,
    isotropic_frame_in_nullspace,
)
from grassfeed.errors import DimensionError, ParameterError, RankDeficient
from grassfeed.linalg import logdet_hermitian_batch
from grassfeed.precoding import (
    AnalogObservation,
    PrecoderSet,
    SystemConfig,
    analog_feedback,
    analog_feedback_batch,
    analog_rate_loss_bound,
    analog_rate_loss_limit,
    bd_precoders,
    bd_precoders_batch,
    _telatar,
    instant_rate_per_user,
    perfect_csi_sum_rate,
    rate_loss_bound,
    rates_batch,
    zf_precoders,
    zf_precoders_batch,
)
from grassfeed.quant_emulator import emulate_batch


def _bd_reference(h):
    """Per-trial BD: each user's precoder spans the left singular vectors
    of its complement beyond the complement's rank."""
    t, k, m, n = h.shape
    out = np.empty_like(h)
    for i in range(t):
        for kk in range(k):
            others = np.concatenate([h[i, j] for j in range(k) if j != kk], axis=1)
            out[i, kk] = np.linalg.svd(others)[0][:, others.shape[1]:]
    return out


def _zf_reference(h):
    """Per-trial ZF: each beam is the last left singular vector of the
    other M - 1 columns, their nullspace."""
    t, k, m, n = h.shape
    out = np.empty_like(h)
    for i in range(t):
        cols = np.concatenate(list(h[i]), axis=1)
        for j in range(m):
            out[i, j // n, :, j % n] = np.linalg.svd(np.delete(cols, j, axis=1))[0][:, -1]
    return out


def _rate_reference(p, h_k, mats, k):
    """User k's rate as the per-user difference of two Cholesky log-dets."""
    c = p / h_k.shape[0]
    full = np.eye(h_k.shape[1], dtype=complex)
    intf = full.copy()
    for j in range(mats.shape[0]):
        g = h_k.conj().T @ mats[j]
        term = c * (g @ g.conj().T)
        full += term
        if j != k:
            intf += term
    logdet = lambda a: 2.0 * np.sum(np.log2(np.real(np.diagonal(np.linalg.cholesky(a)))))
    return logdet(full) - logdet(intf)


def _rates_einsum(p, channels, precoders):
    """The per-pair einsum contraction rates_batch used before it formed
    every G_kj from one matmul; interference from the other users alone."""
    t, k, m, n = channels.shape
    c = p / m
    g = np.einsum("tkmn,tjmp->tkjnp", channels.conj(), precoders)
    gram = np.einsum("tkjnp,tkjqp->tkjnq", g, g.conj())
    users = np.arange(k)
    total = gram[:, users, users]
    gram[:, users, users] = 0.0
    intf = c * gram.sum(axis=2) + np.eye(n)
    return logdet_hermitian_batch(c * total + intf) - logdet_hermitian_batch(intf)


def _cross_gains(h, v):
    """|knowledge column^H beam| for every (column, beam) pair, (T, M, M)."""
    t, k, m, n = h.shape
    cols = np.swapaxes(h, -2, -1).reshape(t, m, m)
    beams = np.swapaxes(v, -2, -1).reshape(t, m, m)
    return np.abs(np.einsum("tim,tjm->tij", cols.conj(), beams))


class TestSystemConfig:
    def test_valid(self):
        cfg = SystemConfig(6, 2, 10.0)
        assert cfg.k == 3

    def test_rejects_undersized_m(self):
        with pytest.raises(ParameterError):
            SystemConfig(3, 2, 1.0)  # K would be < 2

    def test_rejects_nondivisible(self):
        with pytest.raises(ParameterError):
            SystemConfig(7, 2, 1.0)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ParameterError):
            SystemConfig(4, 2, 0.0)

    def test_precoder_set_validation(self):
        with pytest.raises(ParameterError):
            PrecoderSet(matrices=np.zeros((2, 4, 2), dtype=complex), scheme="mrt")
        with pytest.raises(DimensionError):
            PrecoderSet(matrices=np.zeros((4, 2), dtype=complex), scheme="bd")


class TestBdPrecoders:
    def test_identity_channel_blocks(self):
        """Users on disjoint coordinate planes: each precoder must span
        exactly its own user's plane."""
        cfg = SystemConfig(4, 2, 1.0)
        eye = np.eye(4, dtype=complex)
        know = np.stack([eye[:, :2], eye[:, 2:]])
        pre = bd_precoders(cfg, know)
        for k in range(2):
            v = pre.matrices[k]
            proj = v @ v.conj().T
            expect = know[k] @ know[k].conj().T
            np.testing.assert_allclose(proj, expect, atol=1e-12)

    @pytest.mark.parametrize("m,n", [(4, 2), (6, 2), (8, 2)])
    def test_zero_interference_residual(self, m, n):
        cfg = SystemConfig(m, n, 10.0)
        gen = RngStream(41).child(m).generator()
        for _ in range(50):
            h = gaussian_matrix(gen, m, n, batch=(cfg.k,))
            pre = bd_precoders(cfg, h)
            for k in range(cfg.k):
                v = pre.matrices[k]
                np.testing.assert_allclose(
                    v.conj().T @ v, np.eye(n), atol=1e-10
                )
                for j in range(cfg.k):
                    if j == k:
                        continue
                    assert np.abs(h[j].conj().T @ v).max() <= 1e-9

    def test_quantized_knowledge_leaks(self):
        """Precoders built from quantized knowledge null the quantized
        frames exactly but leave residual interference on the true
        channels."""
        cfg = SystemConfig(4, 2, 10.0)
        gen = RngStream(41).child(9).generator()
        h = gaussian_matrix(gen, 4, 2, batch=(2,))
        frames = np.stack([np.linalg.qr(h[k])[0] for k in range(2)])
        quant, _ = emulate_batch(gen, frames, 8)
        pre = bd_precoders(cfg, quant)
        for k in range(2):
            j = 1 - k
            assert np.abs(quant[j].conj().T @ pre.matrices[k]).max() <= 1e-9
            assert np.abs(h[j].conj().T @ pre.matrices[k]).max() > 1e-3

    def test_wrong_shape(self):
        cfg = SystemConfig(4, 2, 1.0)
        with pytest.raises(DimensionError):
            bd_precoders(cfg, np.zeros((3, 4, 2), dtype=complex))

    @pytest.mark.parametrize("m,n", [(4, 2), (6, 2), (8, 2)])
    def test_batch_leakage(self, m, n):
        """max |H_j^H V_k| over j != k stays at rounding level on 4096
        Gaussian trials, ill-conditioned draws included."""
        gen = RngStream(41).child(100, m).generator()
        h = gaussian_matrix(gen, m, n, batch=(4096, m // n))
        gains = _cross_gains(h, bd_precoders_batch(h))
        own = np.kron(np.eye(m // n, dtype=bool), np.ones((n, n), dtype=bool))
        assert gains[:, ~own].max() <= 1e-9


@pytest.mark.filterwarnings("error")
class TestSingularKnowledge:
    """Singular or non-finite stacked knowledge is a RankDeficient, never a
    numpy error or warning, for BD and ZF alike."""

    @staticmethod
    def _cases():
        eye = np.eye(4, dtype=complex)
        zeros = np.zeros((2, 4, 2), dtype=complex)
        shared = np.stack([eye[:, :2], eye[:, :2]])  # two users, one plane
        nan = np.full((2, 4, 2), np.nan, dtype=complex)  # LAPACK inverts it to NaN silently
        return [zeros, shared, nan]

    @pytest.mark.parametrize("build", [bd_precoders, zf_precoders])
    def test_scalar(self, build):
        cfg = SystemConfig(4, 2, 1.0)
        for know in self._cases():
            with pytest.raises(RankDeficient):
                build(cfg, know)

    @pytest.mark.parametrize("build", [bd_precoders_batch, zf_precoders_batch])
    def test_batch(self, build):
        gen = RngStream(41).child(101).generator()
        for know in self._cases():
            stack = gaussian_matrix(gen, 4, 2, batch=(5, 2))
            stack[3] = know
            with pytest.raises(RankDeficient):
                build(stack)


class TestZfPrecoders:
    def test_identity_channel(self):
        """Orthogonal single-antenna directions invert to themselves."""
        cfg = SystemConfig(4, 2, 1.0)
        eye = np.eye(4, dtype=complex)
        know = np.stack([eye[:, :2], eye[:, 2:]])
        pre = zf_precoders(cfg, know)
        got = np.abs(np.concatenate([pre.matrices[0], pre.matrices[1]], axis=1))
        np.testing.assert_allclose(got, np.eye(4), atol=1e-12)

    def test_per_antenna_nulling(self):
        cfg = SystemConfig(6, 2, 10.0)
        gen = RngStream(43).child(0).generator()
        for _ in range(30):
            h = gaussian_matrix(gen, 6, 2, batch=(3,))
            pre = zf_precoders(cfg, h)
            cols = np.concatenate([h[k] for k in range(3)], axis=1)  # (M, 6)
            for j in range(6):
                beam = pre.matrices[j // 2][:, j % 2]
                assert np.linalg.norm(beam) == pytest.approx(1.0, abs=1e-10)
                others = np.delete(cols, j, axis=1)
                assert np.abs(others.conj().T @ beam).max() <= 1e-9

    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    def test_scale_invariant_beams(self, scale):
        """Knowledge scaled by 1e+-160 gives the unit-scale beams: each beam
        is normalized after an exact power-of-two scaling, so its squared
        norm neither over- nor underflows. Warnings are errors."""
        cfg = SystemConfig(6, 2, 10.0)
        h = gaussian_matrix(RngStream(43).child(2), 6, 2, batch=(3,))
        ref = zf_precoders(cfg, h).matrices
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = zf_precoders(cfg, h * scale).matrices
        assert np.abs(got - ref).max() <= 1e-12

    @pytest.mark.parametrize("m,n", [(8, 1), (6, 2)])
    def test_batch_leakage(self, m, n):
        """max over i != j of |h_i^H v_j| on 4096 Gaussian trials."""
        gen = RngStream(43).child(100, m).generator()
        h = gaussian_matrix(gen, m, n, batch=(4096, m // n))
        v = zf_precoders_batch(h)
        gains = _cross_gains(h, v)
        assert gains[:, ~np.eye(m, dtype=bool)].max() <= 1e-9
        np.testing.assert_allclose(np.linalg.norm(v, axis=-2), 1.0, atol=1e-12)

    def test_zf_below_bd_under_perfect_csit(self):
        """Per-antenna nulling wastes degrees of freedom relative to
        block nulling, so BD sum rate dominates on average."""
        cfg = SystemConfig(4, 2, 100.0)
        gen = RngStream(43).child(1).generator()
        h = gaussian_matrix(gen, 4, 2, batch=(2000, 2))
        bd = rates_batch(cfg.p, h, bd_precoders_batch(h), "bd")[0].sum(axis=1)
        zf = rates_batch(cfg.p, h, zf_precoders_batch(h), "zf")[0].sum(axis=1)
        assert bd.mean() > zf.mean()
        # and not degenerately so
        assert zf.mean() > 0.5 * bd.mean()


class TestInstantRate:
    def test_vanishes_at_zero_power(self):
        cfg = SystemConfig(4, 2, 1e-12)
        gen = RngStream(45).child(0).generator()
        h = gaussian_matrix(gen, 4, 2, batch=(2,))
        pre = bd_precoders(cfg, h)
        assert instant_rate_per_user(cfg, h[0], pre, 0) == pytest.approx(0.0, abs=1e-9)

    def test_perfect_csit_single_term(self):
        """With exact nulling the interference factor is identity, so the
        rate must equal log2 det(I + c G G^H) alone."""
        cfg = SystemConfig(6, 2, 25.0)
        gen = RngStream(45).child(1).generator()
        h = gaussian_matrix(gen, 6, 2, batch=(3,))
        pre = bd_precoders(cfg, h)
        for k in range(3):
            g = h[k].conj().T @ pre.matrices[k]
            lone = np.linalg.slogdet(
                np.eye(2) + cfg.p / 6.0 * g @ g.conj().T
            )[1] / np.log(2)
            got = instant_rate_per_user(cfg, h[k], pre, k)
            assert got == pytest.approx(lone, abs=1e-9)

    def test_slogdet_oracle(self):
        """Independent re-computation of both determinant terms with numpy
        slogdet, random (possibly non-nulling) precoders."""
        cfg = SystemConfig(4, 2, 10.0)
        gen = RngStream(45).child(2).generator()
        for _ in range(100):
            h = gaussian_matrix(gen, 4, 2, batch=(2,))
            mats = isotropic_frame(gen, 4, 2, batch=(2,))
            pre = PrecoderSet(matrices=mats, scheme="bd")
            for k in range(2):
                c = cfg.p / cfg.m
                full = np.eye(2, dtype=complex)
                intf = np.eye(2, dtype=complex)
                for j in range(2):
                    g = h[k].conj().T @ mats[j]
                    if j == k:
                        full = full + c * g @ g.conj().T
                    else:
                        full = full + c * g @ g.conj().T
                        intf = intf + c * g @ g.conj().T
                expect = (
                    np.linalg.slogdet(full)[1] - np.linalg.slogdet(intf)[1]
                ) / np.log(2)
                got = instant_rate_per_user(cfg, h[k], pre, k)
                assert got == pytest.approx(expect, abs=1e-9)

    def test_interference_reduces_rate(self):
        """Zeroing the interfering precoder can only raise user 0's rate."""
        cfg = SystemConfig(4, 2, 10.0)
        gen = RngStream(45).child(3).generator()
        h = gaussian_matrix(gen, 4, 2, batch=(2,))
        mats = isotropic_frame(gen, 4, 2, batch=(2,))
        with_intf = instant_rate_per_user(
            cfg, h[0], PrecoderSet(matrices=mats, scheme="bd"), 0
        )
        silent = mats.copy()
        silent[1] = 0
        without = instant_rate_per_user(
            cfg, h[0], PrecoderSet(matrices=silent, scheme="bd"), 0
        )
        assert without >= with_intf

    def test_index_validation(self):
        cfg = SystemConfig(4, 2, 1.0)
        gen = RngStream(45).child(4).generator()
        h = gaussian_matrix(gen, 4, 2, batch=(2,))
        pre = bd_precoders(cfg, h)
        with pytest.raises(ParameterError):
            instant_rate_per_user(cfg, h[0], pre, 2)
        with pytest.raises(DimensionError):
            instant_rate_per_user(cfg, h[0][:, :1], pre, 0)


class TestAnalogFeedback:
    def test_mmse_shrinkage_exact(self):
        cfg = SystemConfig(4, 2, 4.0)
        gen = RngStream(47).child(0).generator()
        h = gaussian_matrix(gen, 4, 2)
        obs = analog_feedback(gen, cfg, h, beta=2.0)
        snr = 2.0 * 4.0
        np.testing.assert_allclose(
            obs.estimate, np.sqrt(snr) / (1 + snr) * obs.received, atol=1e-15
        )

    def test_one_kernel_bytes(self):
        """analog_feedback and the engine's batch draw share one kernel; both
        equal the estimate written out, sqrt(s)/(1+s) (sqrt(s) H + W)."""
        cfg = SystemConfig(4, 2, 4.0)
        snr = 2.0 * cfg.p
        h = gaussian_matrix(RngStream(47).child(5).generator(), 4, 2, batch=(3, 2))
        for item in (h, h[1, 0]):
            noise = gaussian_matrix(RngStream(47).child(6).generator(), 4, 2, batch=item.shape[:-2])
            received, estimate = analog_feedback_batch(noise, item, snr)
            np.testing.assert_array_equal(received, math.sqrt(snr) * item + noise)
            np.testing.assert_array_equal(
                estimate, math.sqrt(snr) / (1.0 + snr) * (math.sqrt(snr) * item + noise)
            )
        obs = analog_feedback(RngStream(47).child(6).generator(), cfg, h[1, 0], 2.0)
        np.testing.assert_array_equal(obs.estimate, estimate)

    def test_high_beta_recovers_channel(self):
        cfg = SystemConfig(4, 2, 1.0)
        gen = RngStream(47).child(1).generator()
        h = gaussian_matrix(gen, 4, 2)
        obs = analog_feedback(gen, cfg, h, beta=1e8)
        assert np.abs(obs.estimate - h).max() <= 1e-3

    @staticmethod
    def _channels_and_estimates(stream, trials, snr):
        """(H, MMSE estimate) of ``trials`` 4 x 2 channels observed at
        beta P = snr, drawn through the batch kernel test_one_kernel_bytes
        pins to analog_feedback."""
        gen = stream.generator()
        h = gaussian_matrix(gen, 4, 2, batch=(trials,))
        noise = gaussian_matrix(gen, 4, 2, batch=(trials,))
        return h, analog_feedback_batch(noise, h, snr)[1]

    def test_error_variance(self):
        """E ||H - estimate||_F^2 = M N / (1 + beta P)."""
        cfg = SystemConfig(4, 2, 10.0)
        beta = 1.0
        h, estimate = self._channels_and_estimates(RngStream(47).child(2), 100000, beta * cfg.p)
        errs = np.sum(np.abs(h - estimate) ** 2, axis=(-2, -1))
        expect = 4 * 2 / (1 + beta * cfg.p)
        assert errs.mean() == pytest.approx(expect, rel=0.02)

    def test_residual_unit_variance(self):
        """F = sqrt(1 + beta P) (H - estimate) has unit-variance entries."""
        cfg = SystemConfig(4, 2, 10.0)
        beta = 1.0
        h, estimate = self._channels_and_estimates(RngStream(47).child(3), 50000, beta * cfg.p)
        residual = math.sqrt(1.0 + beta * cfg.p) * (h - estimate)
        assert np.mean(np.abs(residual) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_beta_validation(self):
        cfg = SystemConfig(4, 2, 1.0)
        gen = RngStream(47).child(4).generator()
        h = gaussian_matrix(gen, 4, 2)
        with pytest.raises(ParameterError):
            analog_feedback(gen, cfg, h, 0.0)


class TestRateLossBounds:
    def test_quantized_zero_distortion(self):
        cfg = SystemConfig(4, 2, 10.0)
        assert rate_loss_bound(cfg, 0.0) == 0.0

    def test_quantized_hand_value(self):
        # N=2, P=10, D=0.2: 2 log2(1 + 5*0.2) = 2
        cfg = SystemConfig(4, 2, 10.0)
        assert rate_loss_bound(cfg, 0.2) == pytest.approx(2.0, abs=1e-12)

    def test_analog_limit_hand_value(self):
        # 2 log2(1 + 0.5/1) = 2 log2(1.5) = 1.1699...
        assert analog_rate_loss_limit(4, 2, 1.0) == pytest.approx(
            1.1699250014423124, abs=1e-12
        )

    def test_analog_finite_below_limit(self):
        for p in (1.0, 10.0, 100.0, 1e4):
            cfg = SystemConfig(4, 2, p)
            assert analog_rate_loss_bound(cfg, 1.0) < analog_rate_loss_limit(4, 2, 1.0)

    def test_analog_monotone_to_limit(self):
        cfg_lo = SystemConfig(4, 2, 100.0)
        cfg_hi = SystemConfig(4, 2, 10000.0)
        lim = analog_rate_loss_limit(4, 2, 2.0)
        lo = analog_rate_loss_bound(cfg_lo, 2.0)
        hi = analog_rate_loss_bound(cfg_hi, 2.0)
        assert lo < hi < lim
        assert lim - hi < 0.01

    def test_analog_vanishes_with_beta(self):
        assert analog_rate_loss_limit(4, 2, 1e9) < 1e-8
        cfg = SystemConfig(4, 2, 10.0)
        assert analog_rate_loss_bound(cfg, 1e9) < 1e-8


def _scaled_e1(x):
    """e^x E_1(x): scipy's exp1 while e^x stays finite, beyond that the
    asymptotic series sum_k (-1)^k k! / x^(k+1), whose 30-term remainder is
    below 1e-40 relative from x = 700 up."""
    from scipy.special import exp1

    if x <= 700.0:
        return math.exp(x) * float(exp1(x))
    return sum((-1) ** k * math.factorial(k) / x ** (k + 1) for k in range(30))


class TestPerfectCsiMean:
    """T_N(c) = E ln det(I + c G G^H) over N x N i.i.d. CN(0, 1) matrices,
    and the perfect-CSI sum rate built on it."""

    def test_t1_is_scaled_exponential_integral(self):
        # up to the spec limit, 3082.5 dB
        for p_db in np.arange(-60.0, 3082.6, 2.5):
            c = 10.0 ** (p_db / 10.0)
            want = _scaled_e1(1.0 / c)
            assert _telatar(1, c) == pytest.approx(want, rel=1e-13, abs=0), p_db

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_tn_against_quadrature(self, n):
        from scipy import integrate
        from scipy.special import eval_laguerre

        def weight(lam):
            return sum(eval_laguerre(k, lam) ** 2 for k in range(n)) * math.exp(-lam)

        for c in np.logspace(-3.0, 4.0, 15):
            # the log's knee sits at 1/c, the weight's mass below about 4n
            cuts = sorted({0.0, min(1.0 / c, 50.0), 4.0 * n, 50.0})
            want = sum(
                integrate.quad(lambda lam: math.log1p(c * lam) * weight(lam), lo, hi,
                               epsabs=0.0, epsrel=1e-13, limit=200)[0]
                for lo, hi in zip(cuts, cuts[1:])
            )
            want += integrate.quad(lambda lam: math.log1p(c * lam) * weight(lam), 50.0, np.inf,
                                   epsabs=0.0, epsrel=1e-13, limit=200)[0]
            assert _telatar(n, c) == pytest.approx(want, rel=1e-10), c

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_tn_high_power_asymptote(self, n):
        """N ln c + sum_{i<=N} psi(i), the mean log-det of G G^H, once the
        O(ln c / c) remainder is gone."""
        from scipy.special import digamma

        for p_db in (300.0, 1000.0, 3000.0, 3082.5):
            c = 10.0 ** (p_db / 10.0)
            want = n * math.log(c) + sum(digamma(i) for i in range(1, n + 1))
            assert _telatar(n, c) == pytest.approx(want, rel=1e-12), p_db

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_tn_at_vanishing_power(self, n):
        """N^2 c to first order, and no inf from 1/c at c = 0 or subnormal c."""
        for c in (0.0, 5e-324, 1e-300, 1e-21):
            assert _telatar(n, c) == n * n * c
        below, above = _telatar(n, 0.999e-20), _telatar(n, 1.001e-20)
        assert below == pytest.approx(n * n * 0.999e-20, rel=1e-14)
        assert above == pytest.approx(n * n * 1.001e-20, rel=1e-14)

    def test_sum_rate_from_telatar(self):
        for p in (0.5, 10.0, 1e3):
            cfg = SystemConfig(6, 2, p)
            bd = perfect_csi_sum_rate(cfg)
            zf = perfect_csi_sum_rate(cfg, "zf")
            assert bd == pytest.approx(3 * _telatar(2, p / 6) / math.log(2.0), rel=1e-15)
            assert zf == pytest.approx(6 * _telatar(1, p / 6) / math.log(2.0), rel=1e-15)
            assert zf < bd

    def test_bd_zf_gap_at_high_power(self):
        """The means differ by K log2(e) sum_j (N - j)/j at high power,
        the gap :func:`bd_zf_rate_gap` states."""
        from grassfeed.scaling import bd_zf_rate_gap

        cfg = SystemConfig(6, 2, 1e12)
        gap = perfect_csi_sum_rate(cfg) - perfect_csi_sum_rate(cfg, "zf")
        assert gap == pytest.approx(bd_zf_rate_gap(6, 2), rel=1e-9)

    @pytest.mark.parametrize("scheme,m,n", [("bd", 4, 2), ("bd", 6, 3), ("zf", 6, 2)])
    def test_perfect_rates_average_to_it(self, scheme, m, n):
        """Perfect-CSI rates of fresh channels average to the closed form."""
        cfg = SystemConfig(m, n, 10.0)
        gen = RngStream(53).child(m, n).generator()
        h = gaussian_matrix(gen, m, n, batch=(4000, m // n))
        pre = bd_precoders_batch(h) if scheme == "bd" else zf_precoders_batch(h)
        rates, free, leak = rates_batch(cfg.p, h, pre, scheme)
        np.testing.assert_allclose(rates, free, rtol=1e-9, atol=1e-12)
        assert np.all(leak < 1e-20)
        total = rates.sum(axis=1)
        se = total.std(ddof=1) / math.sqrt(len(total))
        assert abs(total.mean() - perfect_csi_sum_rate(cfg, scheme)) <= 4 * se

    def test_free_rates_hand_values(self):
        """BD: log2 det(I + c G_kk G_kk^H); ZF: sum_i log2(1 + c |g_ii|^2);
        the leakage sum_{j!=k} ||H_k^H V_j||_F^2 under both, on precoders
        that leave interference."""
        gen = RngStream(53).child(0).generator()
        h = gaussian_matrix(gen, 4, 2, batch=(8, 2))
        pre = zf_precoders_batch(h + 0.3 * gaussian_matrix(gen, 4, 2, batch=(8, 2)))
        _, bd, leak_bd = rates_batch(10.0, h, pre, "bd")
        _, zf, leak_zf = rates_batch(10.0, h, pre, "zf")
        np.testing.assert_array_equal(leak_bd, leak_zf)
        for t in range(8):
            for k in range(2):
                g = h[t, k].conj().T @ pre[t, k]
                want_bd = np.linalg.slogdet(np.eye(2) + 2.5 * g @ g.conj().T)[1] / math.log(2.0)
                want_zf = np.sum(np.log2(1.0 + 2.5 * np.abs(np.diag(g)) ** 2))
                other = h[t, k].conj().T @ pre[t, 1 - k]
                assert bd[t, k] == pytest.approx(want_bd, abs=1e-12)
                assert zf[t, k] == pytest.approx(want_zf, abs=1e-12)
                assert leak_bd[t, k] == pytest.approx(np.sum(np.abs(other) ** 2), rel=1e-13)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ParameterError):
            perfect_csi_sum_rate(SystemConfig(4, 2, 10.0), "mmse")


class TestBatchParity:
    """The inverse-based kernels against the per-trial nullspace loops
    they replaced, at the benchmark shapes."""

    def test_bd_batch_matches_scalar(self):
        for m, n in ((6, 2), (8, 2)):
            cfg = SystemConfig(m, n, 10.0)
            gen = RngStream(49).child(0, m).generator()
            h = gaussian_matrix(gen, m, n, batch=(20, cfg.k))
            batch = bd_precoders_batch(h)
            ref = _bd_reference(h)
            for t in range(20):
                np.testing.assert_array_equal(bd_precoders(cfg, h[t]).matrices, batch[t])
                for k in range(cfg.k):
                    pb = batch[t, k] @ batch[t, k].conj().T
                    ps = ref[t, k] @ ref[t, k].conj().T
                    np.testing.assert_allclose(pb, ps, atol=1e-9)

    def test_zf_batch_matches_scalar(self):
        for m, n in ((4, 2), (8, 1), (6, 2)):
            cfg = SystemConfig(m, n, 10.0)
            gen = RngStream(49).child(1, m, n).generator()
            h = gaussian_matrix(gen, m, n, batch=(20, cfg.k))
            batch = zf_precoders_batch(h)
            ref = _zf_reference(h)
            for t in range(20):
                np.testing.assert_array_equal(zf_precoders(cfg, h[t]).matrices, batch[t])
            # beams are unit vectors unique up to phase
            inner = np.abs(np.sum(ref.conj() * batch, axis=-2))
            np.testing.assert_allclose(inner, 1.0, atol=1e-9)

    @pytest.mark.parametrize(
        "scheme,m,n", [("bd", 6, 2), ("bd", 8, 2), ("zf", 8, 1), ("zf", 6, 2)]
    )
    def test_rates_match_nullspace_reference(self, scheme, m, n):
        gen = RngStream(49).child(3, m, n).generator()
        h = gaussian_matrix(gen, m, n, batch=(256, m // n))
        if scheme == "bd":
            got, ref = bd_precoders_batch(h), _bd_reference(h)
        else:
            got, ref = zf_precoders_batch(h), _zf_reference(h)
        for p in (1.0, 1e3):
            np.testing.assert_allclose(
                rates_batch(p, h, got, scheme)[0], rates_batch(p, h, ref, scheme)[0], rtol=0, atol=1e-10
            )

    @pytest.mark.parametrize(
        "scheme,m,n", [("bd", 6, 2), ("bd", 4, 2), ("bd", 6, 3), ("zf", 8, 1), ("zf", 6, 2)]
    )
    def test_rates_match_einsum_contraction(self, scheme, m, n):
        """The one-matmul contraction and per-entry Grams against the
        per-pair einsum, on perturbed knowledge so every interference term
        is nonzero, from 0 to 200 dB."""
        gen = RngStream(49).child(4, m, n).generator()
        h = gaussian_matrix(gen, m, n, batch=(256, m // n))
        know = h + 0.3 * gaussian_matrix(gen, m, n, batch=(256, m // n))
        pre = bd_precoders_batch(know) if scheme == "bd" else zf_precoders_batch(know)
        for p in (1.0, 1e3, 1e10, 1e20):
            want = _rates_einsum(p, h, pre)
            got = rates_batch(p, h, pre, scheme)[0]
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_rates_batch_matches_scalar(self):
        """rates_batch and its scalar wrapper against a per-user log-det
        loop, on precoders that leave interference."""
        cfg = SystemConfig(4, 2, 10.0)
        gen = RngStream(49).child(2).generator()
        h = gaussian_matrix(gen, 4, 2, batch=(20, 2))
        pre = bd_precoders_batch(h + 0.3 * gaussian_matrix(gen, 4, 2, batch=(20, 2)))
        rates = rates_batch(cfg.p, h, pre, "bd")[0]
        assert rates.shape == (20, 2)
        for t in range(20):
            pset = PrecoderSet(matrices=pre[t], scheme="bd")
            for k in range(2):
                expect = _rate_reference(cfg.p, h[t, k], pre[t], k)
                assert rates[t, k] == pytest.approx(expect, abs=1e-9)
                assert instant_rate_per_user(cfg, h[t, k], pset, k) == pytest.approx(expect, abs=1e-9)

    @pytest.mark.parametrize(
        "scheme,m,n", [("bd", 4, 2), ("bd", 6, 2), ("bd", 6, 3), ("zf", 8, 1)]
    )
    def test_rates_match_per_user_cholesky(self, scheme, m, n):
        """rates_batch against the per-user LAPACK Cholesky log-dets of
        _rate_reference, from 0 to 200 dB."""
        gen = RngStream(49).child(5, m, n).generator()
        h = gaussian_matrix(gen, m, n, batch=(16, m // n))
        know = h + 0.3 * gaussian_matrix(gen, m, n, batch=(16, m // n))
        pre = bd_precoders_batch(know) if scheme == "bd" else zf_precoders_batch(know)
        for p in (1.0, 1e3, 1e10, 1e20):
            rates = rates_batch(p, h, pre, scheme)[0]
            want = np.array([[_rate_reference(p, h[t, k], pre[t], k) for k in range(m // n)]
                             for t in range(16)])
            assert np.abs(rates - want).max() <= 1e-12 * np.abs(want).max()


class TestEffectiveChannelMoments:
    def test_channel_gram_mean(self):
        """E[H^H H] = M I: each entry of the Gram matrix concentrates."""
        gen = RngStream(51).child(0).generator()
        h = gaussian_matrix(gen, 4, 2, batch=(100000,))
        gram = np.einsum("tmi,tmj->tij", h.conj(), h).mean(axis=0)
        np.testing.assert_allclose(gram, 4 * np.eye(2), atol=4 * 0.01 * 4)
        assert abs(gram[0, 0].real / 4 - 1) < 0.01
        assert abs(gram[1, 1].real / 4 - 1) < 0.01

    def test_quantization_error_direction_isotropy(self):
        """E[V^H S S^H V] = (N/(M-N)) I when V and S are independent
        isotropic N-frames inside the same (M-N)-dim nullspace: nulling a
        common reference confines both, and within that subspace
        E[V^H S S^H V] = tr(S S^H)/(M-N) I."""
        m, n = 6, 2
        gen = RngStream(51).child(1).generator()
        trials = 50000
        ref = isotropic_frame(gen, m, n, batch=(trials,))
        s = isotropic_frame_in_nullspace(gen, ref, n)
        v = isotropic_frame_in_nullspace(gen, ref, n)
        g = np.einsum("tmi,tmj->tij", v.conj(), s)
        got = np.einsum("tik,tjk->ij", g, g.conj()) / trials
        target = n / (m - n)
        assert np.abs(got - target * np.eye(n)).max() < 0.02 * target

    def test_residual_projection_moment(self):
        """E[F^H V V^H F] = N I for unit-variance Gaussian F independent of
        an isotropic N-frame V."""
        m, n = 4, 2
        gen = RngStream(51).child(2).generator()
        trials = 50000
        f = gaussian_matrix(gen, m, n, batch=(trials,))
        v = isotropic_frame(gen, m, n, batch=(trials,))
        g = np.einsum("tmi,tmj->tij", f.conj(), v)
        got = np.einsum("tik,tjk->tij", g, g.conj()).mean(axis=0)
        np.testing.assert_allclose(got, n * np.eye(n), atol=0.02 * n)
