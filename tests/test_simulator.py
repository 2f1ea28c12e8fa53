import math

import numpy as np
import pytest

from grassfeed.ensembles import RngStream, gaussian_matrix
from grassfeed.errors import (
    FallbackRequired,
    IncompatiblePolicy,
    MemoryGuard,
    NoOverlap,
    ParameterError,
)
from grassfeed import simulator
from grassfeed.grassmann import GrassmannConstants
from grassfeed.quant_emulator import sample_min_d2
from grassfeed.simulator import (
    CHUNK_TRIALS,
    ExperimentSpec,
    FeedbackPolicy,
    GapEstimate,
    RateCurve,
    RatePoint,
    _antenna_budgets,
    _effective_mode,
    estimate_snr_gap,
    read_curve_csv,
    run_experiment,
    write_curve_csv,
)


def _spec(**kw):
    base = dict(
        m=4,
        n=2,
        snr_grid_db=(10.0,),
        policy=FeedbackPolicy(mode="perfect"),
        trials=64,
        seed=7,
    )
    base.update(kw)
    return ExperimentSpec(**base)


class TestFeedbackPolicy:
    def test_bad_mode(self):
        with pytest.raises(IncompatiblePolicy):
            FeedbackPolicy(mode="oracle")

    def test_fixed_needs_bits(self):
        with pytest.raises(IncompatiblePolicy):
            FeedbackPolicy(mode="quantized_emulated")
        with pytest.raises(IncompatiblePolicy):
            FeedbackPolicy(mode="quantized_emulated", bits=-1)

    def test_custom_needs_table(self):
        with pytest.raises(IncompatiblePolicy):
            FeedbackPolicy(mode="quantized_exhaustive", schedule="custom")

    def test_bad_schedule(self):
        with pytest.raises(IncompatiblePolicy):
            FeedbackPolicy(mode="quantized_emulated", schedule="hourly", bits=4)

    def test_beta_only_for_analog(self):
        with pytest.raises(IncompatiblePolicy):
            FeedbackPolicy(mode="quantized_emulated", bits=8, beta=1.0)
        with pytest.raises(IncompatiblePolicy):
            FeedbackPolicy(mode="perfect", beta=1.0)

    def test_analog_needs_beta(self):
        with pytest.raises(IncompatiblePolicy):
            FeedbackPolicy(mode="analog")
        with pytest.raises(IncompatiblePolicy):
            FeedbackPolicy(mode="analog", beta=0.5)
        with pytest.raises(IncompatiblePolicy):
            FeedbackPolicy(mode="analog", beta=1.0, bits=4)

    def test_perfect_takes_nothing(self):
        with pytest.raises(IncompatiblePolicy):
            FeedbackPolicy(mode="perfect", bits=4)

    def test_resolve_fixed(self):
        pol = FeedbackPolicy(mode="quantized_emulated", bits=9)
        assert pol.resolve_bits(17.0, 4, 2) == 9

    def test_resolve_scaled_3db(self):
        """ceil of the 3-dB law, floored at zero: (4,2) crosses zero
        between 0 and 5 dB."""
        pol = FeedbackPolicy(mode="quantized_emulated", schedule="scaled_3db")
        assert pol.resolve_bits(0.0, 4, 2) == 0
        assert pol.resolve_bits(5.0, 4, 2) == 4
        assert pol.resolve_bits(10.0, 4, 2) == 11

    def test_resolve_custom(self):
        pol = FeedbackPolicy(
            mode="quantized_exhaustive", schedule="custom", bits_table={10.0: 7}
        )
        assert pol.resolve_bits(10.0, 4, 2) == 7
        with pytest.raises(IncompatiblePolicy):
            pol.resolve_bits(15.0, 4, 2)

    def test_resolve_none_for_unquantized(self):
        assert FeedbackPolicy(mode="perfect").resolve_bits(10.0, 4, 2) is None
        assert FeedbackPolicy(mode="analog", beta=2.0).resolve_bits(10.0, 4, 2) is None


class TestExperimentSpec:
    def test_shape_validation(self):
        with pytest.raises(ParameterError):
            _spec(m=7)
        with pytest.raises(ParameterError):
            _spec(m=2, n=2)  # K = 1

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            _spec(snr_grid_db=())
        with pytest.raises(ParameterError):
            _spec(snr_grid_db=(10.0, 10.0))
        with pytest.raises(ParameterError):
            _spec(snr_grid_db=(10.0, 5.0))

    def test_grid_coerced_to_floats(self):
        spec = _spec(snr_grid_db=(0, 5, 10))
        assert spec.snr_grid_db == (0.0, 5.0, 10.0)

    def test_trials_and_precoder(self):
        with pytest.raises(ParameterError):
            _spec(trials=0)
        with pytest.raises(ParameterError):
            _spec(precoder="mrt")

    def test_emulated_bd_needs_small_n(self):
        pol = FeedbackPolicy(mode="quantized_emulated", bits=30)
        with pytest.raises(IncompatiblePolicy):
            _spec(m=9, n=3, policy=pol)
        # per-antenna quantization sidesteps the N = 2 limit
        spec = _spec(m=9, n=3, policy=pol, precoder="zf")
        assert spec.k == 3

    def test_k_property(self):
        assert _spec(m=8, n=2).k == 4


class TestEffectiveMode:
    def test_emulated_guard_fallback(self):
        # 2^6 * 0.5 = 32 < 40 but the codebook fits: silently run exhaustive
        pol = FeedbackPolicy(mode="quantized_emulated", bits=6)
        assert _effective_mode(_spec(policy=pol), 6) == "quantized_exhaustive"

    def test_emulated_guard_pass(self):
        pol = FeedbackPolicy(mode="quantized_emulated", bits=11)
        assert _effective_mode(_spec(policy=pol), 11) == "quantized_emulated"

    def test_exhaustive_over_cap(self):
        pol = FeedbackPolicy(mode="quantized_exhaustive", bits=25)
        with pytest.raises(MemoryGuard):
            _effective_mode(_spec(policy=pol), 25)

    def test_zf_cap_is_per_antenna(self):
        # B = 40 over 2 antennas: 2^20 entries each, under the cap
        pol = FeedbackPolicy(mode="quantized_exhaustive", bits=40)
        spec = _spec(policy=pol, precoder="zf")
        assert _effective_mode(spec, 40) == "quantized_exhaustive"

    def test_no_route(self):
        pol = FeedbackPolicy(
            mode="quantized_emulated", bits=60, guard_product=2.0 ** 70
        )
        with pytest.raises(FallbackRequired):
            _effective_mode(_spec(policy=pol), 60)

    @pytest.mark.parametrize("precoder,m,n", [("bd", 4, 2), ("bd", 8, 2), ("zf", 6, 2)])
    @pytest.mark.parametrize("guard", [0.5, 1.0, 15.0, 40.0])
    def test_one_guard_predicate(self, precoder, m, n, guard):
        """The engine emulates exactly when sample_min_d2 accepts the
        smallest budget it will be asked to emulate."""
        gc = GrassmannConstants(m, 1 if precoder == "zf" else n)
        for bits in range(0, 17):
            pol = FeedbackPolicy(mode="quantized_emulated", bits=bits, guard_product=guard)
            mode = _effective_mode(_spec(m=m, n=n, precoder=precoder, policy=pol), bits)
            low = bits // n if precoder == "zf" else bits
            try:
                sample_min_d2(RngStream(1), gc, low, guard_product=guard)
                accepted = True
            except FallbackRequired:
                accepted = False
            assert (mode == "quantized_emulated") == accepted

    def test_antenna_budget_split(self):
        assert _antenna_budgets(13, 2) == [7, 6]
        assert _antenna_budgets(8, 2) == [4, 4]
        assert _antenna_budgets(7, 3) == [3, 2, 2]


class TestInputValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(mode="quantized_emulated", bits=10, guard_product=0.0),
            dict(mode="quantized_emulated", bits=10, guard_product=-1.0),
            dict(mode="quantized_emulated", bits=10, guard_product=math.nan),
            dict(mode="quantized_emulated", bits=10, guard_product=math.inf),
            dict(mode="analog", beta=math.inf),
            dict(mode="quantized_exhaustive", schedule="custom", bits_table={10.0: -1}),
            dict(mode="quantized_exhaustive", schedule="custom", bits_table={10.0: 2.5}),
            dict(mode="quantized_exhaustive", bits=2.5),
        ],
    )
    def test_policy_rejects(self, kw):
        with pytest.raises(IncompatiblePolicy):
            FeedbackPolicy(**kw)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(snr_grid_db=(math.nan,)),
            dict(snr_grid_db=(0.0, math.inf)),
            dict(snr_grid_db=(-math.inf, 0.0)),
            dict(trials=2.5),
            dict(trials=True),
            dict(m=4.0),
        ],
    )
    def test_spec_rejects(self, kw):
        with pytest.raises(ParameterError):
            _spec(**kw)


class TestAnyBitBudget:
    @pytest.mark.parametrize("precoder,m,n", [("bd", 4, 2), ("bd", 6, 2), ("zf", 8, 1)])
    @pytest.mark.parametrize("bits", [1100, 10 ** 5])
    def test_emulated_matches_perfect(self, precoder, m, n, bits):
        """Budgets past 2^-B underflow still emulate. The distortion is then
        at most 2^-(B/T) (0 at B = 10^5), so with the same channels the
        rates are the perfect-CSI rates."""
        grid = (10.0, 30.0)
        pol = FeedbackPolicy(mode="quantized_emulated", bits=bits)
        curve = run_experiment(_spec(m=m, n=n, precoder=precoder, policy=pol, snr_grid_db=grid))
        perfect = run_experiment(_spec(m=m, n=n, precoder=precoder, snr_grid_db=grid))
        assert [pt.mode for pt in curve.points] == ["quantized_emulated"] * 2
        assert np.all(np.isfinite(curve.sum_rate))
        np.testing.assert_allclose(curve.sum_rate, perfect.sum_rate, rtol=1e-9)

    def test_zf_zero_bit_antenna_emulates(self, monkeypatch):
        """Under guard_product <= 1 a 0-bit antenna passes the guard, so it
        is emulated like the others, as the mode column says."""
        def no_scan(*args, **kwargs):
            raise AssertionError("exhaustive scan ran on an emulated point")

        monkeypatch.setattr(simulator, "scan_fresh_codebooks", no_scan)
        pol = FeedbackPolicy(mode="quantized_emulated", bits=1, guard_product=0.5)
        curve = run_experiment(_spec(precoder="zf", policy=pol, trials=32))
        assert curve.points[0].mode == "quantized_emulated"
        assert np.isfinite(curve.points[0].sum_rate)


class TestDeterminism:
    def test_rerun_identical(self):
        spec = _spec(
            policy=FeedbackPolicy(mode="quantized_emulated", bits=10),
            snr_grid_db=(5.0, 15.0),
            trials=300,
        )
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert a == b

    def test_threads_do_not_change_bytes(self):
        spec = _spec(
            policy=FeedbackPolicy(mode="quantized_emulated", bits=10),
            trials=3 * CHUNK_TRIALS + 100,
        )
        a = run_experiment(spec, threads=1)
        b = run_experiment(spec, threads=4)
        assert a == b

    def test_threads_env_validation(self, monkeypatch):
        spec = _spec(trials=4)
        monkeypatch.setenv("GRASSFEED_THREADS", "abc")
        with pytest.raises(ParameterError):
            run_experiment(spec)
        monkeypatch.setenv("GRASSFEED_THREADS", "0")
        with pytest.raises(ParameterError):
            run_experiment(spec)

    def test_mode_column_reflects_fallback(self):
        """scaled_3db sweep crossing the guard: low points run exhaustive,
        high points emulated, and the report says which."""
        spec = _spec(
            policy=FeedbackPolicy(mode="quantized_emulated", schedule="scaled_3db"),
            snr_grid_db=(0.0, 20.0),
            trials=32,
        )
        curve = run_experiment(spec)
        assert curve.points[0].mode == "quantized_exhaustive"
        assert curve.points[0].bits_used == 0
        assert curve.points[1].mode == "quantized_emulated"
        assert curve.points[1].bits_used == 24


class TestPerfectModeOracle:
    def test_matches_scalar_reimplementation(self):
        """Rebuild the exact chunk stream, then compute the same statistic
        with plain numpy SVD nullspaces and slogdet rates."""
        spec = _spec(trials=200, snr_grid_db=(12.0,), seed=99)
        curve = run_experiment(spec)

        gen = RngStream(99).child(0, 0).generator()
        h = gaussian_matrix(gen, 4, 2, batch=(200, 2))
        p = 10.0 ** 1.2
        c = p / 4.0
        total = 0.0
        for t in range(200):
            rates = 0.0
            vs = []
            for k in range(2):
                other = h[t, 1 - k]
                u = np.linalg.svd(other)[0]
                vs.append(u[:, 2:])  # left nullspace basis
            for k in range(2):
                full = np.eye(2, dtype=complex)
                intf = np.eye(2, dtype=complex)
                for j in range(2):
                    g = h[t, k].conj().T @ vs[j]
                    full += c * g @ g.conj().T
                    if j != k:
                        intf += c * g @ g.conj().T
                rates += (
                    np.linalg.slogdet(full)[1] - np.linalg.slogdet(intf)[1]
                ) / np.log(2)
            total += rates
        assert curve.points[0].sum_rate == pytest.approx(total / 200, abs=1e-9)
        assert curve.points[0].per_user_rate == pytest.approx(
            total / 400, abs=1e-9
        )

    def test_ci_shrinks_with_sqrt_trials(self):
        lo = run_experiment(_spec(trials=2000, seed=5)).points[0].ci99
        hi = run_experiment(_spec(trials=8000, seed=5)).points[0].ci99
        assert hi / lo == pytest.approx(0.5, rel=0.15)

    def test_single_trial_has_infinite_ci(self):
        curve = run_experiment(_spec(trials=1))
        assert math.isinf(curve.points[0].ci99)

    @pytest.mark.parametrize("precoder,m,n", [("bd", 6, 2), ("zf", 8, 1)])
    def test_finite_at_extreme_snr(self, precoder, m, n):
        """Interference-free streams keep PD interference matrices at any
        power; each +30 dB then adds about M log2(10^3) bps/Hz."""
        curve = run_experiment(
            _spec(m=m, n=n, precoder=precoder, snr_grid_db=(170.0, 200.0), trials=64)
        )
        rates = curve.sum_rate
        assert np.all(np.isfinite(rates))
        assert rates[1] - rates[0] == pytest.approx(m * 3 * math.log2(10), abs=3.0)


class TestCommonRandomNumbers:
    def test_quantization_only_hurts(self):
        """Same seed means same channels, so the perfect curve dominates
        the quantized one at every point, not just on average."""
        grid = (0.0, 10.0, 20.0)
        perfect = run_experiment(_spec(snr_grid_db=grid, trials=500))
        quant = run_experiment(
            _spec(
                snr_grid_db=grid,
                trials=500,
                policy=FeedbackPolicy(mode="quantized_emulated", bits=10),
            )
        )
        for pp, qp in zip(perfect.points, quant.points):
            assert pp.sum_rate > qp.sum_rate

    def test_generous_analog_feedback_tracks_perfect(self):
        perfect = run_experiment(_spec(trials=400))
        analog = run_experiment(
            _spec(trials=400, policy=FeedbackPolicy(mode="analog", beta=200.0))
        )
        diff = perfect.points[0].sum_rate - analog.points[0].sum_rate
        assert 0.0 < diff < 0.2

    def test_exhaustive_and_emulated_statistically_equal(self):
        """Independent seeds, overlapping 99% confidence intervals; the
        acceptance suite repeats this at the spec's full trial count."""
        kw = dict(snr_grid_db=(10.0,), trials=6000, m=4, n=2)
        emu = run_experiment(
            _spec(policy=FeedbackPolicy(mode="quantized_emulated", bits=8,
                                        guard_product=15.0), seed=1, **kw)
        )
        exh = run_experiment(
            _spec(policy=FeedbackPolicy(mode="quantized_exhaustive", bits=8),
                  seed=2, **kw)
        )
        e, x = emu.points[0], exh.points[0]
        assert abs(e.sum_rate - x.sum_rate) <= e.ci99 + x.ci99


class TestGapEstimate:
    @staticmethod
    def _curve(p_db, rates):
        return RateCurve(
            points=tuple(
                RatePoint(p_db=float(p), sum_rate=float(r), per_user_rate=r / 2,
                          ci99=0.01, mode="perfect")
                for p, r in zip(p_db, rates)
            )
        )

    def test_zero_gap(self):
        c = self._curve([0, 10, 20], [2.0, 6.0, 10.0])
        est = estimate_snr_gap(c, c)
        assert est.mean_db == pytest.approx(0.0, abs=1e-12)

    def test_pure_shift(self):
        ref = self._curve([0, 10, 20, 30], [2.0, 6.0, 10.0, 14.0])
        test = self._curve([3, 13, 23], [2.0, 6.0, 10.0])
        est = estimate_snr_gap(ref, test)
        assert est.mean_db == pytest.approx(3.0, abs=1e-9)
        assert len(est.per_point) == 3
        for _, g in est.per_point:
            assert g == pytest.approx(3.0, abs=1e-9)

    def test_skips_points_outside_range(self):
        ref = self._curve([0, 10], [4.0, 8.0])
        test = self._curve([0, 10, 20], [5.0, 9.0, 13.0])
        est = estimate_snr_gap(ref, test)
        assert len(est.per_point) == 1  # only the 5.0 bps/Hz point overlaps

    def test_no_overlap(self):
        ref = self._curve([0, 10], [4.0, 8.0])
        test = self._curve([0, 10], [20.0, 30.0])
        with pytest.raises(NoOverlap):
            estimate_snr_gap(ref, test)

    def test_nonmonotone_reference(self):
        ref = self._curve([0, 10, 20], [4.0, 8.0, 8.0])
        test = self._curve([0], [5.0])
        with pytest.raises(ParameterError):
            estimate_snr_gap(ref, test)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        spec = _spec(
            snr_grid_db=(0.0, 20.0),
            trials=50,
            policy=FeedbackPolicy(mode="quantized_emulated", schedule="scaled_3db"),
        )
        curve = run_experiment(spec)
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        back = read_curve_csv(path)
        for a, b in zip(curve.points, back.points):
            assert b.p_db == a.p_db
            assert b.sum_rate == pytest.approx(a.sum_rate, rel=1e-5)
            assert b.mode == a.mode
            assert b.bits_used == a.bits_used

    def test_format(self, tmp_path):
        curve = RateCurve(
            points=(
                RatePoint(p_db=10.0, sum_rate=3.14159265, per_user_rate=1.57079633,
                          ci99=0.0123456789, mode="perfect"),
            )
        )
        path = tmp_path / "one.csv"
        write_curve_csv(curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "p_db,sum_rate,per_user_rate,ci99,mode,bits_used"
        assert lines[1] == "10,3.14159,1.5708,0.0123457,perfect,"

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("power,rate\n1,2\n")
        with pytest.raises(ParameterError):
            read_curve_csv(path)
