import hashlib
import math

import numpy as np
import pytest
from scipy.stats import kstest

from grassfeed.ensembles import RngStream, gaussian_matrix
from grassfeed.errors import (
    FallbackRequired,
    GrassfeedError,
    IncompatiblePolicy,
    MemoryGuard,
    NoOverlap,
    ParameterError,
)
from grassfeed import precoding, simulator
from grassfeed.grassmann import GrassmannConstants, distortion_bound
from grassfeed.precoding import (
    SystemConfig,
    analog_rate_loss_bound,
    perfect_csi_sum_rate,
    rate_loss_bound,
)
from grassfeed.quant_emulator import DEFAULT_GUARD_PRODUCT, emulate_batch, sample_min_d2
from grassfeed.simulator import (
    CHUNK_TRIALS,
    ExperimentSpec,
    FeedbackPolicy,
    GapEstimate,
    RateCurve,
    RatePoint,
    estimate_snr_gap,
    read_curve_csv,
    run_experiment,
    write_curve_csv,
)


def _point(spec, p_db=10.0):
    """The planned record of spec's point at p_db."""
    (pt,) = [pt for pt in simulator._plan(spec) if pt.p_db == p_db]
    return pt


def _chunk(spec, plan, chunk_idx):
    """(points, count, 3) per-trial [R, Y, L] of one chunk of plan."""
    count = min(CHUNK_TRIALS, spec.trials - chunk_idx * CHUNK_TRIALS)
    return simulator._chunk_sum_rates(spec, plan, chunk_idx, np.empty((len(plan), count, 3)))


def _one_point(spec, chunk_idx, pt):
    """(count, 3) per-trial [R, Y, L] of one chunk of a one-point plan."""
    return _chunk(spec, [pt], chunk_idx)[0]


def _perfect_rates(spec, p_db=10.0):
    """(rates, free, leak) of precoders built on the true channels that
    chunk 0 of spec draws, at p_db."""
    count = min(spec.trials, CHUNK_TRIALS)
    h = gaussian_matrix(RngStream(spec.seed).child(0).generator(), spec.m, spec.n,
                        batch=(count, spec.k))
    build = precoding.zf_precoders_batch if spec.precoder == "zf" else precoding.bd_precoders_batch
    width = 1 if spec.precoder == "zf" else spec.n
    return precoding.rates_batch(10.0 ** (p_db / 10.0), h, build(h), width)


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

    def test_emulated_bd_any_n(self):
        pol = FeedbackPolicy(mode="quantized_emulated", bits=30)
        curve = run_experiment(_spec(m=9, n=3, policy=pol, trials=64))
        assert [pt.mode for pt in curve.points] == ["quantized_emulated"] * len(curve.points)
        assert np.all(np.isfinite(curve.sum_rate))

    def test_k_property(self):
        assert _spec(m=8, n=2).k == 4


class TestEffectiveMode:
    def test_emulated_guard_fallback(self):
        # 2^6 * 0.5 = 32 < 40 but the codebook fits: silently run exhaustive
        pol = FeedbackPolicy(mode="quantized_emulated", bits=6)
        assert _point(_spec(policy=pol)).mode == "quantized_exhaustive"

    def test_emulated_guard_pass(self):
        pol = FeedbackPolicy(mode="quantized_emulated", bits=11)
        assert _point(_spec(policy=pol)).mode == "quantized_emulated"

    def test_exhaustive_over_cap(self):
        pol = FeedbackPolicy(mode="quantized_exhaustive", bits=25)
        with pytest.raises(MemoryGuard):
            simulator._plan(_spec(policy=pol))

    @pytest.mark.parametrize("precoder", ["bd", "zf"])
    @pytest.mark.parametrize("schedule", ["fixed", "custom"])
    def test_huge_budget_guarded_at_once(self, precoder, schedule):
        """B = 10^18 is compared with the cap as an exponent; forming 2^B
        first would not return."""
        bits = 10 ** 18
        if schedule == "fixed":
            pol = FeedbackPolicy(mode="quantized_exhaustive", bits=bits)
        else:
            pol = FeedbackPolicy(mode="quantized_exhaustive", schedule="custom",
                                 bits_table={10.0: bits})
        with pytest.raises(MemoryGuard):
            run_experiment(_spec(policy=pol, precoder=precoder))

    def test_zf_cap_is_per_antenna(self):
        # B = 40 over 2 antennas: 2^20 entries each, under the cap
        pol = FeedbackPolicy(mode="quantized_exhaustive", bits=40)
        spec = _spec(policy=pol, precoder="zf")
        assert _point(spec).mode == "quantized_exhaustive"

    def test_no_route(self):
        """(10, 5) at B = 20 fails the guard, and its 2^20-entry codebook
        the cap; B = 35 passes the guard."""
        def plan(bits):
            pol = FeedbackPolicy(mode="quantized_emulated", bits=bits)
            return simulator._plan(_spec(m=10, n=5, policy=pol))

        with pytest.raises(FallbackRequired):
            plan(20)
        assert plan(35)[0].mode == "quantized_emulated"

    @pytest.mark.parametrize("precoder,m,n", [("bd", 4, 2), ("bd", 8, 2), ("zf", 6, 2)])
    def test_one_guard_predicate(self, precoder, m, n):
        """The engine emulates exactly when sample_min_d2 accepts the
        smallest budget it will be asked to emulate."""
        gc = GrassmannConstants(m, 1 if precoder == "zf" else n)
        for bits in range(0, 17):
            pol = FeedbackPolicy(mode="quantized_emulated", bits=bits)
            mode = _point(_spec(m=m, n=n, precoder=precoder, policy=pol)).mode
            low = bits // n if precoder == "zf" else bits
            try:
                sample_min_d2(RngStream(1), gc, low)
                accepted = True
            except FallbackRequired:
                accepted = False
            assert (mode == "quantized_emulated") == accepted

    def test_antenna_budget_split(self):
        def budgets(bits, n):
            pol = FeedbackPolicy(mode="quantized_emulated", bits=bits)
            return list(_point(_spec(m=2 * n * 2, n=n, precoder="zf", policy=pol)).budgets)
        assert budgets(13, 2) == [7, 6]
        assert budgets(8, 2) == [4, 4]
        assert budgets(7, 3) == [3, 2, 2]

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("precoder", ["bd", "zf"])
    def test_feedback_units(self, precoder, n):
        """BD quantizes one (M, N) frame with the whole budget; ZF one line
        per antenna, the budget split with the remainder to the first."""
        for bits in (0, 1, 5, 13, 10 ** 18):
            pol = FeedbackPolicy(mode="quantized_emulated", bits=bits)
            budgets = list(_point(_spec(m=3 * n, n=n, precoder=precoder, policy=pol)).budgets)
            width = n // len(budgets)
            if precoder == "bd":
                assert (width, budgets) == (n, [bits])
            else:
                assert width == 1 and len(budgets) == n and sum(budgets) == bits
                assert budgets == sorted(budgets, reverse=True)
                assert budgets[0] - budgets[-1] <= 1


class TestSweepPlan:
    """Every point's budget and mode is decided before any chunk runs, so a
    sweep whose last point cannot run draws nothing."""

    @pytest.mark.parametrize(
        "kw,policy,error",
        [
            ({}, FeedbackPolicy(mode="quantized_emulated", schedule="custom",
                                bits_table={0.0: 12, 10.0: 12}), IncompatiblePolicy),
            ({}, FeedbackPolicy(mode="quantized_exhaustive", schedule="scaled_3db"), MemoryGuard),
            (dict(precoder="zf"), FeedbackPolicy(mode="quantized_exhaustive", schedule="custom",
                                                 bits_table={0.0: 2, 10.0: 4, 20.0: 60}), MemoryGuard),
            (dict(m=10, n=5), FeedbackPolicy(mode="quantized_emulated", schedule="custom",
                                             bits_table={0.0: 35, 10.0: 35, 20.0: 20}), FallbackRequired),
        ],
        ids=["missing_entry", "over_cap", "zf_over_cap", "no_route"],
    )
    def test_last_point_fails_before_any_chunk(self, monkeypatch, kw, policy, error):
        calls = []
        monkeypatch.setattr(simulator, "_chunk_sum_rates", lambda *a: calls.append(a))
        spec = _spec(policy=policy, snr_grid_db=(0.0, 10.0, 20.0), **kw)
        with pytest.raises(error):
            run_experiment(spec)
        assert calls == []

    def test_plan_runs_as_decided(self, monkeypatch):
        """The chunk loop runs every chunk once, with the whole plan of
        planned budgets and modes and its own trial count."""
        real, calls = simulator._chunk_sum_rates, []

        def spy(spec, plan, chunk_idx, out):
            rates = real(spec, plan, chunk_idx, out)
            calls.append((chunk_idx, [(pt.p_db, pt.bits, pt.mode) for pt in plan], rates.shape[:2]))
            return rates

        monkeypatch.setattr(simulator, "_chunk_sum_rates", spy)
        pol = FeedbackPolicy(mode="quantized_emulated", schedule="custom",
                             bits_table={0.0: 2, 10.0: 12})
        curve = run_experiment(_spec(policy=pol, snr_grid_db=(0.0, 10.0), trials=CHUNK_TRIALS + 3))
        plan = [(0.0, 2, "quantized_exhaustive"), (10.0, 12, "quantized_emulated")]
        assert calls == [(0, plan, (2, CHUNK_TRIALS)), (1, plan, (2, 3))]
        assert [(pt.bits_used, pt.mode) for pt in curve.points] == [
            (2, "quantized_exhaustive"), (12, "quantized_emulated"),
        ]

    def test_closed_forms_once_per_sweep(self, monkeypatch):
        """The guard and both control means are evaluated while planning,
        never in the chunk loop: three chunks make as many calls as one."""
        counts = {}
        for name in ("emulation_valid", "_mean_min_d2", "_free_sum_rate_mean"):
            def spy(*args, _real=getattr(simulator, name), _name=name):
                counts[_name] = counts.get(_name, 0) + 1
                return _real(*args)
            monkeypatch.setattr(simulator, name, spy)
        pol = FeedbackPolicy(mode="quantized_emulated", schedule="scaled_3db")
        seen = []
        for trials in (CHUNK_TRIALS, 2 * CHUNK_TRIALS + 7):
            counts.clear()
            run_experiment(_spec(m=6, n=2, policy=pol, snr_grid_db=(0.0, 10.0, 20.0),
                                 trials=trials))
            seen.append(dict(counts))
        assert seen[0] == seen[1]
        assert sorted(seen[0]) == ["_free_sum_rate_mean", "_mean_min_d2", "emulation_valid"]

    @pytest.mark.parametrize("precoder,mode", [
        ("bd", "quantized_emulated"), ("zf", "quantized_emulated"), ("bd", "quantized_exhaustive"),
    ])
    def test_one_guard_decision_per_point(self, monkeypatch, precoder, mode):
        """Each quantized point asks the default guard once, about its
        smallest unit budget; that answer sets both its mode and whether
        its leakage mean is exact, so every emulated point has one. A 0-bit
        unit's mean is exact whatever the guard says."""
        calls = []

        def spy(gc, bits, guard, _real=simulator.emulation_valid):
            calls.append((bits, guard, _real(gc, bits, guard)))
            return calls[-1][2]

        monkeypatch.setattr(simulator, "emulation_valid", spy)
        pol = FeedbackPolicy(mode=mode, schedule="custom", bits_table={0.0: 0, 10.0: 5, 20.0: 12})
        plan = simulator._plan(_spec(precoder=precoder, policy=pol, snr_grid_db=(0.0, 10.0, 20.0)))
        assert [c[:2] for c in calls] == [(min(pt.budgets), DEFAULT_GUARD_PRODUCT) for pt in plan]
        for pt, (_, _, valid) in zip(plan, calls):
            assert (pt.mode == "quantized_emulated") == (valid and mode == "quantized_emulated")
            assert (pt.mean_leak is not None) == (valid or precoder == "zf" or pt.bits == 0)
        assert plan[-1].mode == mode

    @pytest.mark.parametrize("precoder,policy", [
        ("bd", FeedbackPolicy(mode="quantized_emulated", schedule="scaled_3db")),
        ("zf", FeedbackPolicy(mode="quantized_emulated", schedule="scaled_3db")),
        ("bd", FeedbackPolicy(mode="analog", beta=2.0)),
    ], ids=["bd_emulated", "zf_emulated", "analog"])
    def test_points_report_their_record(self, monkeypatch, precoder, policy):
        """Each point's reported mode and budget are those of the record
        the chunk loop ran."""
        real, plans = simulator._chunk_sum_rates, []

        def spy(spec, plan, chunk_idx, out):
            plans.append(plan)
            return real(spec, plan, chunk_idx, out)

        monkeypatch.setattr(simulator, "_chunk_sum_rates", spy)
        curve = run_experiment(_spec(m=6, n=2, precoder=precoder, policy=policy,
                                     snr_grid_db=(0.0, 10.0, 20.0), trials=20))
        (plan,) = plans
        assert [(pt.mode, pt.bits_used) for pt in curve.points] == [
            (rec.mode, rec.bits) for rec in plan
        ]


class TestInputValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(mode="analog", beta=math.inf),
            dict(mode="quantized_exhaustive", schedule="custom", bits_table={10.0: -1}),
            dict(mode="quantized_exhaustive", schedule="custom", bits_table={10.0: 2.5}),
            dict(mode="quantized_exhaustive", bits=2.5),
            dict(mode="quantized_exhaustive", schedule="custom", bits_table={"a": 3}),
            dict(mode="quantized_exhaustive", schedule="custom", bits_table={None: 3}),
            dict(mode="quantized_exhaustive", schedule="custom", bits_table=[1, 2]),
            dict(mode="digital"),
            dict(mode="analog", beta=0.5),
            dict(mode="quantized_exhaustive", bits=4, beta=2.0),
            dict(mode="perfect", bits=4),
            dict(mode="quantized_emulated", schedule="scaled_3db", bits=30),
            dict(mode="quantized_exhaustive", bits=4, bits_table={0.0: 3}),
            dict(mode="quantized_emulated", schedule="custom", bits_table={0.0: 3}, bits=4),
            dict(mode="quantized_emulated", schedule="scaled_3db", bits_table={0.0: 3}),
            dict(mode="perfect", schedule="scaled_3db"),
            dict(mode="perfect", beta=3.0),
            dict(mode="analog", beta=2.0, schedule="custom", bits_table={0.0: 3}),
            dict(mode="analog", beta=2.0, bits_table={0.0: 3}),
            dict(mode="perfect", schedule="weekly"),
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
            dict(snr_grid_db=(0.0, 3083.0)),
            dict(snr_grid_db=("x",)),
            dict(snr_grid_db=(None,)),
            dict(snr_grid_db=(1 + 2j,)),
            dict(snr_grid_db=None),
        ],
    )
    def test_spec_rejects(self, kw):
        with pytest.raises(ParameterError):
            _spec(**kw)

    def test_analog_power_overflow(self):
        """beta * P must stay a finite double: 3080 dB passes with beta = 1
        and is rejected with beta = 2."""
        _spec(snr_grid_db=(3080.0,), policy=FeedbackPolicy(mode="analog", beta=1.0))
        with pytest.raises(IncompatiblePolicy):
            _spec(snr_grid_db=(0.0, 3080.0), policy=FeedbackPolicy(mode="analog", beta=2.0))

    @pytest.mark.parametrize("precoder,p_db", [("bd", 3081.0), ("bd", 3082.5), ("zf", 3082.0)])
    def test_rate_overflow(self, precoder, p_db):
        """10^(P/10) is finite here but P/M times a gain is not: the sweep
        raises instead of returning infinite rates."""
        pol = FeedbackPolicy(mode="quantized_exhaustive", bits=4)
        with pytest.raises(ParameterError, match="overflow"):
            run_experiment(_spec(precoder=precoder, policy=pol, snr_grid_db=(0.0, p_db)))

    @pytest.mark.parametrize("precoder,m,n,p_db", [
        ("bd", 4, 2, 3081.0), ("bd", 4, 2, 3082.5), ("zf", 4, 2, 3082.0), ("zf", 8, 1, 3082.5),
    ])
    def test_perfect_rate_at_the_spec_limit(self, precoder, m, n, p_db):
        """Where quantized rates overflow, a perfect point is still its
        finite closed form."""
        (pt,) = run_experiment(_spec(m=m, n=n, precoder=precoder, snr_grid_db=(p_db,))).points
        mu = perfect_csi_sum_rate(SystemConfig(m, n, 10.0 ** (p_db / 10.0)), precoder)
        assert math.isfinite(mu) and pt.sum_rate == mu
        if (precoder, m, p_db) == ("bd", 4, 3082.5):
            assert pt.sum_rate == pytest.approx(4087.4917, abs=1e-4)

    def test_rates_below_overflow_finite(self):
        pol = FeedbackPolicy(mode="quantized_exhaustive", bits=4)
        curve = run_experiment(_spec(policy=pol, snr_grid_db=(3000.0,)))
        assert np.all(np.isfinite(curve.sum_rate))


class TestAnyBitBudget:
    @pytest.mark.parametrize("precoder,m,n", [("bd", 4, 2), ("bd", 6, 2), ("zf", 8, 1)])
    @pytest.mark.parametrize("bits", [1100, 10 ** 5])
    def test_emulated_matches_perfect(self, precoder, m, n, bits):
        """Budgets past 2^-B underflow still emulate. The distortion is then
        at most 2^-(B/T) (0 at B = 10^5), so every trial's rate is the rate
        of precoders built on its true channels."""
        grid = (10.0, 30.0)
        pol = FeedbackPolicy(mode="quantized_emulated", bits=bits)
        spec = _spec(m=m, n=n, precoder=precoder, policy=pol, snr_grid_db=grid)
        curve = run_experiment(spec)
        assert [pt.mode for pt in curve.points] == ["quantized_emulated"] * 2
        assert np.all(np.isfinite(curve.sum_rate))
        for p_db in grid:
            got = _one_point(spec, 0, _point(spec, p_db))[:, 0]
            want = _perfect_rates(spec, p_db)[0].sum(axis=1)
            np.testing.assert_allclose(got, want, rtol=1e-9)


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
        specs = [
            _spec(policy=FeedbackPolicy(mode="quantized_emulated", bits=10),
                  trials=3 * CHUNK_TRIALS + 100),
            # each chunk's 2048 scans run as 32 blocks of 64
            _spec(policy=FeedbackPolicy(mode="quantized_exhaustive", bits=8),
                  trials=CHUNK_TRIALS + 100),
        ]
        for spec in specs:
            a = run_experiment(spec, threads=1)
            for threads in (2, 4):
                assert run_experiment(spec, threads=threads) == a

    def test_threads_validation(self):
        spec = _spec(trials=4)
        for threads in ("2", 0, -3, 2.5, True):
            with pytest.raises(ParameterError):
                run_experiment(spec, threads=threads)

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


class TestUnitRule:
    """ZF is BD over width-1 feedback units, so at N = 1, where the unit
    is the user, the two precoders are one computation."""

    @pytest.mark.parametrize("policy", [
        FeedbackPolicy(mode="perfect"),
        # 0 dB has a 0-bit budget, which runs as a one-entry scan
        FeedbackPolicy(mode="quantized_emulated", schedule="scaled_3db"),
        FeedbackPolicy(mode="quantized_exhaustive", bits=6),
        FeedbackPolicy(mode="analog", beta=1.0),
    ], ids=["perfect", "emulated", "exhaustive", "analog"])
    def test_bd_at_one_antenna_is_zf(self, tmp_path, policy):
        digests = []
        for precoder in ("bd", "zf"):
            spec = _spec(m=6, n=1, snr_grid_db=(0.0, 10.0, 20.0), policy=policy, trials=1500,
                         precoder=precoder)
            path = tmp_path / f"{precoder}.csv"
            write_curve_csv(run_experiment(spec), str(path))
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 4")
def test_rates_keep_their_bounded_loss_at_high_power():
    """ROADMAP item 4's check: from 300 dB up, each non-perfect point's sum
    rate lies within its bounded loss of the perfect closed form (K times
    the per-user bound, plus the point's ci99 and a 1e-9 relative rounding
    allowance), or the run raises a GrassfeedError. Today the rates level
    off near 421 bps/Hz at BD (4, 2) while the perfect rate keeps rising,
    and no error is raised."""
    gc, k = GrassmannConstants(4, 2), 2
    bounds = {
        "quantized_emulated": lambda cfg: rate_loss_bound(cfg, distortion_bound(gc, 10 ** 5)),
        "analog": lambda cfg: analog_rate_loss_bound(cfg, 1.0),
    }
    policies = [FeedbackPolicy(mode="quantized_emulated", bits=10 ** 5), FeedbackPolicy(mode="analog", beta=1.0)]
    for policy in policies:
        try:
            curve = run_experiment(_spec(snr_grid_db=(300.0, 400.0, 800.0), policy=policy, trials=64))
        except GrassfeedError:
            continue
        for pt in curve.points:
            cfg = SystemConfig(4, 2, 10.0 ** (pt.p_db / 10.0))
            perfect = perfect_csi_sum_rate(cfg)
            allowed = k * bounds[policy.mode](cfg) + pt.ci99 + 1e-9 * perfect
            assert perfect - pt.sum_rate <= allowed, (policy.mode, pt.p_db, pt.sum_rate, perfect)


class TestNoLapack:
    """The engine runs no LAPACK factorization: a sweep of each mode family
    writes the same CSV bytes with numpy's eigh, qr, cholesky, svd and
    solve patched to raise. The inverse behind the precoders
    (precoding._inverse_blocks) is the one LAPACK call left."""

    @pytest.mark.parametrize("kw", [
        # 0 dB has a 0-bit budget, which runs as a one-entry scan
        dict(policy=FeedbackPolicy(mode="quantized_emulated", schedule="scaled_3db")),
        dict(policy=FeedbackPolicy(mode="quantized_exhaustive", bits=4)),
        dict(policy=FeedbackPolicy(mode="analog", beta=2.0)),
        dict(m=6, n=2, precoder="zf",
             policy=FeedbackPolicy(mode="quantized_emulated", schedule="scaled_3db")),
    ], ids=["emulated_bd", "exhaustive_bd", "analog", "emulated_zf"])
    def test_sweep_bytes_without_factorizations(self, monkeypatch, tmp_path, kw):
        spec = _spec(**{"snr_grid_db": (0.0, 10.0, 20.0), "trials": 200, **kw})
        write_curve_csv(run_experiment(spec), str(tmp_path / "a.csv"))

        def refuse(*args, **kwargs):
            raise AssertionError("the engine called a LAPACK factorization")

        for name in ("eigh", "qr", "cholesky", "svd", "solve"):
            monkeypatch.setattr(np.linalg, name, refuse)
        write_curve_csv(run_experiment(spec), str(tmp_path / "b.csv"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestPerfectModeOracle:
    """A perfect point is the closed-form mean of Y and runs nothing; the
    per-trial rates of precoders built on the true channels come from
    ``rates_batch``, which the scalar reimplementation below checks."""

    def test_matches_scalar_reimplementation(self):
        """Rebuild chunk 0's channels, then compute every trial's rate with
        plain numpy SVD nullspaces and slogdet."""
        spec = _spec(trials=200, snr_grid_db=(12.0,), seed=99)
        got = _perfect_rates(spec, 12.0)[0].sum(axis=1)

        gen = RngStream(99).child(0).generator()
        h = gaussian_matrix(gen, 4, 2, batch=(200, 2))
        p = 10.0 ** 1.2
        c = p / 4.0
        want = np.zeros(200)
        for t in range(200):
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
                want[t] += (
                    np.linalg.slogdet(full)[1] - np.linalg.slogdet(intf)[1]
                ) / np.log(2)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_ci_shrinks_with_sqrt_trials(self):
        pol = FeedbackPolicy(mode="quantized_emulated", bits=10)
        lo = run_experiment(_spec(policy=pol, trials=2000, seed=5)).points[0].ci99
        hi = run_experiment(_spec(policy=pol, trials=8000, seed=5)).points[0].ci99
        assert hi / lo == pytest.approx(0.5, rel=0.15)

    def test_single_trial_has_infinite_ci(self):
        pol = FeedbackPolicy(mode="quantized_emulated", bits=10)
        curve = run_experiment(_spec(policy=pol, trials=1))
        assert math.isinf(curve.points[0].ci99)

    @pytest.mark.parametrize("precoder,m,n", [("bd", 6, 2), ("zf", 8, 1)])
    def test_finite_at_extreme_snr(self, precoder, m, n):
        """Interference-free streams keep PD interference matrices at any
        power; each +30 dB then adds about M log2(10^3) bps/Hz."""
        spec = _spec(m=m, n=n, precoder=precoder)
        rates = [_perfect_rates(spec, p_db)[0].sum(axis=1).mean() for p_db in (170.0, 200.0)]
        assert np.all(np.isfinite(rates))
        assert rates[1] - rates[0] == pytest.approx(m * 3 * math.log2(10), abs=3.0)

    @pytest.mark.parametrize("precoder,m,n", [("bd", 4, 2), ("zf", 8, 1)])
    def test_rate_tracks_power_far_past_rounding(self, precoder, m, n):
        """Perfect knowledge has no leakage at all, so the interference-free
        rate Y of every trial, and the perfect curve, keep rising by
        M log2(10)/10 bps/Hz per dB where a rounding-level leakage times
        P/M would have pinned R."""
        spec = _spec(m=m, n=n, precoder=precoder, snr_grid_db=(400.0, 2000.0))
        want = m * math.log2(10) / 10
        free = [_perfect_rates(spec, p_db)[1].sum(axis=1) for p_db in spec.snr_grid_db]
        np.testing.assert_allclose((free[1] - free[0]) / 1600.0, want, rtol=1e-9)
        curve = run_experiment(spec)
        slope = (curve.sum_rate[1] - curve.sum_rate[0]) / 1600.0
        assert slope == pytest.approx(want, rel=1e-9)

    def test_perfect_point_is_the_closed_form(self, monkeypatch):
        """sum_rate is perfect_csi_sum_rate with ci99 = 0 whatever the seed,
        trial count or thread count, and nothing is drawn or run."""
        calls = []
        monkeypatch.setattr(simulator, "_chunk_sum_rates", lambda *a: calls.append(a))
        for module in (simulator, precoding):
            monkeypatch.setattr(module, "gaussian_matrix", lambda *a, **kw: calls.append(a))
        grid = (-10.0, 0.0, 15.0, 30.0)
        for precoder, m, n in (("bd", 4, 2), ("bd", 6, 3), ("zf", 8, 1)):
            curves = [run_experiment(_spec(m=m, n=n, precoder=precoder, snr_grid_db=grid,
                                           seed=seed, trials=trials), threads=threads)
                      for seed, trials, threads in ((1, 1, 1), (2, 2000, 1), (1, 2000, 4))]
            assert curves[1:] == curves[:1] * 2
            for pt in curves[0].points:
                mu = perfect_csi_sum_rate(SystemConfig(m, n, 10.0 ** (pt.p_db / 10.0)), precoder)
                assert pt.sum_rate == pytest.approx(mu, rel=1e-14, abs=0)
                assert pt.per_user_rate == pt.sum_rate / (m // n)
                assert (pt.ci99, pt.mode, pt.bits_used) == (0.0, "perfect", None)
        assert calls == []


class TestChunkSharing:
    """Each chunk draws its channels once for the whole sweep. Emulated and
    analog points draw their budget- or power-free randomness once per
    chunk, keyed by the mode alone, and exhaustive points their codebooks
    from a substream keyed by mode and bits. So a point does not depend on
    the rest of its grid, and points that know the same share one
    quantization and one set of precoders."""

    @pytest.mark.parametrize("kw", [
        dict(policy=FeedbackPolicy(mode="perfect")),
        dict(policy=FeedbackPolicy(mode="quantized_exhaustive", bits=4)),
        dict(policy=FeedbackPolicy(mode="quantized_emulated", schedule="scaled_3db")),
        dict(policy=FeedbackPolicy(mode="analog", beta=2.0)),
        dict(m=6, n=2, precoder="zf",
             policy=FeedbackPolicy(mode="quantized_emulated", schedule="scaled_3db")),
    ], ids=["perfect", "exhaustive", "emulated", "analog", "zf_emulated"])
    def test_point_does_not_depend_on_its_grid(self, kw):
        kw = dict(trials=CHUNK_TRIALS + 40, seed=11, **kw)
        sweep = run_experiment(_spec(snr_grid_db=(0.0, 10.0, 20.0), **kw))
        alone = run_experiment(_spec(snr_grid_db=(10.0,), **kw))
        assert sweep.points[1] == alone.points[0]

    def test_multi_point_bytes_do_not_depend_on_threads(self):
        spec = _spec(m=6, n=2, snr_grid_db=(0.0, 10.0, 20.0), trials=3 * CHUNK_TRIALS + 100,
                     policy=FeedbackPolicy(mode="quantized_emulated", schedule="scaled_3db"))

        def raw(curve):
            return np.array([(pt.sum_rate, pt.ci99) for pt in curve.points]).tobytes()

        want = raw(run_experiment(spec, threads=1))
        for threads in (2, 4):
            assert raw(run_experiment(spec, threads=threads)) == want

    def test_fixed_budget_scans_once_per_chunk(self, monkeypatch):
        real, calls = simulator.scan_fresh_codebooks, []

        def spy(gen, hq, bits):
            calls.append((len(hq), bits))
            return real(gen, hq, bits)

        monkeypatch.setattr(simulator, "scan_fresh_codebooks", spy)
        pol = FeedbackPolicy(mode="quantized_exhaustive", bits=4)
        run_experiment(_spec(policy=pol, snr_grid_db=(0.0, 10.0, 20.0), trials=CHUNK_TRIALS + 5))
        assert calls == [(2 * CHUNK_TRIALS, 4), (2 * 5, 4)]

    def test_analog_noise_drawn_once_per_chunk(self, monkeypatch):
        """An analog sweep draws a chunk's channels and its noise once each,
        whatever the number of points."""
        calls = []
        for module in (simulator, precoding):
            def spy(*args, _real=module.gaussian_matrix, **kw):
                calls.append(kw.get("batch"))
                return _real(*args, **kw)
            monkeypatch.setattr(module, "gaussian_matrix", spy)
        pol = FeedbackPolicy(mode="analog", beta=2.0)
        run_experiment(_spec(policy=pol, snr_grid_db=(0.0, 10.0, 20.0), trials=CHUNK_TRIALS + 5))
        assert calls == [(CHUNK_TRIALS, 2)] * 2 + [(5, 2)] * 2

    @staticmethod
    def _spy_draws(monkeypatch):
        """The frame stacks each budget-free emulation draw is made for."""
        real, stacks = simulator._budget_free_draw, []

        def spy(gen, hq):
            stacks.append(hq)
            return real(gen, hq)

        monkeypatch.setattr(simulator, "_budget_free_draw", spy)
        return stacks

    @pytest.mark.parametrize("kw,units,count", [
        (dict(policy=FeedbackPolicy(mode="quantized_emulated", schedule="scaled_3db")), 1, 2),
        (dict(m=6, n=2, precoder="zf", snr_grid_db=(0.0, 5.0, 10.0, 15.0, 20.0),
              policy=FeedbackPolicy(mode="quantized_emulated", schedule="scaled_3db")), 2, 3),
        (dict(policy=FeedbackPolicy(mode="quantized_exhaustive", bits=4)), 0, 0),
        (dict(policy=FeedbackPolicy(mode="quantized_emulated", schedule="custom",
                                    bits_table={0.0: 2, 10.0: 4, 20.0: 4})), 0, 0),
    ], ids=["bd", "zf", "exhaustive", "all_fall_back"])
    def test_emulation_drawn_once_per_chunk(self, monkeypatch, kw, units, count):
        """An emulated sweep makes one budget-free draw per chunk and
        feedback-unit index, whatever its number of emulated points; a
        sweep with none, also one whose every point falls back to the scan,
        makes no such draw."""
        stacks = self._spy_draws(monkeypatch)
        spec = _spec(**{"snr_grid_db": (0.0, 10.0, 20.0), "trials": CHUNK_TRIALS + 5, **kw})
        curve = run_experiment(spec)
        assert [pt.mode for pt in curve.points].count("quantized_emulated") == count
        assert [len(hq) for hq in stacks] == [CHUNK_TRIALS * spec.k] * units + [5 * spec.k] * units

    @pytest.mark.parametrize("kw", [
        dict(policy=FeedbackPolicy(mode="quantized_emulated", schedule="scaled_3db")),
        dict(m=6, n=2, precoder="zf", policy=FeedbackPolicy(
            mode="quantized_emulated", schedule="custom", bits_table={0.0: 8, 10.0: 13, 20.0: 17})),
    ], ids=["bd", "zf"])
    def test_emulated_knowledge_is_emulate_batch(self, monkeypatch, kw):
        """An emulated point's knowledge is emulate_batch on the chunk's one
        emulation stream at that point's unit budgets, bitwise."""
        stacks = self._spy_draws(monkeypatch)
        real, knowledge = simulator.bd_precoders_batch, []

        def spy(units):
            knowledge.append(units.copy())
            return real(units)

        monkeypatch.setattr(simulator, "bd_precoders_batch", spy)
        spec = _spec(**{"snr_grid_db": (0.0, 10.0, 20.0), "trials": 2 * CHUNK_TRIALS + 9, **kw})
        plan = simulator._plan(spec)
        emulation = (simulator._MODES.index("quantized_emulated"), 0)
        for chunk in (0, 2):
            stacks.clear()
            knowledge.clear()
            _chunk(spec, plan, chunk)
            for pt, units in zip(plan, knowledge):
                if pt.mode != "quantized_emulated":
                    continue
                assert pt.substream == emulation
                gen = RngStream(spec.seed).child(chunk, *emulation).generator()
                fed = [emulate_batch(gen, hq, b)[0] for hq, b in zip(stacks, pt.budgets)]
                want = np.stack(fed, axis=1).reshape(units.shape)
                np.testing.assert_array_equal(units, want)

    @staticmethod
    def _spy_distortions(monkeypatch):
        """(budget, d^2) of every per-budget emulation map."""
        real, seen = simulator._map_to_budget, []

        def spy(draw, hq, bits, out):
            frames, z = real(draw, hq, bits, out)
            seen.append((bits, z))
            return frames, z

        monkeypatch.setattr(simulator, "_map_to_budget", spy)
        return seen

    def test_emulated_distortion_falls_with_the_budget(self, monkeypatch):
        """One chunk's emulated points share their uniforms, so each trial's
        d^2 is non-increasing in the budget across the points."""
        seen = self._spy_distortions(monkeypatch)
        spec = _spec(m=6, n=2, snr_grid_db=tuple(range(0, 31, 5)), trials=CHUNK_TRIALS,
                     policy=FeedbackPolicy(mode="quantized_emulated", schedule="scaled_3db"))
        run_experiment(spec)
        budgets = [b for b, _ in seen]
        assert len(seen) >= 5 and budgets == sorted(set(budgets))
        for (_, hi), (_, lo) in zip(seen, seen[1:]):
            assert np.all(lo <= hi) and np.any(lo < hi)

    @pytest.mark.parametrize("kw,budgets", [
        (dict(m=4, n=2, policy=FeedbackPolicy(mode="quantized_emulated", schedule="custom",
                                              bits_table={10.0: 7, 20.0: 12})), (7, 12)),
        (dict(m=6, n=2, precoder="zf", policy=FeedbackPolicy(
            mode="quantized_emulated", schedule="custom", bits_table={10.0: 12, 20.0: 20})), (6, 10)),
    ], ids=["bd", "zf"])
    def test_emulated_distortion_keeps_its_law(self, monkeypatch, kw, budgets):
        """Sharing the draws leaves each point's marginal law alone: its d^2
        sample fits the exact min CDF 1 - (1 - C_MN x^T)^(2^B) of its unit
        width, here 2 under BD and 1 under ZF."""
        seen = self._spy_distortions(monkeypatch)
        spec = _spec(snr_grid_db=(10.0, 20.0), trials=CHUNK_TRIALS, **kw)
        run_experiment(spec)
        gc = GrassmannConstants(spec.m, simulator._plan(spec)[0].width)
        assert sorted({b for b, _ in seen}) == list(budgets)
        for bits in budgets:
            z = np.concatenate([z for b, z in seen if b == bits])
            cdf = lambda x: -np.expm1(2.0 ** bits * np.log1p(-gc.c * x ** gc.t))
            assert kstest(z, cdf).pvalue >= 0.01

    @pytest.mark.parametrize("policy,shared", [
        (FeedbackPolicy(mode="quantized_emulated", schedule="custom",
                        bits_table={0.0: 10, 10.0: 12, 20.0: 12}), [False, True]),
        (FeedbackPolicy(mode="analog", beta=2.0), [False, False]),
    ], ids=["bits", "analog"])
    def test_only_equal_knowledge_shares_precoders(self, monkeypatch, policy, shared):
        """A point reuses the precoders of the point before it only when it
        has the same bits, and analog points at different P never do."""
        real, seen = simulator.rates_batch, []

        def spy(p, channels, precoders, scheme):
            seen.append(precoders)
            return real(p, channels, precoders, scheme)

        monkeypatch.setattr(simulator, "rates_batch", spy)
        run_experiment(_spec(policy=policy, snr_grid_db=(0.0, 10.0, 20.0), trials=50))
        assert [b is a for a, b in zip(seen, seen[1:])] == shared
        assert [np.array_equal(a, b) for a, b in zip(seen, seen[1:])] == shared


class TestCommonRandomNumbers:
    def test_quantization_only_hurts(self):
        """The perfect curve, the closed form that the quantized points
        regress toward, lies above the quantized one at every point."""
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
        """Same channels, trial by trial: generous analog feedback loses a
        little of the perfect-CSI rate on average."""
        analog = _spec(trials=400, policy=FeedbackPolicy(mode="analog", beta=200.0))
        want = _perfect_rates(analog)[0].sum(axis=1)
        got = _one_point(analog, 0, _point(analog))[:, 0]
        diff = float(np.mean(want - got))
        assert 0.0 < diff < 0.2

    def test_exhaustive_and_emulated_statistically_equal(self):
        """Independent seeds, overlapping 99% confidence intervals; the
        acceptance suite repeats this at the spec's full trial count."""
        kw = dict(snr_grid_db=(10.0,), trials=6000, m=4, n=2)
        emu = run_experiment(
            _spec(policy=FeedbackPolicy(mode="quantized_emulated", bits=8), seed=1, **kw)
        )
        exh = run_experiment(
            _spec(policy=FeedbackPolicy(mode="quantized_exhaustive", bits=8),
                  seed=2, **kw)
        )
        e, x = emu.points[0], exh.points[0]
        assert abs(e.sum_rate - x.sum_rate) <= e.ci99 + x.ci99


class TestRegressionEstimator:
    """Non-perfect points regress the sum rate R on the interference-free
    sum rate Y, whose mean is the closed-form perfect-CSI sum rate."""

    @staticmethod
    def _plain(rates):
        r = rates[:, 0]
        return float(np.mean(r)), simulator.Z99 * float(np.std(r, ddof=1)) / math.sqrt(len(r))

    @pytest.mark.parametrize("precoder,m,n", [("bd", 6, 2), ("bd", 8, 4), ("zf", 8, 1), ("zf", 6, 2)])
    @pytest.mark.parametrize("mode", ["quantized_emulated", "quantized_exhaustive", "analog"])
    def test_free_rate_mean_is_closed_form(self, precoder, m, n, mode):
        """The precoders serving a user come from the other users' feedback
        alone, so mean(Y) is the perfect-CSI sum rate whatever the feedback."""
        seed, kw = {"quantized_emulated": (61, dict(bits=64)),
                    "quantized_exhaustive": (62, dict(bits=4)),
                    "analog": (63, dict(beta=1.0))}[mode]
        policy = FeedbackPolicy(mode=mode, **kw)
        spec = _spec(m=m, n=n, precoder=precoder, policy=policy, snr_grid_db=(0.0, 20.0),
                     trials=CHUNK_TRIALS, seed=seed)
        for pt in simulator._plan(spec):
            assert pt.mode == mode
            y = _one_point(spec, 0, pt)[:, 1]
            mu = perfect_csi_sum_rate(SystemConfig(m, n, 10.0 ** (pt.p_db / 10.0)), precoder)
            z = (np.mean(y) - mu) / (np.std(y, ddof=1) / math.sqrt(len(y)))
            assert abs(z) <= 3.5, (pt.p_db, z)

    def test_unbiased_over_seeds(self):
        """Over 24 independent seeds the regression estimates and the plain
        means of the same trials agree within their pooled 99% half-widths."""
        policy = FeedbackPolicy(mode="quantized_emulated", bits=10)
        est, plain, ci_est, ci_plain = [], [], [], []
        for seed in range(24):
            spec = _spec(policy=policy, snr_grid_db=(20.0,), trials=200, seed=300 + seed)
            pt = run_experiment(spec).points[0]
            mean, ci = self._plain(_one_point(spec, 0, _point(spec, 20.0)))
            est.append(pt.sum_rate)
            ci_est.append(pt.ci99)
            plain.append(mean)
            ci_plain.append(ci)
        pooled = math.sqrt(np.sum(np.square(ci_est))) / 24 + math.sqrt(np.sum(np.square(ci_plain))) / 24
        assert abs(np.mean(est) - np.mean(plain)) <= pooled
        # the residual varies less than R itself
        assert np.mean(ci_est) < np.mean(ci_plain)

    @pytest.mark.parametrize("trials", [1, 2])
    def test_few_trials_take_the_plain_mean(self, trials):
        spec = _spec(policy=FeedbackPolicy(mode="quantized_emulated", bits=12), trials=trials)
        pt = run_experiment(spec).points[0]
        rates = _one_point(spec, 0, _point(spec))
        assert pt.sum_rate == float(np.mean(rates[:, 0]))
        if trials == 1:
            assert math.isinf(pt.ci99)
        else:
            assert pt.ci99 == self._plain(rates)[1]

    def test_constant_free_rate_takes_the_plain_mean(self):
        """At -300 dB every 1 + c g underflows to 1, so Y is 0 in every
        trial and has no variance to regress on."""
        spec = _spec(policy=FeedbackPolicy(mode="analog", beta=2.0), snr_grid_db=(-300.0,))
        rates = _one_point(spec, 0, _point(spec, -300.0))
        assert np.all(rates[:, 1] == 0.0)
        pt = run_experiment(spec).points[0]
        assert (pt.sum_rate, pt.ci99) == self._plain(rates)
        assert math.isfinite(pt.sum_rate) and math.isfinite(pt.ci99)

    def test_non_finite_slope_takes_the_plain_mean(self):
        """A subnormal var(Y) under a large cov(R, Y) overflows b."""
        r = np.array([1e150, -1e150, 1e150, -1e150])
        y = np.array([1e-160, -1e-160, 1e-160, -1e-160])
        rates = np.column_stack([r, y])
        assert simulator._estimate(rates, 0.0, None) == self._plain(rates)

    @pytest.mark.parametrize("precoder,m,n", [("bd", 4, 2), ("bd", 6, 2), ("zf", 8, 1)])
    def test_exact_feedback_has_zero_ci(self, precoder, m, n):
        """At B = 10^5 the feedback is exact, R is Y in every trial, b = 1,
        and the estimate is the closed-form mean with a zero half-width."""
        pol = FeedbackPolicy(mode="quantized_emulated", bits=10 ** 5)
        curve = run_experiment(_spec(m=m, n=n, precoder=precoder, policy=pol,
                                     snr_grid_db=(10.0, 30.0)))
        for pt in curve.points:
            assert pt.ci99 == 0.0
            mu = perfect_csi_sum_rate(SystemConfig(m, n, 10.0 ** (pt.p_db / 10.0)), precoder)
            assert pt.sum_rate == pytest.approx(mu, rel=1e-14)


class TestLeakageControl:
    """Where its mean is exact, non-perfect points also regress on the
    multi-user leakage L: M E[min d^2] per quantized unit, times
    (M - N)/(M - 1) under ZF, and N (M - N)/(1 + beta P) per user under
    analog feedback."""

    @staticmethod
    def _leak_z(spec, pt, scale=1.0):
        leak = _one_point(spec, 0, pt)[:, 2]
        mu = scale * pt.mean_leak
        return (np.mean(leak) - mu) / (np.std(leak, ddof=1) / math.sqrt(len(leak)))

    @pytest.mark.parametrize("precoder,m,n", [
        ("bd", 4, 2), ("bd", 6, 2), ("bd", 8, 4), ("zf", 8, 1), ("zf", 6, 2), ("zf", 8, 2),
    ])
    @pytest.mark.parametrize("mode", ["quantized_emulated", "analog"])
    def test_leakage_mean_is_closed_form(self, precoder, m, n, mode):
        kw = dict(bits=24) if mode == "quantized_emulated" else dict(beta=1.0)
        policy = FeedbackPolicy(mode=mode, **kw)
        spec = _spec(m=m, n=n, precoder=precoder, policy=policy, snr_grid_db=(0.0, 20.0),
                     trials=CHUNK_TRIALS, seed=71)
        for pt in simulator._plan(spec):
            assert pt.mode == mode
            z = self._leak_z(spec, pt)
            assert abs(z) <= 3.5, (pt.p_db, z)

    @pytest.mark.parametrize("precoder,m,n,bits", [
        ("zf", 8, 1, 0), ("zf", 8, 1, 1), ("zf", 8, 1, 2),
        ("zf", 6, 2, 0), ("zf", 6, 2, 1), ("zf", 6, 2, 2),
        ("bd", 4, 2, 8), ("bd", 4, 2, 0), ("bd", 6, 2, 0),
    ])
    def test_exhaustive_leakage_mean(self, precoder, m, n, bits):
        """Width-1 units at every budget, wider ones once the guard holds
        or at 0 bits, where the one entry is isotropic."""
        spec = _spec(m=m, n=n, precoder=precoder, trials=CHUNK_TRIALS, seed=72,
                     policy=FeedbackPolicy(mode="quantized_exhaustive", bits=bits))
        pt = _point(spec)
        assert pt.mode == "quantized_exhaustive"
        z = self._leak_z(spec, pt)
        assert abs(z) <= 3.5, z

    @pytest.mark.parametrize("m,n", [(6, 2), (8, 2)])
    def test_zf_counts_only_the_other_users_beams(self, m, n):
        """An antenna leaks into the M - N beams of the other users, not
        into all M - 1 beams orthogonal to its feedback."""
        spec = _spec(m=m, n=n, precoder="zf", trials=CHUNK_TRIALS, seed=73,
                     policy=FeedbackPolicy(mode="quantized_emulated", bits=24))
        pt = _point(spec)
        assert pt.mode == "quantized_emulated"
        assert abs(self._leak_z(spec, pt)) <= 3.5
        assert abs(self._leak_z(spec, pt, (m - 1) / (m - n))) > 10

    def test_without_exact_mean_regress_on_y_alone(self):
        """(4, 2) at B = 4 fails the guard, so the scan runs and E[min d^2]
        has no exact closed form."""
        spec = _spec(policy=FeedbackPolicy(mode="quantized_exhaustive", bits=4), trials=300)
        pt = run_experiment(spec).points[0]
        planned = _point(spec)
        assert (planned.bits, planned.mode) == (4, pt.mode)
        assert planned.mean_leak is None
        rates = _one_point(spec, 0, planned)
        mu = perfect_csi_sum_rate(SystemConfig(4, 2, 10.0))
        assert (pt.sum_rate, pt.ci99) == simulator._estimate(rates[:, :2], mu, None)

    def test_two_controls_match_least_squares(self):
        """The estimate is the fitted R at the known control means, and the
        half-width that of the least-squares residual, for both controls
        and for Y alone (no mean for L)."""
        rng = np.random.default_rng(5)
        y, leak = rng.standard_normal((2, 500))
        r = 2.0 + 0.7 * y - 1.3 * leak + 0.1 * rng.standard_normal(500)
        for controls, mean_leak in ((2, -0.1), (1, None)):
            x = np.column_stack([np.ones(500), y, leak])[:, :1 + controls]
            coef = np.linalg.lstsq(x, r, rcond=None)[0]
            est, ci = simulator._estimate(np.column_stack([r, y, leak]), 0.2, mean_leak)
            assert est == pytest.approx(np.array([1.0, 0.2, -0.1])[:1 + controls] @ coef, rel=1e-12)
            resid = r - x @ coef
            assert ci == pytest.approx(simulator.Z99 * resid.std(ddof=1 + controls) / math.sqrt(500), rel=1e-10)

    def test_fallbacks_to_y_alone(self):
        """T <= 3, a constant leakage, a leakage collinear with Y, and a
        non-finite two-control estimate all give the Y-only estimate."""
        rng = np.random.default_rng(6)
        y, leak, noise = rng.standard_normal((3, 200))
        r = y - 3.0 * leak + noise
        cases = [
            (np.column_stack([r, y, leak])[:3], 0.0),
            (np.column_stack([r, y, np.full(200, 0.5)]), 0.5),
            (np.column_stack([r, y, 3.0 * y + 1.0]), 1.0),
            (np.column_stack([r, y, leak]), 1e308),
        ]
        for rates, mean_leak in cases:
            want = simulator._estimate(rates[:, :2], 0.0, None)
            assert all(map(math.isfinite, want))
            assert simulator._estimate(rates, 0.0, mean_leak) == want

    def test_narrows_interference_limited_points(self):
        """On the scaled ZF sweep at 30 dB the leakage carries most of what
        Y leaves of the variance."""
        spec = _spec(m=8, n=1, precoder="zf", snr_grid_db=(30.0,), trials=2048, seed=74,
                     policy=FeedbackPolicy(mode="quantized_emulated", schedule="scaled_3db"))
        pt = run_experiment(spec).points[0]
        rates = np.concatenate([
            _one_point(spec, c, _point(spec, 30.0)) for c in range(2)
        ])
        _, ci_free = simulator._estimate(rates, perfect_csi_sum_rate(SystemConfig(8, 1, 1e3), "zf"), None)
        assert (ci_free / pt.ci99) ** 2 > 4.0


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

    @pytest.mark.parametrize("p_db,rates,test_p_db", [
        ([], [], 0), ([0, 10, 20], [4.0, math.nan, 8.0], 0),
        ([0, math.nan, 20], [4.0, 6.0, 8.0], 0), ([0, 10, 20], [4.0, 6.0, 8.0], math.nan),
    ], ids=["empty", "nan_rate", "nan_power", "nan_test_power"])
    def test_unusable_curve(self, p_db, rates, test_p_db):
        with pytest.raises(ParameterError):
            estimate_snr_gap(self._curve(p_db, rates), self._curve([test_p_db], [5.0]))


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

    @pytest.mark.parametrize("row", ["0,1,2", "0,abc,0.5,0.1,perfect,", "0,1,0.5,0.1,perfect,x",
                                     "0,1,0.5,0.1,perfect,,"])
    def test_rejects_malformed_row(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text("p_db,sum_rate,per_user_rate,ci99,mode,bits_used\n"
                        "10,3,1.5,0.01,perfect,\n\n" + row + "\n")
        with pytest.raises(ParameterError, match=r"bad\.csv, line 4"):
            read_curve_csv(path)
