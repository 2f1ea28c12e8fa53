import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from grassfeed.errors import DomainError, Infeasible, ParameterError
from grassfeed.grassmann import GrassmannConstants, distortion_main_term
from grassfeed.scaling import (
    analog_vs_quantized_bounds,
    bd_3db_bits,
    bd_zf_rate_gap,
    bits_for_rate_loss,
    c_double_prime,
    c_prime,
    zf_3db_bits,
    zf_bits_for_rate_loss,
)


class TestHandValues:
    def test_bd_3db_at_4_2_is_integer(self):
        # T/3 * 15 - log2(2^4 * 0.5) = 20 - 3
        assert bd_3db_bits(4, 2, 15.0) == pytest.approx(17.0, abs=1e-12)

    def test_bd_3db_at_6_2(self):
        # 8/3 * 15 - log2(2^8 / 14) = 40 - log2(128/7)
        expect = 40.0 - math.log2(256.0 / 14.0)
        assert bd_3db_bits(6, 2, 15.0) == pytest.approx(expect, abs=1e-12)
        assert bd_3db_bits(6, 2, 15.0) == pytest.approx(35.807, abs=5e-4)

    def test_approx_at_6_2(self):
        res = bits_for_rate_loss(6, 2, 15.0, 4.0)
        assert res.approx == pytest.approx(35.115, abs=5e-4)
        assert res.exact == pytest.approx(34.978, abs=5e-4)

    def test_zf_3db_values(self):
        assert zf_3db_bits(6, 15.0) == pytest.approx(25.0, abs=1e-12)
        assert zf_3db_bits(2, 0.0) == 0.0
        table = [math.ceil(zf_3db_bits(6, p)) for p in range(5, 31, 5)]
        assert table == [9, 17, 25, 34, 42, 50]

    def test_constants(self):
        gc = GrassmannConstants(4, 2)
        assert c_prime(gc) == pytest.approx(8.0, abs=1e-12)
        assert c_double_prime(gc) == pytest.approx(0.381096, abs=5e-6)

    def test_rate_gap_values(self):
        assert bd_zf_rate_gap(6, 2) == pytest.approx(3 * math.log2(math.e), rel=1e-12)
        assert bd_zf_rate_gap(6, 2) == pytest.approx(4.3281, abs=5e-5)
        assert bd_zf_rate_gap(9, 3) == pytest.approx(10.8202, abs=5e-5)
        assert bd_zf_rate_gap(4, 1) == 0.0


class TestLargeShapes:
    """G(400, 200) has C_MN near 2^-254616 and N^T C_MN near 2^51139: the
    forms work from log2 C_MN, so nothing overflows or silently rounds to 0."""

    GC = GrassmannConstants(400, 200)

    def test_bd_3db_bits_finite(self):
        gc = self.GC
        log2_c_prime = gc.t * math.log2(200) + gc.log2_c
        assert 51000 < log2_c_prime < 51300
        assert bd_3db_bits(400, 200, 10.0) == pytest.approx(gc.t / 3 * 10 - log2_c_prime, rel=1e-12)

    def test_c_prime_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError):
            c_prime(self.GC)

    def test_c_prime_rounds_the_exact_fraction(self):
        for m, n in [(4, 2), (6, 2), (9, 3), (40, 20)]:
            gc = GrassmannConstants(m, n)
            assert c_prime(gc) == float(n ** gc.t * gc.c_exact)
            # the 3 dB law at 0 dB is -log2 c', summed in the log domain
            assert -bd_3db_bits(m, n, 0.0) == pytest.approx(math.log2(c_prime(gc)), rel=1e-12)

    def test_c_double_prime_does_not_underflow(self):
        gc = self.GC
        assert gc.c == 0.0
        c_root = 2.0 ** (gc.log2_c / gc.t)
        assert c_double_prime(gc) == pytest.approx(math.gamma(1 / gc.t) / (200 * gc.t) * c_root, rel=1e-12)
        assert c_double_prime(gc) > 1e-5
        # where C_MN is a normal double the two forms agree
        for m, n in [(4, 2), (8, 3), (12, 4)]:
            g = GrassmannConstants(m, n)
            old = math.gamma(1 / g.t) / (n * g.t) * g.c ** (1 / g.t)
            assert c_double_prime(g) == pytest.approx(old, rel=1e-13)

    @pytest.mark.parametrize("beta,p", [(2.0, 1e300), (1e300, 1e3), (0.5, 1e300)])
    def test_analog_comparison_at_extreme_power(self, beta, p):
        quant, analog = analog_vs_quantized_bounds(4, 2, beta, p)
        assert math.isfinite(quant) and math.isfinite(analog)
        assert quant >= 0.0 and analog >= 0.0
        if beta == 0.5:
            # quant = N log2(1 + C'' P^(1/2)) to first order
            assert quant == pytest.approx(2 * math.log2(c_double_prime(GrassmannConstants(4, 2)) * 1e150),
                                          rel=1e-9)

    def test_analog_comparison_at_large_shape(self):
        quant, _ = analog_vs_quantized_bounds(400, 200, 2.0, 10.0)
        assert quant == pytest.approx(
            200 * math.log2(1 + 10 * c_double_prime(self.GC) / 11 ** 2), rel=1e-12)
        assert quant > 0.0


class TestClosedFormStructure:
    def test_gamma_term_identity(self):
        """approx at b = 2^N exceeds the 3-dB law by exactly
        T log2(Gamma(1/T)/T); pins both constant terms at once."""
        for m, n in ((4, 2), (6, 2), (8, 2), (6, 3)):
            t = n * (m - n)
            shift = t * math.log2(math.gamma(1.0 / t) / t)
            for p_db in (0.0, 7.5, 15.0, 30.0):
                approx = bits_for_rate_loss(m, n, p_db, float(2 ** n)).approx
                assert approx - bd_3db_bits(m, n, p_db) == pytest.approx(
                    shift, abs=1e-9
                )

    def test_slope_is_t_bits_per_3db(self):
        for m, n in ((4, 2), (6, 2), (8, 4)):
            t = n * (m - n)
            r0 = bits_for_rate_loss(m, n, 10.0, 3.0).approx
            r1 = bits_for_rate_loss(m, n, 13.0, 3.0).approx
            assert r1 - r0 == pytest.approx(t, abs=1e-12)
            assert bd_3db_bits(m, n, 13.0) - bd_3db_bits(m, n, 10.0) == pytest.approx(
                t, abs=1e-12
            )

    def test_approx_tracks_exact_at_high_budget(self):
        for m, n in ((4, 2), (6, 2)):
            for p_db in (15.0, 20.0, 30.0):
                res = bits_for_rate_loss(m, n, p_db, 4.0)
                if res.exact >= 20.0:
                    assert abs(res.approx - res.exact) <= 1.0

    def test_exact_inverts_the_main_term(self):
        """Plugging the exact bit count back into the loss expression must
        recover the target."""
        m, n, p_db, b = 6, 2, 18.0, 3.0
        res = bits_for_rate_loss(m, n, p_db, b)
        gc = GrassmannConstants(m, n)
        p = 10.0 ** (p_db / 10.0)
        loss = n * math.log2(1.0 + p / n * distortion_main_term(gc, res.exact))
        assert loss == pytest.approx(math.log2(b), abs=1e-5)

    def test_monotone_in_target(self):
        # looser target (bigger b) needs fewer bits
        vals = [bits_for_rate_loss(6, 2, 15.0, b).exact for b in (2.0, 4.0, 8.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_monotone_in_power(self):
        vals = [bits_for_rate_loss(6, 2, p, 4.0).exact for p in (5.0, 15.0, 25.0)]
        assert vals[0] < vals[1] < vals[2]

    def test_exact_at_huge_power(self):
        """T P_dB alone overflows at 1e308 dB; exact must not fall to 0
        through approx - inf, nor any law return inf at a finite power."""
        res = bits_for_rate_loss(4, 2, 1e308, 4.0)
        assert math.isfinite(res.exact) and res.exact > 1e307
        assert res.exact < res.approx
        with pytest.raises(DomainError):
            bits_for_rate_loss(8, 4, 1e308, 4.0)
        with pytest.raises(DomainError):
            zf_bits_for_rate_loss(4, 2, 1e308, 4.0)
        with pytest.raises(DomainError):
            zf_3db_bits(8, 1e308)
        with pytest.raises(DomainError):
            bd_3db_bits(8, 4, 1e308)
        assert bits_for_rate_loss(4, 2, -1e308, 4.0).exact == 0.0

    def test_target_next_to_one(self):
        """b^(1/N) rounds to 1 just above b = 1; the laws still return a
        large finite budget instead of taking log2(0)."""
        b = 1.0 + 2.0 ** -52
        assert 200.0 < bits_for_rate_loss(4, 2, 10.0, b).approx < 300.0
        assert 300.0 < zf_bits_for_rate_loss(4, 2, 10.0, b) < 400.0

    def test_zero_bits_when_target_already_met(self):
        # at tiny power even B = 0 meets a generous target
        res = bits_for_rate_loss(4, 2, -30.0, 16.0)
        assert res.exact == 0.0


class TestZfComparison:
    def test_reduces_to_3db_law(self):
        for m, n in ((4, 2), (6, 2), (6, 3)):
            for p_db in (5.0, 15.0, 25.0):
                assert zf_bits_for_rate_loss(m, n, p_db, float(2 ** n)) == pytest.approx(
                    n * zf_3db_bits(m, p_db), abs=1e-12
                )

    def test_bd_needs_fewer_bits_matched_target(self):
        """At the same per-user rate-loss target, the joint quantizer beats
        per-antenna quantization at every tabulated power."""
        for m, n in ((4, 2), (6, 2)):
            for b in (float(2 ** n), 16.0, 64.0):
                for p_db in range(5, 31, 5):
                    bd = bits_for_rate_loss(m, n, float(p_db), b).approx
                    zf = zf_bits_for_rate_loss(m, n, float(p_db), b)
                    assert bd < zf

    def test_infeasible_targets(self):
        with pytest.raises(Infeasible):
            bits_for_rate_loss(4, 2, 10.0, 1.0)
        with pytest.raises(Infeasible):
            bits_for_rate_loss(4, 2, 10.0, 0.5)
        with pytest.raises(Infeasible):
            zf_bits_for_rate_loss(4, 2, 10.0, 1.0)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            zf_3db_bits(1, 10.0)
        with pytest.raises(ParameterError):
            zf_bits_for_rate_loss(3, 2, 10.0, 4.0)
        with pytest.raises(ParameterError):
            bd_zf_rate_gap(7, 2)


class TestAnalogComparison:
    def test_quant_beats_analog_at_beta_2(self):
        """Scaling the bit budget with power drives the quantized bound to
        zero while analog saturates; ordering must flip by P = 100."""
        for p in (100.0, 1000.0, 1e4):
            quant, analog = analog_vs_quantized_bounds(4, 2, 2.0, p)
            assert quant < analog

    def test_quant_vanishes_at_high_power_beta_2(self):
        quant, _ = analog_vs_quantized_bounds(4, 2, 2.0, 1e4)
        assert quant < 1e-2

    def test_beta_1_saturates_both(self):
        gc = GrassmannConstants(4, 2)
        quant_lim = 2 * math.log2(1.0 + c_double_prime(gc))
        from grassfeed.precoding import analog_rate_loss_limit

        analog_lim = analog_rate_loss_limit(4, 2, 1.0)
        for p in (100.0, 1000.0, 1e4):
            quant, analog = analog_vs_quantized_bounds(4, 2, 1.0, p)
            assert abs(quant - quant_lim) / quant_lim < 0.2
            assert abs(analog - analog_lim) / analog_lim < 0.2

    def test_both_vanish_at_low_power(self):
        quant, analog = analog_vs_quantized_bounds(4, 2, 1.0, 1e-9)
        assert quant < 1e-8 and analog < 1e-8

    def test_validation(self):
        with pytest.raises(ParameterError):
            analog_vs_quantized_bounds(4, 2, 0.0, 10.0)
        with pytest.raises(ParameterError):
            analog_vs_quantized_bounds(4, 2, 1.0, 0.0)


def test_import_loads_no_scipy():
    """The library itself runs on numpy alone; scipy is for the tests.
    In the same fresh interpreter, ``from grassfeed import *`` binds exactly
    the names in ``grassfeed.__all__``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, grassfeed; ns = {}; exec('from grassfeed import *', ns); "
        "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy')); "
        "print(sorted(set(ns) - {'__builtins__'}) == sorted(grassfeed.__all__))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["[]", "True"]
