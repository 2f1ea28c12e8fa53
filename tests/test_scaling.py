import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from grassfeed.errors import Infeasible, ParameterError
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
        with pytest.raises(ParameterError):
            bd_zf_rate_gap(6, 2, k=4)

    def test_rate_gap_accepts_consistent_k(self):
        assert bd_zf_rate_gap(6, 2, k=3) == bd_zf_rate_gap(6, 2)


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
    """The library itself runs on numpy alone; scipy is for emu-selftest.
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
