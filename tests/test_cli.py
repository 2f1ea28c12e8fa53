import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from grassfeed import cli
from grassfeed.cli import (
    _parse_bits_table,
    _snr_grid,
    build_spec,
    main,
    parse_config,
)
from grassfeed.errors import ConfigError
from grassfeed.scaling import bd_3db_bits
from grassfeed.simulator import FeedbackPolicy, read_curve_csv


def _write_config(tmp_path, text, name="sim.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASIC = """\
# minimal perfect-CSIT sweep
M = 4
N = 2
snr_start = 0
snr_stop = 10
snr_step = 5
mode = perfect
trials = 64
seed = 11
"""


# BASIC's grid and mode lines, and the tail of a quantized sweep whose rates
# overflow the double range from 3081 dB
GRID_AND_MODE = "snr_start = 0\nsnr_stop = 10\nsnr_step = 5\nmode = perfect"
OVERFLOWING = "snr_step = 5\nmode = quantized_exhaustive\nB = 4"


class TestParseConfig:
    def test_basic(self, tmp_path):
        cfg = parse_config(_write_config(tmp_path, BASIC))
        assert cfg["M"] == "4"
        assert cfg["mode"] == "perfect"
        assert "snr_step" in cfg

    def test_comments_and_blanks(self, tmp_path):
        cfg = parse_config(
            _write_config(tmp_path, "M = 4  # antennas\n\n  \nN = 2\n")
        )
        assert cfg == {"M": "4", "N": "2"}

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(_write_config(tmp_path, "antennas = 4\n"))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(_write_config(tmp_path, "M = 4\nM = 6\n"))

    def test_missing_equals(self, tmp_path):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(_write_config(tmp_path, "M 4\n"))

    def test_readme_table_lists_every_key(self):
        """The README's config table names exactly the keys the parser takes."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("Config files are flat", 1)[1].split("\n\n")[1]
        first_cells = [row.split("|")[1] for row in table.splitlines()[2:]]
        keys = [key for cell in first_cells for key in re.findall(r"`([^`]+)`", cell)]
        assert sorted(keys) == sorted(cli._CONFIG_KEYS)


class TestBuildSpec:
    def test_perfect(self, tmp_path):
        spec = build_spec(parse_config(_write_config(tmp_path, BASIC)))
        assert spec.m == 4 and spec.n == 2
        assert spec.snr_grid_db == (0.0, 5.0, 10.0)
        assert spec.policy.mode == "perfect"
        assert spec.seed == 11
        assert spec.precoder == "bd"

    def test_seed_flag_wins(self, tmp_path):
        spec = build_spec(parse_config(_write_config(tmp_path, BASIC)), seed_override=99)
        assert spec.seed == 99

    def test_seed_required(self, tmp_path):
        text = BASIC.replace("seed = 11\n", "")
        with pytest.raises(ConfigError, match="seed"):
            build_spec(parse_config(_write_config(tmp_path, text)))

    def test_quantized_fixed(self, tmp_path):
        text = BASIC.replace("mode = perfect", "mode = quantized_emulated\nB = 12")
        spec = build_spec(parse_config(_write_config(tmp_path, text)))
        assert spec.policy.bits == 12
        assert spec.policy.schedule == "fixed"

    def test_quantized_fixed_needs_bits(self, tmp_path):
        text = BASIC.replace("mode = perfect", "mode = quantized_emulated")
        with pytest.raises(ConfigError, match="'B'"):
            build_spec(parse_config(_write_config(tmp_path, text)))

    @pytest.mark.parametrize("mode,key", [
        ("quantized_exhaustive\nschedule = custom", "'bits_table'"),
        ("analog", "'beta'"),
    ])
    def test_missing_key_is_named(self, tmp_path, mode, key):
        text = BASIC.replace("mode = perfect", f"mode = {mode}")
        with pytest.raises(ConfigError, match=key):
            build_spec(parse_config(_write_config(tmp_path, text)))

    def test_custom_schedule(self, tmp_path):
        text = BASIC.replace(
            "mode = perfect",
            "mode = quantized_exhaustive\nschedule = custom\n"
            "bits_table = 0:2, 5:8, 10:14",
        )
        spec = build_spec(parse_config(_write_config(tmp_path, text)))
        assert spec.policy.bits_table == {0.0: 2, 5.0: 8, 10.0: 14}

    def test_analog(self, tmp_path):
        text = BASIC.replace("mode = perfect", "mode = analog\nbeta = 2")
        spec = build_spec(parse_config(_write_config(tmp_path, text)))
        assert spec.policy.beta == 2.0

    def test_bad_number(self, tmp_path):
        text = BASIC.replace("trials = 64", "trials = many")
        with pytest.raises(ConfigError, match="trials"):
            build_spec(parse_config(_write_config(tmp_path, text)))


class TestSnrGrid:
    def test_stop_defaults_to_start(self):
        assert _snr_grid({"snr_start": "10"}) == (10.0,)

    def test_default_step(self):
        assert _snr_grid({"snr_start": "0", "snr_stop": "15"}) == (0.0, 5.0, 10.0, 15.0)

    def test_inclusive_endpoint_with_float_step(self):
        grid = _snr_grid({"snr_start": "0", "snr_stop": "1", "snr_step": "0.1"})
        assert len(grid) == 11
        assert grid[-1] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            _snr_grid({"snr_start": "10", "snr_stop": "0"})
        with pytest.raises(ConfigError):
            _snr_grid({"snr_start": "0", "snr_stop": "10", "snr_step": "0"})

    def test_point_cap(self):
        """A range of more than _MAX_GRID_POINTS points is refused from its
        count, before any point is built; the cap itself is allowed."""
        assert len(_snr_grid({"snr_start": "0", "snr_stop": "100", "snr_step": "0.01"})) == cli._MAX_GRID_POINTS
        tracemalloc.start()
        try:
            for step in ("1e-9", "0.0099"):
                with pytest.raises(ConfigError, match="points"):
                    _snr_grid({"snr_start": "0", "snr_stop": "100", "snr_step": step})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16

    def test_bits_table_parse_errors(self):
        with pytest.raises(ValueError):
            _parse_bits_table("10=4")


class TestSimulateCommand:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, BASIC)
        out = str(tmp_path / "curve.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        assert "wrote 3 points" in capsys.readouterr().out
        curve = read_curve_csv(out)
        assert len(curve.points) == 3
        assert curve.points[0].mode == "perfect"
        assert curve.points[2].sum_rate > curve.points[0].sum_rate

    def test_deterministic_across_runs(self, tmp_path):
        cfg = _write_config(tmp_path, BASIC)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["simulate", "--config", cfg, "--out", out1])
        main(["simulate", "--config", cfg, "--out", out2])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_seed_flag_changes_result(self, tmp_path):
        text = BASIC.replace("mode = perfect", "mode = quantized_emulated\nB = 10")
        cfg = _write_config(tmp_path, text)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["simulate", "--config", cfg, "--out", out1])
        main(["simulate", "--config", cfg, "--out", out2, "--seed", "12"])
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()

    def test_missing_seed_exits_2(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, BASIC.replace("seed = 11\n", ""))
        out = str(tmp_path / "curve.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "curve.csv")
        assert main(["simulate", "--config", str(tmp_path / "no.cfg"), "--out", out]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bit_budget_past_underflow(self, tmp_path):
        text = BASIC.replace("mode = perfect", "mode = quantized_emulated\nB = 1100")
        out = str(tmp_path / "curve.csv")
        assert main(["simulate", "--config", _write_config(tmp_path, text), "--out", out]) == 0
        curve = read_curve_csv(out)
        assert [pt.mode for pt in curve.points] == ["quantized_emulated"] * 3
        assert np.all(np.isfinite(curve.sum_rate))

    @pytest.mark.parametrize(
        "old,new",
        [
            ("mode = perfect", "mode = quantized_emulated\nB = 8\nguard_product = 15"),
            ("mode = perfect", "mode = analog\nbeta = inf"),
            ("mode = perfect", "mode = quantized_exhaustive\nB = 1000000000000000000"),
            ("mode = perfect", "mode = quantized_exhaustive\nschedule = custom\n"
                               "bits_table = 0:2, 5:-1, 10:3"),
            ("snr_stop = 10", "snr_stop = inf"),
            ("snr_start = 0", "snr_start = nan"),
            ("snr_step = 5", "snr_step = 1e-308"),
            ("snr_start = 0\nsnr_stop = 10", "snr_start = 3083\nsnr_stop = 3083"),
            (GRID_AND_MODE, "snr_start = 3081\nsnr_stop = 3081\n" + OVERFLOWING),
            (GRID_AND_MODE, "snr_start = 3082.5\nsnr_stop = 3082.5\n" + OVERFLOWING),
            (GRID_AND_MODE, "snr_start = 3082\nsnr_stop = 3082\n" + OVERFLOWING
             + "\nprecoder = zf"),
            ("snr_start = 0\nsnr_stop = 10\nsnr_step = 5\nmode = perfect",
             "snr_start = 3080\nsnr_stop = 3080\nsnr_step = 5\nmode = analog\nbeta = 2"),
            ("mode = perfect", "mode = perfect\nB = 8\nbeta = 3"),
            ("mode = perfect", "mode = quantized_emulated\nschedule = scaled_3db\nB = 30\n"
                               "bits_table = 0:3"),
            ("mode = perfect", "mode = quantized_exhaustive\nB = 4\nbits_table = 0:3"),
            ("mode = perfect", "mode = analog\nbeta = 2\nschedule = scaled_3db"),
            ("mode = perfect", "mode = perfect\nschedule = custom\nbits_table = 0:3"),
            # B = 10^400 has no float for the emulation guard to compare
            pytest.param("mode = perfect", f"mode = quantized_emulated\nB = 1{'0' * 400}",
                         id="emulated-budget-past-float-range"),
            pytest.param("mode = perfect",
                         f"mode = quantized_exhaustive\nB = 1{'0' * 400}\nprecoder = zf",
                         id="exhaustive-zf-budget-past-float-range"),
        ],
    )
    def test_rejected_input_exits_2(self, tmp_path, capsys, old, new):
        cfg = _write_config(tmp_path, BASIC.replace(old, new))
        out = str(tmp_path / "curve.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        if OVERFLOWING in new:
            assert "overflow" in err
        if "guard_product" in new:
            assert "unknown key" in err

    @pytest.mark.parametrize("mode", ["mode = analog\nbeta = 2", "mode = quantized_exhaustive\nB = 4"],
                             ids=["analog", "exhaustive"])
    def test_oversized_trial_count_exits_2(self, tmp_path, capsys, mode):
        """numpy refuses the rates buffer of 2^62 trials: a MemoryGuard, not a traceback."""
        text = BASIC.replace("mode = perfect", mode).replace("trials = 64", f"trials = {2 ** 62}")
        out = str(tmp_path / "curve.csv")
        assert main(["simulate", "--config", _write_config(tmp_path, text), "--out", out]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("p_db,precoder", [("3081", "bd"), ("3082.5", "bd"), ("3082", "zf")])
    def test_perfect_at_the_spec_limit(self, tmp_path, p_db, precoder):
        """Where quantized rates overflow, perfect points are their closed form."""
        text = BASIC.replace("snr_start = 0\nsnr_stop = 10",
                             f"snr_start = {p_db}\nsnr_stop = {p_db}\nprecoder = {precoder}")
        out = str(tmp_path / "curve.csv")
        assert main(["simulate", "--config", _write_config(tmp_path, text), "--out", out]) == 0
        (pt,) = read_curve_csv(out).points
        assert pt.mode == "perfect" and math.isfinite(pt.sum_rate) and pt.ci99 == 0.0


class TestScalingCommand:
    def test_colon_syntax(self, capsys):
        assert main(["scaling", "--mode", "bd3db", "--M", "6", "--N", "2",
                     "--snr", "0:30:5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "p_db,bd_3db_bits,bd_3db_ceil"
        assert len(lines) == 8
        row15 = lines[4].split(",")
        assert float(row15[0]) == 15.0
        assert float(row15[1]) == pytest.approx(35.807, abs=5e-4)
        assert row15[2] == "36"

    @pytest.mark.parametrize("m,n", [(4, 2), (6, 2), (8, 1)])
    def test_bd_ceiling_is_the_scaled_budget(self, capsys, m, n):
        """The printed bd_3db_ceil is the budget a scaled_3db policy runs:
        both round the law by one rule."""
        assert main(["scaling", "--mode", "bd3db", "--M", str(m), "--N", str(n),
                     "--snr", "0:40:0.5"]) == 0
        rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 81
        policy = FeedbackPolicy(mode="quantized_emulated", schedule="scaled_3db")
        for p_db, _, ceil in rows:
            assert int(ceil) == policy.resolve_bits(float(p_db), m, n)

    def test_zf3db_ceilings(self, capsys):
        assert main(["scaling", "--mode", "zf3db", "--M", "6", "--N", "2",
                     "--snr", "5:30:5"]) == 0
        out = capsys.readouterr().out
        ceils = [int(ln.split(",")[2]) for ln in out.splitlines()[1:]]
        assert ceils == [9, 17, 25, 34, 42, 50]

    def test_large_shape_is_finite(self, capsys):
        """N^T C_MN of G(400, 200) overflows a double; the 3 dB law takes
        its log2, so every budget prints as a finite number."""
        assert main(["scaling", "--M", "400", "--N", "200", "--snr", "0:10:5"]) == 0
        rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:]]
        assert [float(r[0]) for r in rows] == [0.0, 5.0, 10.0]
        assert float(rows[2][1]) == pytest.approx(bd_3db_bits(400, 200, 10.0), rel=1e-5)
        assert rows[2][2] == str(math.ceil(bd_3db_bits(400, 200, 10.0)))

    def test_grid_has_one_spelling(self, capsys):
        """The grid is --snr START:STOP:STEP only; the old per-field flags
        are unknown options."""
        with pytest.raises(SystemExit):
            main(["scaling", "--M", "4", "--N", "2", "--snr-start", "5", "--snr-stop", "30"])
        with pytest.raises(SystemExit):
            main(["scaling", "--M", "4", "--N", "2"])
        capsys.readouterr()

    def test_all_mode_with_offset(self, capsys):
        assert main(["scaling", "--M", "4", "--N", "2",
                     "--snr", "15:15:5", "--offset", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "p_db,bd_3db_bits,bd_3db_ceil,zf_3db_bits,zf_3db_ceil,"
            "offset_bits_approx,offset_bits_exact"
        )
        row = lines[1].split(",")
        assert float(row[1]) == pytest.approx(17.0, abs=1e-9)
        assert row[2] == "17"
        assert float(row[3]) == pytest.approx(15.0, abs=1e-9)

    def test_negative_snr_floors_ceil_at_zero(self, capsys):
        main(["scaling", "--mode", "bd3db", "--M", "4", "--N", "2",
              "--snr=-10:-10:5"])
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[2] == "0"

    def test_bad_shape_exits_2(self, capsys):
        assert main(["scaling", "--M", "4", "--N", "3", "--snr", "0:10:5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_snr_exits_2(self, capsys):
        assert main(["scaling", "--M", "4", "--N", "2", "--snr", "0:10"]) == 2
        capsys.readouterr()

    def test_oversized_grid_exits_2(self, tmp_path, capsys):
        assert main(["scaling", "--M", "4", "--N", "2", "--snr", "0:10:1e-9"]) == 2
        assert "more than the 10001 allowed" in capsys.readouterr().err
        cfg = _write_config(tmp_path, BASIC.replace("snr_step = 5", "snr_step = 1e-9"))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "curve.csv")]) == 2
        assert "more than the 10001 allowed" in capsys.readouterr().err

    def test_endless_grid_exits_2(self, capsys):
        """A step so small that the point count overflows is a bad range."""
        assert main(["scaling", "--M", "4", "--N", "2", "--snr", "0:1e308:1e-308"]) == 2
        assert "error:" in capsys.readouterr().err


class TestGapCommand:
    def test_between_two_curves(self, tmp_path, capsys):
        cfg_ref = _write_config(tmp_path, BASIC, "ref.cfg")
        quant = BASIC.replace("mode = perfect", "mode = quantized_emulated\nB = 10")
        cfg_test = _write_config(tmp_path, quant, "test.cfg")
        ref_csv = str(tmp_path / "ref.csv")
        test_csv = str(tmp_path / "test.csv")
        main(["simulate", "--config", cfg_ref, "--out", ref_csv])
        main(["simulate", "--config", cfg_test, "--out", test_csv])
        capsys.readouterr()
        assert main(["gap", "--ref", ref_csv, "--test", test_csv]) == 0
        out = capsys.readouterr().out
        assert out.startswith("mean_gap_db=")
        gap = float(out.splitlines()[0].split("=")[1])
        assert 0.0 < gap < 10.0

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["gap", "--ref", str(tmp_path / "no.csv"),
                     "--test", str(tmp_path / "no2.csv")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("row", ["0,1,2", "0,abc,0.5,0.1,perfect,"])
    def test_malformed_row_exits_2(self, tmp_path, capsys, row):
        bad = tmp_path / "bad.csv"
        bad.write_text("p_db,sum_rate,per_user_rate,ci99,mode,bits_used\n" + row + "\n")
        assert main(["gap", "--ref", str(bad), "--test", str(bad)]) == 2
        assert "bad.csv, line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [
        [], ["0,1,0.5,0.1,perfect,", "10,nan,nan,0.1,perfect,", "20,2,1,0.1,perfect,"],
    ], ids=["header_only", "nan_rate"])
    def test_bad_reference_exits_2(self, tmp_path, capsys, rows):
        header = "p_db,sum_rate,per_user_rate,ci99,mode,bits_used\n"
        ref, test = tmp_path / "ref.csv", tmp_path / "test.csv"
        ref.write_text(header + "".join(r + "\n" for r in rows))
        test.write_text(header + "5,1.5,0.75,0.1,perfect,\n")
        assert main(["gap", "--ref", str(ref), "--test", str(test)]) == 2
        assert "error:" in capsys.readouterr().err


_HEADER = "p_db,sum_rate,per_user_rate,ci99,mode,bits_used\n"
# input files a user may pass by mistake, as bytes
_BAD_FILES = {
    "non_utf8": b"\xff\xfe" + _HEADER.encode(),
    "empty": b"",
    "header_only": _HEADER.encode(),
    "nan_rates": (_HEADER + "0,nan,nan,0.1,perfect,\n10,nan,nan,0.1,perfect,\n").encode(),
    "wrong_columns": (_HEADER + "0,1,0.5,0.1,perfect\n").encode(),
    "duplicate_powers": (_HEADER + "0,1,0.5,0.1,perfect,\n0,2,1,0.1,perfect,\n10,3,1.5,0.1,perfect,\n").encode(),
}


class TestInputFiles:
    """Every bad input file, passed where a curve or a config belongs,
    gives finite output with status 0, or one error line with status 2;
    an exception other than a GrassfeedError would escape main."""

    @pytest.mark.parametrize("where", ["gap_ref", "gap_test", "simulate_config"])
    @pytest.mark.parametrize("kind", sorted(_BAD_FILES))
    def test_finite_output_or_exit_2(self, tmp_path, capsys, kind, where):
        bad, good = tmp_path / "bad", tmp_path / "good.csv"
        bad.write_bytes(_BAD_FILES[kind])
        good.write_text(_HEADER + "0,1,0.5,0.1,perfect,\n5,1.5,0.75,0.1,perfect,\n10,2,1,0.1,perfect,\n")
        argv = {
            "gap_ref": ["gap", "--ref", str(bad), "--test", str(good)],
            "gap_test": ["gap", "--ref", str(good), "--test", str(bad)],
            "simulate_config": ["simulate", "--config", str(bad), "--out", str(tmp_path / "out.csv")],
        }[where]
        status = main(argv)
        out, err = capsys.readouterr()
        if status == 0:
            values = [float(field.split("=")[1]) for field in out.split()]
            assert values and all(map(math.isfinite, values))
        else:
            assert status == 2
            assert err.startswith("error: ") and err.count("\n") == 1


class TestSelftestCommand:
    def test_single_config_passes(self, capsys):
        code = main(["emu-selftest", "--m", "4", "--n", "2", "--bits", "8",
                     "--samples", "3000"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("[PASS] M=4 N=2 B=8:")
        assert "ks_p=" in out and "mean_rel_err=" in out

    def test_partial_flags_exit_2(self, capsys):
        assert main(["emu-selftest", "--m", "4", "--samples", "100"]) == 2
        assert "together" in capsys.readouterr().err

    def test_guard_product_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["emu-selftest", "--guard-product", "15"])
        assert exc.value.code == 2
        assert "--guard-product" in capsys.readouterr().err

    def test_negative_samples_exit_2(self, capsys):
        assert main(["emu-selftest", "--samples", "-1"]) == 2
        assert "--samples must be an integer >= 1" in capsys.readouterr().err

    def test_unallocatable_samples_exit_2(self, capsys):
        """numpy refuses 2^62 draws before it asks for any memory."""
        assert main(["emu-selftest", "--samples", str(2 ** 62)]) == 2
        assert "cannot allocate" in capsys.readouterr().err

    def test_zero_samples_exit_2_before_sampling(self, monkeypatch, capsys):
        """The flag is checked before anything is drawn, and named."""
        def fail(*args, **kwargs):
            raise AssertionError("sampled")

        monkeypatch.setattr(cli, "sample_min_d2", fail)
        monkeypatch.setattr(cli, "distortion_samples", fail)
        assert main(["emu-selftest", "--samples", "0"]) == 2
        assert "--samples must be an integer >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("n1,n2,ties", [(7, 5, False), (300, 1000, False), (2000, 2000, True)])
    def test_ks_matches_scipy(self, n1, n2, ties):
        """The statistic is scipy's, and the p-value is Kolmogorov's
        limiting survival function at D sqrt(n1 n2 / (n1 + n2))."""
        from scipy.stats import ks_2samp, kstwobign

        rng = np.random.default_rng(n1)
        a, b = rng.standard_normal(n1), 1.1 * rng.standard_normal(n2) + 0.05
        if ties:
            a, b = np.round(a, 1), np.round(b, 1)
        d, p = cli._ks_2samp(a, b)
        # the exact method rounds D onto its lattice, the asymptotic one does not
        assert d == ks_2samp(a, b, method="asymp").statistic
        assert d == pytest.approx(ks_2samp(a, b).statistic, rel=1e-12)
        x = d * math.sqrt(n1 * n2 / (n1 + n2))
        assert p == pytest.approx(kstwobign.sf(x), rel=1e-12, abs=1e-15)

    def test_ks_extremes(self):
        a = np.arange(50.0)
        assert cli._ks_2samp(a, a) == (0.0, 1.0)
        d, p = cli._ks_2samp(a, a + 100.0)
        assert d == 1.0 and 0.0 <= p < 1e-20

    def test_default_verdicts_match_scipy(self, monkeypatch, capsys):
        """On the default trio, scipy's exact p-values give the same PASS
        verdicts as the asymptotic ones."""
        from scipy.stats import ks_2samp

        real, seen = cli._ks_2samp, []

        def spy(a, b):
            d, p = real(a, b)
            ref = ks_2samp(a, b)
            seen.append((d == pytest.approx(ref.statistic, rel=1e-12), p >= 0.01, ref.pvalue >= 0.01))
            return d, p

        monkeypatch.setattr(cli, "_ks_2samp", spy)
        assert main(["emu-selftest"]) == 0
        assert capsys.readouterr().out.count("[PASS]") == 3
        assert seen == [(True, True, True)] * 3

    def test_runs_without_scipy(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = (
            "import sys; sys.modules['scipy'] = None; from grassfeed.cli import main; "
            "sys.exit(main(['emu-selftest', '--m', '4', '--n', '1', '--bits', '4', "
            "'--samples', '10000']))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("[PASS] M=4 N=1 B=4:")

    def test_deterministic_output(self, capsys):
        args = ["emu-selftest", "--m", "4", "--n", "1", "--bits", "10",
                "--samples", "2000", "--seed", "3"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first
