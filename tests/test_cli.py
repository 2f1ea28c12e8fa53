import numpy as np
import pytest

from grassfeed.cli import (
    _parse_bits_table,
    _snr_grid,
    build_spec,
    main,
    parse_config,
)
from grassfeed.errors import ConfigError
from grassfeed.simulator import read_curve_csv


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

    def test_guard_product_passthrough(self, tmp_path):
        text = BASIC.replace(
            "mode = perfect", "mode = quantized_emulated\nB = 8\nguard_product = 15"
        )
        spec = build_spec(parse_config(_write_config(tmp_path, text)))
        assert spec.policy.guard_product == 15.0

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
        cfg = _write_config(tmp_path, BASIC)
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
            ("mode = perfect", "mode = quantized_emulated\nB = 8\nguard_product = 0"),
            ("mode = perfect", "mode = quantized_emulated\nB = 8\nguard_product = nan"),
            ("mode = perfect", "mode = analog\nbeta = inf"),
            ("mode = perfect", "mode = quantized_exhaustive\nschedule = custom\n"
                               "bits_table = 0:2, 5:-1, 10:3"),
            ("snr_stop = 10", "snr_stop = inf"),
            ("snr_start = 0", "snr_start = nan"),
        ],
    )
    def test_rejected_input_exits_2(self, tmp_path, capsys, old, new):
        cfg = _write_config(tmp_path, BASIC.replace(old, new))
        out = str(tmp_path / "curve.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 2
        assert "error:" in capsys.readouterr().err


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

    def test_flag_syntax_matches_colon(self, capsys):
        main(["scaling", "--mode", "zf3db", "--M", "6", "--N", "2",
              "--snr", "5:30:5"])
        colon = capsys.readouterr().out
        main(["scaling", "--mode", "zf3db", "--M", "6", "--N", "2",
              "--snr-start", "5", "--snr-stop", "30", "--snr-step", "5"])
        flags = capsys.readouterr().out
        assert colon == flags
        ceils = [int(ln.split(",")[2]) for ln in colon.splitlines()[1:]]
        assert ceils == [9, 17, 25, 34, 42, 50]

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

    def test_deterministic_output(self, capsys):
        args = ["emu-selftest", "--m", "4", "--n", "1", "--bits", "10",
                "--samples", "2000", "--seed", "3"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first
