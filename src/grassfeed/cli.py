"""Command line interface.

Subcommands
-----------
simulate
    Run a Monte Carlo sweep described by a config file and write the rate
    curve as CSV (columns p_db, sum_rate, per_user_rate, ci99, mode,
    bits_used; 6 significant digits).
scaling
    Print feedback bit budgets over an SNR range: the 3 dB-offset budgets
    for multi-stream and single-stream precoding and, optionally, the
    budget holding the rate offset at a chosen factor.
gap
    Print the mean and per-point SNR gap between two rate-curve CSVs.
emu-selftest
    Check emulated quantization against the exhaustive codebook scan with
    a two-sample KS test plus a mean comparison; nonzero exit on failure.

Config file schema (flat ``key = value`` lines, ``#`` comments):

====================  =====================================================
M, N                  transmit antennas, receive antennas per user
snr_start, snr_stop,  SNR grid in dB, inclusive endpoints (snr_stop
snr_step              defaults to snr_start, snr_step to 5)
mode                  perfect | quantized_emulated | quantized_exhaustive
                      | analog
schedule              fixed | scaled_3db | custom (quantized modes only)
B                     bits per user per coherence block (fixed schedule)
bits_table            comma list of p_db:bits pairs (custom schedule)
beta                  feedback channel uses per coefficient (analog mode)
trials                Monte Carlo trials per point; perfect mode runs none
seed                  RNG seed (--seed overrides); perfect mode draws none
precoder              bd | zf (default bd)
====================  =====================================================
"""

import argparse
import math
import sys

import numpy as np

from .ensembles import RngStream
from .errors import ConfigError, GrassfeedError
from .grassmann import GrassmannConstants, distortion_samples
from .quant_emulator import sample_min_d2
from .scaling import _budget, bd_3db_bits, bits_for_rate_loss, zf_3db_bits
from .simulator import (
    ExperimentSpec,
    FeedbackPolicy,
    _policy_fields,
    _read_lines,
    estimate_snr_gap,
    read_curve_csv,
    run_experiment,
    write_curve_csv,
)

# points an SNR range may hold: 0 to 100 dB in 0.01 dB steps
_MAX_GRID_POINTS = 10001

_CONFIG_KEYS = {
    "M", "N", "snr_start", "snr_stop", "snr_step", "mode", "schedule", "B",
    "bits_table", "beta", "trials", "seed", "precoder",
}


def parse_config(path):
    """Read a flat key=value UTF-8 config file into a string dict."""
    cfg = {}
    for lineno, raw in enumerate(_read_lines(path), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in cfg:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        cfg[key] = val
    return cfg


def _get(cfg, key, conv, default=None, required=False):
    if key not in cfg:
        if required:
            raise ConfigError(f"config is missing required key {key!r}")
        return default
    try:
        return conv(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def _parse_bits_table(text):
    table = {}
    for pair in text.split(","):
        if ":" not in pair:
            raise ValueError(f"expected p_db:bits, got {pair.strip()!r}")
        p, b = pair.split(":", 1)
        table[float(p)] = int(b)
    return table


def _grid(start, stop, step):
    """Inclusive SNR grid start, start + step, ..., stop, of at most
    _MAX_GRID_POINTS points; the count is checked before any is built."""
    if not (math.isfinite(start) and step > 0 and start <= stop and math.isfinite((stop - start) / step)):
        raise ConfigError("SNR range must be finite and run forward in finitely many positive steps")
    count = int((stop - start) / step + 1e-9) + 1
    if count > _MAX_GRID_POINTS:
        raise ConfigError(f"SNR range has {count} points, more than the {_MAX_GRID_POINTS} allowed")
    return tuple(start + i * step for i in range(count))


def _snr_grid(cfg):
    start = _get(cfg, "snr_start", float, required=True)
    return _grid(start, _get(cfg, "snr_stop", float, default=start),
                 _get(cfg, "snr_step", float, default=5.0))


def build_spec(cfg, seed_override=None):
    """Turn a parsed config dict into an :class:`ExperimentSpec`."""
    mode = _get(cfg, "mode", str, required=True)
    schedule = _get(cfg, "schedule", str, default="fixed")
    # every key present goes to its field: FeedbackPolicy rejects the unread
    reads = _policy_fields(mode, schedule)
    policy = FeedbackPolicy(
        mode, schedule,
        bits=_get(cfg, "B", int, required=reads["bits"]),
        bits_table=_get(cfg, "bits_table", _parse_bits_table, required=reads["bits_table"]),
        beta=_get(cfg, "beta", float, required=reads["beta"]),
    )
    seed = seed_override if seed_override is not None else _get(cfg, "seed", int)
    if seed is None:
        raise ConfigError("a seed is required: pass --seed or set seed in the config")
    return ExperimentSpec(
        m=_get(cfg, "M", int, required=True),
        n=_get(cfg, "N", int, required=True),
        snr_grid_db=_snr_grid(cfg),
        policy=policy,
        trials=_get(cfg, "trials", int, required=True),
        seed=seed,
        precoder=_get(cfg, "precoder", str, default="bd"),
    )


def cmd_simulate(args):
    spec = build_spec(parse_config(args.config), seed_override=args.seed)
    curve = run_experiment(spec, threads=args.threads)
    write_curve_csv(curve, args.out)
    print(f"wrote {len(curve.points)} points to {args.out}")
    return 0


def _scaling_grid(text):
    """The --snr grid, given as START:STOP:STEP."""
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"--snr wants three numbers start:stop:step, got {text!r}") from exc
    return _grid(start, stop, step)


def cmd_scaling(args):
    GrassmannConstants(args.m, args.n)  # validates the shape
    grid = _scaling_grid(args.snr)
    cols = ["p_db"]
    if args.mode in ("bd3db", "all"):
        cols += ["bd_3db_bits", "bd_3db_ceil"]
    if args.mode in ("zf3db", "all"):
        cols += ["zf_3db_bits", "zf_3db_ceil"]
    if args.offset is not None:
        cols += ["offset_bits_approx", "offset_bits_exact"]
    print(",".join(cols))
    for p_db in grid:
        row = [f"{p_db:.6g}"]
        if args.mode in ("bd3db", "all"):
            bd = bd_3db_bits(args.m, args.n, p_db)
            row += [f"{bd:.6g}", str(_budget(bd))]
        if args.mode in ("zf3db", "all"):
            zf = zf_3db_bits(args.m, p_db)
            row += [f"{zf:.6g}", str(_budget(zf))]
        if args.offset is not None:
            res = bits_for_rate_loss(args.m, args.n, p_db, args.offset)
            row += [f"{res.approx:.6g}", f"{res.exact:.6g}"]
        print(",".join(row))
    return 0


def cmd_gap(args):
    ref = read_curve_csv(args.ref)
    test = read_curve_csv(args.test)
    est = estimate_snr_gap(ref, test)
    print(f"mean_gap_db={est.mean_db:.6g}")
    for p_db, gap in est.per_point:
        print(f"p_db={p_db:.6g} gap_db={gap:.6g}")
    return 0


_SELFTEST_DEFAULTS = ((4, 2, 8), (6, 2, 8), (4, 1, 10))
# emulation guard of the selftest, below the engine's 40 so the default
# trio (whose (6, 2, B=8) product is 2^8/14) can run emulated
_SELFTEST_GUARD_PRODUCT = 15.0


def _ks_2samp(a, b):
    """Two-sample Kolmogorov-Smirnov statistic D and its asymptotic p-value.

    D is the largest gap between the two empirical CDFs, which is reached
    at a pooled sample point. The p-value is Kolmogorov's limiting
    distribution Q(x) = 2 sum_{j>=1} (-1)^(j-1) exp(-2 j^2 x^2) at
    x = D sqrt(n1 n2 / (n1 + n2)); below x = 1, where that series converges
    slowly, it is the equal theta-function form
    1 - sqrt(2 pi)/x sum_{j>=1} exp(-(2j - 1)^2 pi^2 / (8 x^2)).
    """
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / len(a)
    cdf_b = np.searchsorted(b, pooled, side="right") / len(b)
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    x = d * math.sqrt(len(a) * len(b) / (len(a) + len(b)))
    j = np.arange(1, 101)
    if x == 0.0:
        return d, 1.0
    if x < 1.0:
        tail = np.sum(np.exp(-(((2 * j - 1) * math.pi / x) ** 2) / 8.0))
        p = 1.0 - math.sqrt(2.0 * math.pi) / x * float(tail)
    else:
        p = 2.0 * float(np.sum((-1.0) ** (j - 1) * np.exp(-2.0 * (j * x) ** 2)))
    return d, min(1.0, max(0.0, p))


def cmd_selftest(args):
    if (args.m is None) != (args.n is None) or (args.m is None) != (args.bits is None):
        raise ConfigError("--m, --n and --bits must be given together")
    if args.samples < 1:
        raise ConfigError(f"--samples must be an integer >= 1, got {args.samples}")
    configs = _SELFTEST_DEFAULTS if args.m is None else ((args.m, args.n, args.bits),)
    all_ok = True
    for m, n, bits in configs:
        gc = GrassmannConstants(m, n)
        emu_rng = RngStream(args.seed).child(0)
        exh_rng = RngStream(args.seed).child(1)
        emu = sample_min_d2(emu_rng, gc, bits, guard_product=_SELFTEST_GUARD_PRODUCT, size=args.samples)
        exh = distortion_samples(exh_rng, m, n, bits, args.samples)
        _, ks_p = _ks_2samp(emu, exh)
        mean_exh = float(np.mean(exh))
        rel_err = abs(float(np.mean(emu)) - mean_exh) / mean_exh
        ok = ks_p >= 0.01 and rel_err < 0.02
        all_ok = all_ok and ok
        print(
            f"[{'PASS' if ok else 'FAIL'}] M={m} N={n} B={bits}: "
            f"ks_p={ks_p:.4g} mean_rel_err={100 * rel_err:.3g}%"
        )
    return 0 if all_ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="grassfeed",
        description="Quantized-feedback broadcast channel simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a sweep from a config file")
    p_sim.add_argument("--config", required=True, help="key=value config file")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="RNG seed (overrides the config's seed key)")
    p_sim.add_argument("--threads", type=int, default=1,
                       help="worker threads (default 1); changes the schedule, never the bytes")
    p_sim.set_defaults(func=cmd_simulate)

    p_sca = sub.add_parser("scaling", help="print feedback bit budget tables")
    p_sca.add_argument("--M", "--m", dest="m", type=int, required=True)
    p_sca.add_argument("--N", "--n", dest="n", type=int, required=True)
    p_sca.add_argument("--mode", choices=("bd3db", "zf3db", "all"), default="all",
                       help="which budget law to tabulate")
    p_sca.add_argument("--snr", required=True, metavar="START:STOP:STEP",
                       help="inclusive SNR grid in dB (e.g. 0:30:5)")
    p_sca.add_argument("--offset", type=float, default=None,
                       help="also print budgets holding the rate offset at this factor b > 1")
    p_sca.set_defaults(func=cmd_scaling)

    p_gap = sub.add_parser("gap", help="SNR gap between two rate-curve CSVs")
    p_gap.add_argument("--ref", required=True, help="reference curve CSV")
    p_gap.add_argument("--test", required=True, help="test curve CSV")
    p_gap.set_defaults(func=cmd_gap)

    p_st = sub.add_parser(
        "emu-selftest",
        help="KS equivalence check of emulated vs exhaustive quantization",
    )
    p_st.add_argument("--m", type=int, default=None)
    p_st.add_argument("--n", type=int, default=None)
    p_st.add_argument("--bits", type=int, default=None)
    p_st.add_argument("--samples", type=int, default=40000)
    p_st.add_argument("--seed", type=int, default=2026)
    p_st.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GrassfeedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
