"""Monte Carlo experiment engine.

An :class:`ExperimentSpec` fixes the system shape, an SNR grid, a feedback
policy, a precoding scheme, a trial count and a seed; :func:`run_experiment`
returns the averaged rate curve with 99% confidence half-widths.

Determinism contract: every (SNR point, trial chunk) pair consumes its own
counter-based stream derived from (seed, point index, chunk index), chunks
have a fixed size, and the reduction runs over the per-trial array in trial
order. Results are therefore byte-identical across runs and across worker
thread counts. Channels are the first draw in every chunk, so two
experiments differing only in feedback policy see identical channel
realizations for the same seed (paired comparisons come for free).

Modes
-----
perfect
    Precoders built from the true channels.
quantized_emulated
    Each user's channel direction is replaced by an emulated codebook
    quantization (O(1) per trial in B). Points whose bit budget fails the
    emulation guard fall back to the exhaustive scan automatically when the
    codebook fits in memory; the CSV mode column records what actually ran.
quantized_exhaustive
    Fresh 2^B-entry random codebook per user per trial, full scan.
analog
    Unquantized MMSE channel estimates from beta M feedback channel uses.

With the "zf" precoder and a quantized mode, each receive antenna's
direction is quantized separately on G(M, 1) with the user budget split
evenly (remainder to the first antennas).
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .ensembles import RngStream, gaussian_matrix
from .errors import (
    FallbackRequired,
    IncompatiblePolicy,
    NoOverlap,
    ParameterError,
    _check_count,
    _check_real,
    _check_shape,
    _is_count,
)
from .grassmann import _CAP_BITS, GrassmannConstants, _codebook_size, scan_fresh_codebooks
from .linalg import orthonormalize
from .precoding import analog_feedback_batch, bd_precoders_batch, rates_batch, zf_precoders_batch
from .quant_emulator import DEFAULT_GUARD_PRODUCT, emulate_batch, emulation_valid
from .scaling import bd_3db_bits

__all__ = [
    "FeedbackPolicy",
    "ExperimentSpec",
    "RatePoint",
    "RateCurve",
    "GapEstimate",
    "run_experiment",
    "estimate_snr_gap",
    "write_curve_csv",
    "read_curve_csv",
]

CHUNK_TRIALS = 1024
Z99 = 2.5758293035489004  # two-sided 99% normal quantile
_MODES = ("perfect", "quantized_emulated", "quantized_exhaustive", "analog")
_SCHEDULES = ("fixed", "scaled_3db", "custom")


@dataclass(frozen=True)
class FeedbackPolicy:
    """What the transmitter learns about each user's channel.

    For quantized modes the bit budget per SNR point comes from the
    schedule: "fixed" uses ``bits`` everywhere, "scaled_3db" uses
    ceil(bd_3db_bits) floored at zero, "custom" looks points up in
    ``bits_table`` (exact dB match required). ``beta`` applies to analog
    mode only and counts feedback channel uses per coefficient.
    """

    mode: str
    schedule: str = "fixed"
    bits: int = None
    bits_table: dict = None
    beta: float = None
    guard_product: float = DEFAULT_GUARD_PRODUCT

    def __post_init__(self):
        if self.mode not in _MODES:
            raise IncompatiblePolicy(f"mode must be one of {_MODES}, got {self.mode!r}")
        quantized = self.mode.startswith("quantized")
        if quantized:
            if self.schedule not in _SCHEDULES:
                raise IncompatiblePolicy(f"schedule must be one of {_SCHEDULES}, got {self.schedule!r}")
            if self.schedule == "fixed" and not _is_count(self.bits):
                raise IncompatiblePolicy(f"fixed schedule needs integer bits >= 0, got {self.bits!r}")
            if self.schedule == "custom":
                if not self.bits_table:
                    raise IncompatiblePolicy("custom schedule needs a bits_table")
                if not all(_is_count(b) for b in self.bits_table.values()):
                    raise IncompatiblePolicy("bits_table budgets must be integers >= 0")
            if self.beta is not None:
                raise IncompatiblePolicy("beta only applies to analog mode")
        elif self.mode == "analog":
            _check_real("analog mode's beta", self.beta, low=1, closed=True, error=IncompatiblePolicy)
            if self.bits is not None or self.bits_table is not None:
                raise IncompatiblePolicy("bit budgets only apply to quantized modes")
        else:
            if self.bits is not None or self.bits_table is not None or self.beta is not None:
                raise IncompatiblePolicy("perfect mode takes no feedback parameters")
        _check_real("guard_product", self.guard_product, low=0, error=IncompatiblePolicy)

    def resolve_bits(self, p_db, m, n):
        """Integer bit budget at one SNR point, or None for modes without bits."""
        if not self.mode.startswith("quantized"):
            return None
        if self.schedule == "fixed":
            return int(self.bits)
        if self.schedule == "scaled_3db":
            return max(0, math.ceil(bd_3db_bits(m, n, p_db)))
        for key, val in self.bits_table.items():
            if abs(float(key) - p_db) < 1e-9:
                return int(val)
        raise IncompatiblePolicy(f"custom bits_table has no entry for {p_db} dB")


@dataclass(frozen=True)
class ExperimentSpec:
    """One simulated sweep: shape, SNR grid, policy, precoder, trials, seed."""

    m: int
    n: int
    snr_grid_db: tuple
    policy: FeedbackPolicy
    trials: int
    seed: int
    precoder: str = "bd"

    def __post_init__(self):
        _check_shape(self.m, self.n, loaded=True)
        grid = tuple(float(p) for p in self.snr_grid_db)
        if len(grid) == 0:
            raise ParameterError("snr_grid_db grid is empty")
        try:
            top = 10.0 ** (max(grid) / 10.0)
        except OverflowError:
            top = math.inf
        if not (all(map(math.isfinite, grid)) and math.isfinite(top)):
            raise ParameterError(f"snr_grid_db points must be finite, as must 10^(P/10): {grid}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ParameterError("snr_grid_db grid must be strictly increasing")
        object.__setattr__(self, "snr_grid_db", grid)
        _check_count("trials", self.trials, 1)
        if self.precoder not in ("bd", "zf"):
            raise ParameterError(f"precoder must be 'bd' or 'zf', got {self.precoder!r}")
        if self.policy.mode == "analog" and not math.isfinite(self.policy.beta * top):
            raise IncompatiblePolicy(f"analog beta * P overflows at {max(grid)} dB")

    @property
    def k(self):
        return self.m // self.n


@dataclass(frozen=True)
class RatePoint:
    p_db: float
    sum_rate: float
    per_user_rate: float
    ci99: float
    mode: str
    bits_used: int = None


@dataclass(frozen=True)
class RateCurve:
    points: tuple

    @property
    def p_db(self):
        return np.array([pt.p_db for pt in self.points])

    @property
    def sum_rate(self):
        return np.array([pt.sum_rate for pt in self.points])


def _effective_mode(spec, bits):
    """Resolve auto-fallback: returns the mode actually run at this point.

    Only quantized modes reach here. The budget is compared against the
    entry cap as an exponent, so 2^B is never formed.
    """
    if spec.precoder == "zf":
        # per-antenna codebooks on G(M, 1); the first antenna's is the largest
        budgets = _antenna_budgets(bits, spec.n)
        gc, low, high = GrassmannConstants(spec.m, 1), budgets[-1], budgets[0]
    else:
        gc, low, high = GrassmannConstants(spec.m, spec.n), bits, bits
    if spec.policy.mode == "quantized_exhaustive":
        _codebook_size(high)  # MemoryGuard above the cap
        return "quantized_exhaustive"
    if emulation_valid(gc, low, spec.policy.guard_product):
        return "quantized_emulated"
    if high <= _CAP_BITS:
        return "quantized_exhaustive"
    raise FallbackRequired(
        f"guard fails at B={bits} and the codebook would exceed the memory cap"
    )


def _antenna_budgets(bits, n):
    """Split a per-user budget over n antennas, remainder to the first ones."""
    base = bits // n
    rem = bits % n
    return [base + 1 if i < rem else base for i in range(n)]


def _quantize(gen, h, bits, eff_mode, guard_product):
    """Quantized knowledge of a (T, M, N) channel stack under one budget.

    Under "quantized_emulated" the budget has already passed the guard.
    """
    hq = orthonormalize(h)
    if eff_mode == "quantized_emulated":
        return emulate_batch(gen, hq, bits, guard_product=guard_product)[0]
    return scan_fresh_codebooks(gen, hq, bits)[1]


def _chunk_sum_rates(spec, point_idx, chunk_idx, count, p_db, bits, eff_mode):
    """Per-trial sum rates for one chunk. The chunk stream is derived from
    (seed, point index, chunk index); channels are always the first draw."""
    gen = RngStream(spec.seed).child(point_idx, chunk_idx).generator()
    m, n, k = spec.m, spec.n, spec.k
    p = 10.0 ** (p_db / 10.0)
    h = gaussian_matrix(gen, m, n, batch=(count, k))

    if eff_mode == "perfect":
        knowledge = h
    elif eff_mode == "analog":
        knowledge = analog_feedback_batch(gen, h, spec.policy.beta * p)[1]
    else:
        guard = spec.policy.guard_product
        flat = h.reshape(count * k, m, n)
        if spec.precoder == "zf":
            # each receive antenna's direction on G(M, 1), budget split evenly
            know = np.empty_like(flat)
            for i, b_ant in enumerate(_antenna_budgets(bits, n)):
                know[:, :, i:i + 1] = _quantize(gen, flat[:, :, i:i + 1], b_ant, eff_mode, guard)
        else:
            know = _quantize(gen, flat, bits, eff_mode, guard)
        knowledge = know.reshape(count, k, m, n)

    if spec.precoder == "zf":
        v = zf_precoders_batch(knowledge)
    else:
        v = bd_precoders_batch(knowledge)
    rates = rates_batch(p, h, v)
    return rates.sum(axis=1)


def _worker_count(threads):
    """The validated thread count: ``threads``, else GRASSFEED_THREADS, else 1."""
    name = "threads"
    if threads is None:
        env = os.environ.get("GRASSFEED_THREADS", "").strip()
        if not env:
            return 1
        name = "GRASSFEED_THREADS"
        try:
            threads = int(env)
        except ValueError as exc:
            raise ParameterError(f"GRASSFEED_THREADS must be an integer, got {env!r}") from exc
    _check_count(name, threads, 1)
    return threads


def run_experiment(spec, threads=None):
    """Run the sweep and return the averaged :class:`RateCurve`.

    threads defaults to the GRASSFEED_THREADS environment variable (1 if
    unset). The thread count changes the execution schedule only, never the
    result bytes.
    """
    threads = _worker_count(threads)
    points = []
    n_chunks = (spec.trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    for point_idx, p_db in enumerate(spec.snr_grid_db):
        bits = spec.policy.resolve_bits(p_db, spec.m, spec.n)
        eff_mode = _effective_mode(spec, bits) if bits is not None else spec.policy.mode
        sizes = [
            min(CHUNK_TRIALS, spec.trials - c * CHUNK_TRIALS) for c in range(n_chunks)
        ]
        args = [
            (spec, point_idx, c, sizes[c], p_db, bits, eff_mode) for c in range(n_chunks)
        ]
        if threads > 1 and n_chunks > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(lambda a: _chunk_sum_rates(*a), args))
        else:
            parts = [_chunk_sum_rates(*a) for a in args]
        sum_rates = np.concatenate(parts)
        mean = float(np.mean(sum_rates))
        if spec.trials > 1:
            ci = Z99 * float(np.std(sum_rates, ddof=1)) / math.sqrt(spec.trials)
        else:
            ci = float("inf")
        points.append(
            RatePoint(
                p_db=float(p_db),
                sum_rate=mean,
                per_user_rate=mean / spec.k,
                ci99=ci,
                mode=eff_mode,
                bits_used=bits,
            )
        )
    return RateCurve(points=tuple(points))


@dataclass(frozen=True)
class GapEstimate:
    """Horizontal (dB) offset of a test curve from a reference curve."""

    mean_db: float
    per_point: tuple


def estimate_snr_gap(ref, test):
    """Average extra power the test curve needs for the reference's rates.

    For each test point whose sum rate falls inside the reference curve's
    rate range, the reference power achieving that rate is read off by
    piecewise-linear interpolation; the gap is the power difference.
    Test points outside the range are skipped.

    Raises
    ------
    ParameterError
        If the reference rates are not strictly increasing with power.
    NoOverlap
        If no test point falls inside the reference rate range.
    """
    ref_p, ref_r = ref.p_db, ref.sum_rate
    test_p, test_r = test.p_db, test.sum_rate
    if np.any(np.diff(ref_r) <= 0):
        raise ParameterError("reference curve rates must increase strictly with power")
    lo, hi = ref_r[0], ref_r[-1]
    gaps = []
    for p, r in zip(test_p, test_r):
        if lo <= r <= hi:
            p_ref = float(np.interp(r, ref_r, ref_p))
            gaps.append((float(p), float(p - p_ref)))
    if not gaps:
        raise NoOverlap("test curve rates never enter the reference rate range")
    mean = sum(g for _, g in gaps) / len(gaps)
    return GapEstimate(mean_db=float(mean), per_point=tuple(gaps))


def write_curve_csv(curve, path):
    """Write a curve as CSV: p_db, sum_rate, per_user_rate, ci99, mode, bits_used.

    Floats carry 6 significant digits; bits_used is blank for modes
    without a bit budget.
    """
    lines = ["p_db,sum_rate,per_user_rate,ci99,mode,bits_used"]
    for pt in curve.points:
        bits = "" if pt.bits_used is None else str(int(pt.bits_used))
        lines.append(
            f"{pt.p_db:.6g},{pt.sum_rate:.6g},{pt.per_user_rate:.6g},"
            f"{pt.ci99:.6g},{pt.mode},{bits}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_curve_csv(path):
    """Read a curve written by :func:`write_curve_csv`.

    Raises ParameterError, naming the file and line, on a foreign header, a
    row without six fields or a field that does not parse.
    """
    with open(path) as fh:
        lines = [(i, ln.strip()) for i, ln in enumerate(fh, 1) if ln.strip()]
    if not lines or lines[0][1] != "p_db,sum_rate,per_user_rate,ci99,mode,bits_used":
        raise ParameterError(f"{path} is not a rate-curve CSV")
    points = []
    for lineno, ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != 6:
            raise ParameterError(f"{path}, line {lineno}: expected 6 fields, got {len(fields)}")
        p_db, sum_rate, per_user, ci99, mode, bits = fields
        try:
            point = RatePoint(
                p_db=float(p_db),
                sum_rate=float(sum_rate),
                per_user_rate=float(per_user),
                ci99=float(ci99),
                mode=mode,
                bits_used=None if bits == "" else int(bits),
            )
        except ValueError as exc:
            raise ParameterError(f"{path}, line {lineno}: {exc}") from exc
        points.append(point)
    return RateCurve(points=tuple(points))
