"""Monte Carlo experiment engine.

An :class:`ExperimentSpec` fixes the system shape, an SNR grid, a feedback
policy, a precoding scheme, a trial count and a seed; :func:`run_experiment`
returns the averaged rate curve with 99% confidence half-widths.

Estimator: every trial also yields two controls whose means are known in
closed form, because the precoders serving a user never depend on that
user's channel:

- the interference-free sum rate Y (each user's rate with the other
  users' streams removed), with the perfect-CSI mean
  :func:`~grassfeed.precoding.perfect_csi_sum_rate`;
- the multi-user leakage L = sum_k sum_{j!=k} ||H_k^H V_j||_F^2, with mean
  K M (M - N)/(M - w) sum_i E[min d^2(M, w, b_i)] over a user's feedback
  units of width w and budgets b_i (K M E[min d^2] under BD), and
  K N (M - N)/(1 + beta P) under analog feedback, whose MMSE error is
  independent of the estimate (:func:`_plan`).

A perfect point is mu_Y, with ci99 = 0. Any other point's sum rate is the
multi-control estimate (Lavenberg & Welch 1981) of one rule
(:func:`_estimate`): take Y, then L where mu_L is exact, each centred and
stripped of its part along the controls already taken, while the trials
leave a degree of freedom, the remainder is not collinear and the result
stays finite. Each taken control moves mean(R) by its least-squares slope
times its remainder's offset from the known mean, and ci99 is the
half-width of the last residual. mu_L is not exact for an exhaustive unit
of width 2 or more whose nonzero budget fails the emulation guard. The
fading and the leakage that move R drop out, so the half-width is several
times narrower than the plain mean's at the same trial count; the
estimate stays unbiased.

Determinism contract: trials run in fixed-size chunks. A chunk's channels
are the only draw of its stream (seed, chunk index) and serve every SNR
point. A point's knowledge comes from a substream keyed by what it
depends on besides P: an exhaustive point's codebooks by its mode and bit
budget. Emulated and analog points draw their budget- or power-free
randomness once per chunk, keyed by the mode alone, and each maps it to
its own budget or power; a perfect sweep draws nothing. So points with
equal mode and budget quantize once per chunk, and a point's result
still does not depend on the rest of its grid. The reduction runs over
the per-trial array in trial order, so results are byte-identical across
runs and worker thread counts, and experiments with the same seed see the
same channels whatever their policies (paired comparisons come free).

Modes
-----
perfect
    Precoders that know the true channels null the other users' streams
    exactly, so the sum rate is Y at any power. The point reports its
    closed-form mean mu_Y with ci99 = 0, and no trial runs.
quantized_emulated
    Each user's channel direction is replaced by an emulated codebook
    quantization (O(1) per trial in B). Its budget-free draws (the min-d^2
    uniforms, the Haar X, the complement Gaussian P and its Gram) are made
    once per chunk and feedback-unit index and shared by every emulated
    point, which maps them to its budget: common random numbers (Glasserman
    & Yao 1992), so each point keeps its law and each trial's d^2 falls as
    the budget grows. Points whose bit budget fails the
    emulation guard fall back to the exhaustive scan automatically when the
    codebook fits in memory; the CSV mode column records what actually ran.
quantized_exhaustive
    Fresh 2^B-entry random codebook per user per trial, full scan. Each
    entry is drawn as its principal angles to the channel, 2N - 1 Beta
    variates of the beta = 2 Jacobi model (Edelman & Sutton 2008), and
    scored by a sum of squares of them; only each trial's winner is built
    as a frame (:func:`~grassfeed.grassmann.scan_fresh_codebooks`).
analog
    Unquantized MMSE channel estimates from beta M feedback channel uses.

A quantized user feeds back one or more units of width w: under BD its
whole channel on G(M, N) with the user budget (w = N), under ZF each
receive antenna's direction on G(M, 1) with the budget split evenly
(w = 1, remainder to the first antennas). ZF is BD over width-1 units, so
the width is all the engine reads of the precoder: the units' knowledge
is taken as users by one BD construction, Y sums each unit's
log2 det(I + c G_uu G_uu^H) and mu_Y is (M/w) T_w(P/M)/ln 2.
:func:`run_experiment` plans every point before it draws anything: its
width, budget, mode, unit budgets, precoder-sharing key and control
means. So a point that cannot run raises at once, and the chunk
loop decides nothing.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ensembles import RngStream, gaussian_matrix
from .errors import (
    FallbackRequired,
    IncompatiblePolicy,
    MemoryGuard,
    NoOverlap,
    ParameterError,
    _as_path,
    _check_choice,
    _check_count,
    _check_real,
    _check_shape,
    _check_type,
    _is_count,
)
from .grassmann import GrassmannConstants, _codebook_size, _mean_min_d2, scan_fresh_codebooks
from .linalg import orthonormalize
from .precoding import (
    _free_sum_rate_mean,
    _regroup,
    _unit_width,
    analog_feedback_batch,
    bd_precoders_batch,
    rates_batch,
)
from .quant_emulator import DEFAULT_GUARD_PRODUCT, _budget_free_draw, _map_to_budget, emulation_valid
from .scaling import _budget, bd_3db_bits

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
# A control whose remainder, after the controls already taken, keeps at
# most this share of its variance (1 - corr(Y, L)^2 for L) is collinear
# with them and is not taken.
_COLLINEAR = 1e-9
_MODES = ("perfect", "quantized_emulated", "quantized_exhaustive", "analog")
_SCHEDULES = ("fixed", "scaled_3db", "custom")


def _policy_fields(mode, schedule):
    """Which of the fields bits, bits_table and beta a policy reads."""
    quantized = mode.startswith("quantized")
    return {"bits": quantized and schedule == "fixed", "bits_table": quantized and schedule == "custom",
            "beta": mode == "analog"}


@dataclass(frozen=True)
class FeedbackPolicy:
    """What the transmitter learns about each user's channel.

    For quantized modes the bit budget per SNR point comes from the
    schedule: "fixed" uses ``bits`` everywhere, "scaled_3db" uses
    ceil(bd_3db_bits) floored at zero (:func:`~grassfeed.scaling._budget`),
    "custom" looks points up in ``bits_table`` (exact dB match required).
    ``beta`` applies to analog mode only and counts feedback channel uses
    per coefficient. A field its mode and schedule do not read
    (:func:`_policy_fields`) is an error.
    """

    mode: str
    schedule: str = "fixed"
    bits: int = None
    bits_table: dict = None
    beta: float = None

    def __post_init__(self):
        _check_choice("mode", self.mode, _MODES, error=IncompatiblePolicy)
        _check_choice("schedule", self.schedule, _SCHEDULES, error=IncompatiblePolicy)
        if not self.mode.startswith("quantized") and self.schedule != "fixed":
            raise IncompatiblePolicy(f"{self.mode} mode has no bit schedule, got {self.schedule!r}")
        reads = _policy_fields(self.mode, self.schedule)
        unread = [f for f, read in reads.items() if not read and getattr(self, f) is not None]
        if unread:
            raise IncompatiblePolicy(f"{self.mode} mode, {self.schedule} schedule takes no {', '.join(unread)}")
        if reads["beta"]:
            _check_real("analog mode's beta", self.beta, low=1, closed=True, error=IncompatiblePolicy)
        if reads["bits"] and not _is_count(self.bits):
            raise IncompatiblePolicy(f"fixed schedule needs integer bits >= 0, got {self.bits!r}")
        if reads["bits_table"]:
            if not isinstance(self.bits_table, dict) or not self.bits_table:
                raise IncompatiblePolicy(f"custom schedule needs a bits_table dict, got {self.bits_table!r}")
            for p_db in self.bits_table:
                _check_real("bits_table power (dB)", p_db, error=IncompatiblePolicy)
            if not all(_is_count(b) for b in self.bits_table.values()):
                raise IncompatiblePolicy("bits_table budgets must be integers >= 0")

    def resolve_bits(self, p_db, m, n):
        """Integer bit budget at one SNR point, or None for modes without bits."""
        if not self.mode.startswith("quantized"):
            return None
        if self.schedule == "fixed":
            return int(self.bits)
        if self.schedule == "scaled_3db":
            return _budget(bd_3db_bits(m, n, p_db))
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
        _check_type("policy", self.policy, FeedbackPolicy)
        try:
            grid = tuple(self.snr_grid_db)
        except TypeError as exc:
            raise ParameterError(f"snr_grid_db must be a sequence, got {self.snr_grid_db!r}") from exc
        for p_db in grid:
            _check_real("snr_grid_db point", p_db)
        grid = tuple(map(float, grid))
        if len(grid) == 0:
            raise ParameterError("snr_grid_db grid is empty")
        try:
            top = 10.0 ** (max(grid) / 10.0)
        except OverflowError as exc:
            raise ParameterError(f"snr_grid_db points must keep 10^(P/10) finite: {grid}") from exc
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ParameterError("snr_grid_db grid must be strictly increasing")
        object.__setattr__(self, "snr_grid_db", grid)
        _check_count("trials", self.trials, 1)
        _check_count("seed", self.seed)
        _check_choice("precoder", self.precoder, ("bd", "zf"))
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

    def __post_init__(self):
        try:
            points = tuple(self.points)
        except TypeError as exc:
            raise ParameterError(f"points must be a sequence of RatePoint, got {self.points!r}") from exc
        for pt in points:
            _check_type("points entry", pt, RatePoint)
        object.__setattr__(self, "points", points)

    @property
    def p_db(self):
        return np.array([pt.p_db for pt in self.points])

    @property
    def sum_rate(self):
        return np.array([pt.sum_rate for pt in self.points])


@dataclass(frozen=True)
class _Point:
    """One SNR point as :func:`_plan` fixes it before anything is drawn.

    mode is the mode that runs; width is the feedback-unit width w, N under
    BD and 1 under ZF, the only thing the engine reads of the precoder;
    bits is None and budgets is empty for modes without bits. Points with
    equal ``key`` (mode, bits, beta P) share precoders; ``substream`` keys
    the stream their knowledge is drawn from: (mode, bits + 1) for an
    exhaustive point's codebooks, and (mode, 0) for emulated and analog
    points, the key of the chunk's one budget- or power-free draw that
    every such point shares, so a point still does not depend on its
    grid. mean_free and mean_leak are
    the closed-form means of Y and L; mean_leak is None where it is not
    exact, and for perfect points.
    """

    p_db: float
    p: float
    bits: int
    mode: str
    width: int
    budgets: tuple
    key: tuple
    substream: tuple
    mean_free: float
    mean_leak: float


def _plan(spec):
    """Every point's :class:`_Point`. The default emulation guard, checked
    once on the smallest unit budget, decides both the mode and whether
    mean_leak is exact, so an emulated point's always is. The codebook cap
    is checked on the largest budget as an exponent: 2^B is never formed.

    The part of a quantized unit's channel H_i (width w, budget b) that is
    orthogonal to its fed-back frame has mean squared norm M E[min d^2]
    and is isotropic in those M - w dimensions, where the other users'
    M - N unit-norm streams lie. So a user's leakage has
    mean M (M - N)/(M - w) sum_i E[min d^2(M, w, b_i)], which is Jindal's
    interference lemma for ZF; E[min d^2] is :func:`_mean_min_d2`, exact
    for w = 1 and, where the default emulation guard holds, for wider
    units; a 0-bit unit's one isotropic entry has E[d^2] = w (M - w)/M at
    any width. Under analog feedback the streams are orthogonal to the MMSE
    estimate and independent of its error, whose entries have variance
    1/(1 + beta P): K N (M - N)/(1 + beta P).
    """
    m, n, k, policy = spec.m, spec.n, spec.k, spec.policy
    width = _unit_width(spec.precoder, n)
    gc = GrassmannConstants(m, width)
    plan = []
    for p_db in spec.snr_grid_db:
        p = 10.0 ** (p_db / 10.0)
        bits = policy.resolve_bits(p_db, m, n)
        mode, budgets, snr, mean_leak = policy.mode, (), None, None
        if mode == "analog":
            snr = policy.beta * p
            mean_leak = k * n * (m - n) / (1.0 + snr)
        elif bits is not None:
            base, rem = divmod(bits, n // width)
            budgets = tuple(base + 1 if i < rem else base for i in range(n // width))
            valid = emulation_valid(gc, min(budgets), DEFAULT_GUARD_PRODUCT)
            if not (mode == "quantized_emulated" and valid):
                try:
                    _codebook_size(max(budgets), m, width)
                except MemoryGuard as exc:
                    if mode == "quantized_emulated":
                        raise FallbackRequired(f"guard fails at B={bits} and {exc}") from exc
                    raise
                mode = "quantized_exhaustive"
            if width == 1 or valid:
                mean_leak = k * m * (m - n) / (m - width) * sum(_mean_min_d2(gc, b) for b in budgets)
            elif bits == 0:
                mean_leak = k * n * (m - n)  # one BD unit, E[d^2] = N (M - N)/M
        # an emulated point maps the chunk's one emulation draw to its budget
        substream = (_MODES.index(mode), 0 if bits is None or mode == "quantized_emulated" else bits + 1)
        plan.append(_Point(p_db, p, bits, mode, width, budgets, (mode, bits, snr), substream,
                           _free_sum_rate_mean(m, width, p), mean_leak))
    return plan


def _precoders(pt, stream, h, frames, shared):
    """Precoders built from point pt's knowledge of a chunk's (T, K, M, N)
    channels h, whose feedback units ``frames`` are orthonormal: BD over
    the (T, K N/w, M, w) knowledge units taken as users. ``shared`` is the
    chunk's analog feedback noise, or its emulation draws, one per unit
    index."""
    t, _, m, n = h.shape
    if pt.mode == "analog":
        units = _regroup(analog_feedback_batch(shared, h, pt.key[2])[1], pt.width)  # key[2] is beta P
    else:
        if pt.mode == "quantized_emulated":
            # an emulated budget has already passed the guard
            fed = [_map_to_budget(d, f, b, np.empty_like(d.p))[0]
                   for d, f, b in zip(shared, frames, pt.budgets)]
        else:
            gen = stream.child(*pt.substream).generator()
            fed = [scan_fresh_codebooks(gen, f, b)[0] for f, b in zip(frames, pt.budgets)]
        # a user's one unit is its knowledge; only several are joined
        units = (fed[0] if len(fed) == 1 else np.stack(fed, axis=1)).reshape(t, -1, m, pt.width)
    return _regroup(bd_precoders_batch(units), n)


def _chunk_sum_rates(spec, plan, chunk_idx, out):
    """(points, count, 3) per-trial [sum rate R, interference-free sum
    rate Y, leakage L] of every planned :class:`_Point` in one chunk,
    written into ``out``.

    The channels are the chunk stream's only draw; a point's knowledge
    comes from its substream. Feedback units are orthonormalized once per
    chunk. Emulated and analog points draw their budget- or power-free
    randomness once per chunk, keyed by the mode alone, so a point still
    does not depend on its grid: the analog noise, and, only when the plan
    has an emulated point, one emulation draw per feedback-unit index,
    which each emulated point maps to its own budget. A run of points with
    equal keys shares its precoders.
    """
    m, n, k = spec.m, spec.n, spec.k
    count = min(CHUNK_TRIALS, spec.trials - chunk_idx * CHUNK_TRIALS)
    stream = RngStream(spec.seed).child(chunk_idx)
    h = gaussian_matrix(stream.generator(), m, n, batch=(count, k))
    w = plan[0].width
    frames = shared = key = None
    if spec.policy.mode == "analog":
        # every analog point's noise, the same at any beta P
        shared = gaussian_matrix(stream.child(*plan[0].substream).generator(), m, n, batch=(count, k))
    else:
        # (N/w, T K, M, w): every user's feedback units, the same at any budget
        frames = orthonormalize(_regroup(h, w).reshape(count * k, n // w, m, w).swapaxes(0, 1))
        emulated = [pt for pt in plan if pt.mode == "quantized_emulated"]
        if emulated:
            # every emulated point's draws, the same at any budget
            gen = stream.child(*emulated[0].substream).generator()
            shared = [_budget_free_draw(gen, f) for f in frames]
    for row, pt in zip(out, plan):
        if key != pt.key:
            key, v = pt.key, None  # the last precoders go before the next
            v = _precoders(pt, stream, h, frames, shared)
        rates, free, leak = rates_batch(pt.p, h, v, w)
        np.sum(rates, axis=1, out=row[:, 0])
        np.sum(free, axis=1, out=row[:, 1])
        np.sum(leak, axis=1, out=row[:, 2])
    return out


def _estimate(rates, mean_free, mean_leak):
    """(sum rate, 99% half-width) of one point from its (T, 3) per-trial
    [R, Y, L] columns.

    Y is the interference-free sum rate and L the leakage, with known means
    mean_free and mean_leak (None where no exact mean exists). One rule:
    take the controls in order, Y then L, each centred and stripped of its
    part along the controls already taken (Frisch-Waugh-Lovell, so the
    slopes are the joint least-squares fit). A control is taken only while
    T exceeds the taken count plus two, its remainder keeps more than
    _COLLINEAR of its variance (1 - corr^2 for L), and the new estimate and
    half-width are finite; the first control refused ends the loop. A
    taken control's slope regresses the residual so far on its remainder;
    it moves mean(R) by that slope times the remainder's offset from its
    known mean, and the half-width is that of the last residual, with one
    degree of freedom per taken control plus one. With no control taken
    this is the plain mean of R; T = 1 gives (mean, inf).
    """
    r = np.ascontiguousarray(rates[:, 0])
    t = len(r)
    mean = float(np.mean(r))
    if t == 1:
        return mean, math.inf
    res, est, taken = r - mean, mean, []
    ci = Z99 * float(np.std(r, ddof=1)) / math.sqrt(t)
    with np.errstate(all="ignore"):
        for col, mu in ((1, mean_free), (2, mean_leak)):
            if mu is None or t <= len(taken) + 2:
                break
            x = np.ascontiguousarray(rates[:, col])
            mean_x = float(np.mean(x))
            e, off = x - mean_x, mean_x - mu
            var = float(e @ e)
            for q, qq, q_off in taken:
                g = float(e @ q) / qq
                e, off = e - g * q, off - g * q_off
            ee = float(e @ e)
            if not ee > _COLLINEAR * var:
                break
            b = float(res @ e) / ee
            step = res - b * e
            fit = est - b * off, Z99 * float(np.std(step, ddof=len(taken) + 2)) / math.sqrt(t)
            if not all(map(math.isfinite, fit)):
                break
            (est, ci), res = fit, step
            taken.append((e, ee, off))
    return est, ci


def run_experiment(spec, threads=1):
    """Run the sweep and return the averaged :class:`RateCurve`.

    threads, an integer >= 1, is the number of worker threads. Threads
    take whole chunks of every point; their count changes the execution
    schedule only, never the result bytes. A perfect point is
    :func:`~grassfeed.precoding.perfect_csi_sum_rate` with ci99 = 0 and
    runs no trial; the others regress the per-trial sum rate on controls
    whose means :func:`_plan` fixes, which takes the fading and leakage
    variance out of sum_rate and ci99 (see :func:`_estimate`). A trial
    count whose (points, trials, 3) rates buffer numpy refuses raises
    MemoryGuard before anything is drawn.
    """
    _check_type("spec", spec, ExperimentSpec)
    _check_count("threads", threads, 1)
    plan = _plan(spec)
    if spec.policy.mode == "perfect":
        estimates = [(pt.mean_free, 0.0) for pt in plan]
    else:
        n_chunks = (spec.trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
        try:
            rows = np.empty((len(plan), spec.trials, 3))
        except (MemoryError, ValueError) as exc:
            raise MemoryGuard(f"cannot allocate the rates of {spec.trials} trials: {exc}") from exc

        def run_chunk(c):
            _chunk_sum_rates(spec, plan, c, rows[:, c * CHUNK_TRIALS:(c + 1) * CHUNK_TRIALS])

        if threads > 1 and n_chunks > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(run_chunk, range(n_chunks)))
        else:
            list(map(run_chunk, range(n_chunks)))
        estimates = [_estimate(rates, pt.mean_free, pt.mean_leak) for pt, rates in zip(plan, rows)]
    points = [RatePoint(p_db=pt.p_db, sum_rate=mean, per_user_rate=mean / spec.k, ci99=ci,
                        mode=pt.mode, bits_used=pt.bits)
              for pt, (mean, ci) in zip(plan, estimates)]
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
        If the reference has no point, its rates are not strictly
        increasing with power, or a power or reference rate is not finite.
    NoOverlap
        If no test point falls inside the reference rate range.
    """
    _check_type("ref", ref, RateCurve)
    _check_type("test", test, RateCurve)
    ref_p, ref_r = ref.p_db, ref.sum_rate
    test_p, test_r = test.p_db, test.sum_rate
    finite = np.isfinite(np.concatenate([ref_p, ref_r, test_p])).all()
    if ref_r.size == 0 or not finite or np.any(np.diff(ref_r) <= 0):
        raise ParameterError(
            "powers and reference rates must be finite, and reference rates increase strictly with power"
        )
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


def _open(path, mode):
    """open(path, mode) for a str or os.PathLike path; ParameterError for
    any other path, and where the system refuses to open it."""
    path = _as_path("path", path)
    try:
        return open(path, mode)
    except OSError as exc:
        raise ParameterError(f"cannot open {path}: {exc.strerror or exc}") from exc


def _read_lines(path):
    """The lines of the UTF-8 text file at path, the one reader of input
    files; ParameterError for a path that is not a str or os.PathLike,
    where the system refuses to read it, and for bytes that are not UTF-8."""
    path = _as_path("path", path)
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def write_curve_csv(curve, path):
    """Write a curve as CSV: p_db, sum_rate, per_user_rate, ci99, mode, bits_used.

    Floats carry 6 significant digits; bits_used is blank for modes
    without a bit budget. path is a str or os.PathLike; ParameterError
    otherwise, or where the file cannot be opened.
    """
    _check_type("curve", curve, RateCurve)
    lines = ["p_db,sum_rate,per_user_rate,ci99,mode,bits_used"]
    for pt in curve.points:
        bits = "" if pt.bits_used is None else str(int(pt.bits_used))
        lines.append(
            f"{pt.p_db:.6g},{pt.sum_rate:.6g},{pt.per_user_rate:.6g},"
            f"{pt.ci99:.6g},{pt.mode},{bits}"
        )
    with _open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_curve_csv(path):
    """Read a curve written by :func:`write_curve_csv`.

    Raises ParameterError, naming the file and line, on a foreign header, a
    row without six fields or a field that does not parse, and on a file
    :func:`_read_lines` cannot read.
    """
    lines = [(i, ln.strip()) for i, ln in enumerate(_read_lines(path), 1) if ln.strip()]
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
