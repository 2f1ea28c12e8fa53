"""Measurement, correctness gate and traced run behind ``perfbench/run.py``.

Timed run (``--trace 0``), end-to-end metrics:

* ``setup_s``: median over fresh interpreters of ``import grassfeed`` plus
  a 1-trial sweep (see ``setup_once.py``).
* ``us_per_trial``: median sweep wall time per trial, where a trial is one
  channel realization at one SNR point.
* ``time_to_ci_s``: seconds one sweep would need to bring the 99% CI
  half-width to ``CI_TARGET`` bps/Hz at every point, from the median sweep
  wall time and the pooled CI of the timed sweeps.
* ``peak_rss_mb``: peak resident set size of this process after the
  timed sweeps.

Traced run (``--trace 1``): pairs of untraced and traced sweeps of the same
seed, in alternating order. The curves must be equal; the median over pairs
of the traced/untraced wall time ratio, minus one, is the tracing overhead. Per-layer self times, call counts and exact
work counts come from the traced sweeps; the two kernel micro-timings run
afterwards on whichever backend loaded.

Every sweep is gated against ``reference.json``; a point fails on an
exception, a non-finite value, an unexpected mode or bit budget, or a sum
rate outside the statistical tolerance.
"""

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import grassfeed
from grassfeed import _backend, simulator
from grassfeed.ensembles import RngStream, gaussian_matrix
from tracer import COUNTER_NAMES, LAYER_NAMES, LayerTrace
from workloads import spec_for, sweep_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CI_TARGET = 0.05  # bps/Hz, 99% half-width
# A point passes if |rate - reference| <= GATE_WIDTH * hypot(ci99, ci99_ref):
# with ci99 = 2.576 sigma that is a 5.2-sigma band, so a correct program
# fails a point about once in four million.
GATE_WIDTH = 2.0
SETUP_REPEATS = 5
MIN_SWEEPS = 3
# Two chunks, so the threads=2 probe really runs chunks concurrently.
PROBE_TRIALS = simulator.CHUNK_TRIALS + 128
# kernel micro-timings: 512 trials x 2^8 codebook entries of 4 x 2 frames
KERNEL_SHAPE = (512, 256, 4, 2)
KERNEL_REPEATS = 5
# seed paths of the run's sweeps, kept apart from the timed sweep indices
_TIMED, _SETUP, _PROBE, _KERNEL = 0, 1, 2, 3


def environment():
    """What every result is recorded with."""
    return {
        "backend": grassfeed.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "run_experiment_threads": 1,
        "blas_thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


class Tally:
    """SNR points attempted and failed, plus the reasons."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, what, points):
        self.failed += points
        self.problems.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def gate(self, curve):
        """Count the curve's points and fail those off the reference."""
        self.attempted += len(self.expected)
        if len(curve.points) != len(self.expected):
            self.fail(f"{len(curve.points)} points, expected {len(self.expected)}",
                      len(self.expected))
            return
        for pt, ref in zip(curve.points, self.expected):
            why = []
            if not all(map(math.isfinite, (pt.sum_rate, pt.per_user_rate, pt.ci99))):
                why.append("non-finite")
            if (pt.p_db, pt.mode, pt.bits_used) != (ref["p_db"], ref["mode"], ref["bits_used"]):
                why.append(f"ran {pt.mode} B={pt.bits_used}, expected {ref['mode']} "
                           f"B={ref['bits_used']}")
            tol = GATE_WIDTH * math.hypot(pt.ci99, ref["ci99"])
            if not abs(pt.sum_rate - ref["sum_rate"]) <= tol:
                why.append(f"sum rate {pt.sum_rate:.5f}, reference "
                           f"{ref['sum_rate']:.5f} +- {tol:.5f}")
            if why:
                self.fail(f"{pt.p_db:g} dB: " + "; ".join(why), 1)

    def sweep(self, spec, threads=1):
        """Run and gate one sweep; (curve or None, wall seconds)."""
        t0 = time.perf_counter()
        try:
            curve = simulator.run_experiment(spec, threads=threads)
        except Exception:
            wall = time.perf_counter() - t0
            traceback.print_exc()
            self.attempted += len(self.expected)
            self.fail(f"sweep seed {spec.seed} raised", len(self.expected))
            return None, wall
        wall = time.perf_counter() - t0
        self.gate(curve)
        return curve, wall

    def result(self, metrics):
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _setup_seconds(workload, seed):
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_once.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def _csv_digest(curve, scratch):
    path = Path(scratch) / "curve.csv"
    simulator.write_curve_csv(curve, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _trials(spec):
    return spec.trials * len(spec.snr_grid_db)


def timed_run(workload, seed, seconds, tally):
    setups = [
        _setup_seconds(workload, sweep_seed(seed, _SETUP, i)) for i in range(SETUP_REPEATS)
    ]
    probe_spec = spec_for(workload, sweep_seed(seed, _PROBE), trials=PROBE_TRIALS)
    # The first probe sweep also builds the lazy per-M tables before timing.
    first, _ = tally.sweep(probe_spec)

    walls, ci_sq = [], []
    start = time.perf_counter()
    while len(walls) < MIN_SWEEPS or (
        time.perf_counter() - start + statistics.median(walls) <= seconds
    ):
        spec = spec_for(workload, sweep_seed(seed, _TIMED, len(walls)))
        curve, wall = tally.sweep(spec)
        walls.append(wall)
        if curve is not None:
            ci_sq.append([pt.ci99 ** 2 for pt in curve.points])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Determinism probe, untimed: same seed again, then on two threads.
    again, _ = tally.sweep(probe_spec)
    pooled, _ = tally.sweep(probe_spec, threads=2)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as scratch:
        digests = [_csv_digest(c, scratch) for c in (first, again, pooled) if c is not None]
    if len(digests) == 3 and len(set(digests)) != 1:
        tally.fail(f"CSV digests differ across reruns/threads: {digests}", len(tally.expected))

    trials = _trials(spec)
    wall = statistics.median(walls)
    if not ci_sq:
        raise RuntimeError("no timed sweep completed")
    worst_ci_sq = max(np.mean(ci_sq, axis=0))
    print(json.dumps({
        "workload": workload,
        "timed_sweeps": len(walls),
        "trials_per_sweep": trials,
        "sweep_wall_s": walls,
        "setup_samples_s": setups,
        "probe_trials": PROBE_TRIALS,
        "probe_csv_sha256": digests[0] if digests else None,
    }))
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "us_per_trial": _metric(wall / trials * 1e6, "us"),
        "time_to_ci_s": _metric(wall * worst_ci_sq / CI_TARGET ** 2, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_timings(seed, tally):
    """Median times of the two backend kernels on a fixed exhaustive-scan shape."""
    t, c, m, n = KERNEL_SHAPE
    gen = RngStream(sweep_seed(seed, _KERNEL)).generator()
    stack = gaussian_matrix(gen, m, n, batch=(t * c,))
    hq = _backend.orthonormalize(gaussian_matrix(gen, m, n, batch=(t,)))
    gauss = stack.reshape(t, c, m, n)

    q = _backend.orthonormalize(stack)
    gram_err = np.max(np.abs(np.conj(np.swapaxes(q, -2, -1)) @ q - np.eye(n)))
    _, d2, _ = _backend.quantize_gaussians(hq, gauss)
    if not gram_err < 1e-10 or not np.all((d2 >= 0) & (d2 <= n)):
        tally.fail("kernel outputs off contract", 0)
    return {
        "kernel.orthonormalize_ms": _metric(
            _median_time(lambda: _backend.orthonormalize(stack), KERNEL_REPEATS) * 1e3, "ms"),
        "kernel.quantize_gaussians_ms": _metric(
            _median_time(lambda: _backend.quantize_gaussians(hq, gauss), KERNEL_REPEATS) * 1e3,
            "ms"),
    }


def traced_run(workload, seed, seconds, tally):
    tally.sweep(spec_for(workload, sweep_seed(seed, _PROBE), trials=PROBE_TRIALS))  # warm-up
    trace = LayerTrace()
    walls = {False: [], True: []}
    modes = []
    start = time.perf_counter()
    pairs = 0
    while pairs < MIN_SWEEPS or (
        time.perf_counter() - start
        + statistics.median(walls[False]) + statistics.median(walls[True]) <= seconds
    ):
        spec = spec_for(workload, sweep_seed(seed, _TIMED, pairs))
        curves = {}
        for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            if traced:
                with trace.active():
                    curves[traced], wall = tally.sweep(spec)
            else:
                curves[traced], wall = tally.sweep(spec)
            walls[traced].append(wall)
        if curves[True] is not None:
            modes = [pt.mode for pt in curves[True].points]
        if curves[True] != curves[False]:
            tally.fail(f"traced curve differs from untraced at seed {spec.seed}",
                       len(tally.expected))
        pairs += 1

    traced_trials = pairs * _trials(spec)
    traced_wall = sum(walls[True])
    metrics = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.self_us_per_trial"] = _metric(
            trace.self_s[name] / traced_trials * 1e6, "us")
        metrics[f"{name}.calls_per_trial"] = _metric(
            trace.calls[name] / traced_trials, "count")
        metrics[f"{name}.share"] = _metric(trace.self_s[name] / traced_wall, "ratio")
    metrics["count.points_emulated"] = _metric(modes.count("quantized_emulated"), "count")
    metrics["count.points_exhaustive"] = _metric(modes.count("quantized_exhaustive"), "count")
    for key in COUNTER_NAMES:
        unit = "B" if key.endswith("bytes_computed") else "count"
        metrics[f"count.{key}_per_trial"] = _metric(trace.counts[key] / traced_trials, unit)
    # Each pair runs back to back, so its ratio cancels the machine's slow drift.
    metrics["trace.overhead"] = _metric(
        statistics.median(t / u for t, u in zip(walls[True], walls[False])) - 1.0, "ratio")
    metrics.update(kernel_timings(seed, tally))
    print(json.dumps({
        "workload": workload,
        "sweep_pairs": pairs,
        "untraced_wall_s": walls[False],
        "traced_wall_s": walls[True],
        "kernel_shape": KERNEL_SHAPE,
    }))
    return metrics


def run(workload, seed, seconds, trace):
    """Run one workload; the result object ``run.py`` prints last."""
    src = (ROOT / "src").resolve()
    if src not in Path(grassfeed.__file__).resolve().parents:
        raise ImportError(f"grassfeed imported from {grassfeed.__file__}, not {src}")
    print(json.dumps({"env": environment()}))
    with open(HERE / "reference.json") as fh:
        expected = json.load(fh)["workloads"][workload]["points"]
    tally = Tally(expected)
    measure = traced_run if trace else timed_run
    metrics = measure(workload, seed, seconds, tally)
    return tally.result(metrics)
