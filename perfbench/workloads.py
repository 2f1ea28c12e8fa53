"""The benchmark's workloads: one ``run_experiment`` sweep each.

Each workload is chosen so that a different layer dominates its time:

emulated_bd
    The README's headline sweep (M=6, N=2, BD, scaled 3 dB budgets up to
    76 bits). Emulated quantization, orthonormalization, BD precoders and
    rates carry the time; the 0 dB point falls back to a 1-entry scan.
exhaustive_bd
    M=4, N=2, fixed B=8 full codebook scan. The fused scan and the codebook
    draws are ~99% of the time; precoders and rates barely run.
zf_emulated
    M=8, N=1, ZF, scaled budgets. M nullspace QRs of 8x7 per trial instead
    of K per trial, and the N=1 emulation path (no eigenvalue split).

The sweep seed is an argument: the specs fix everything else.
"""

import numpy as np

from grassfeed import ExperimentSpec, FeedbackPolicy

_GRID_0_30 = tuple(range(0, 31, 5))

_WORKLOADS = {
    "emulated_bd": dict(
        m=6, n=2, snr_grid_db=_GRID_0_30, trials=8192, precoder="bd",
        policy=FeedbackPolicy(mode="quantized_emulated", schedule="scaled_3db"),
    ),
    "exhaustive_bd": dict(
        m=4, n=2, snr_grid_db=(0, 10, 20), trials=512, precoder="bd",
        policy=FeedbackPolicy(mode="quantized_exhaustive", bits=8),
    ),
    "zf_emulated": dict(
        m=8, n=1, snr_grid_db=_GRID_0_30, trials=4096, precoder="zf",
        policy=FeedbackPolicy(mode="quantized_emulated", schedule="scaled_3db"),
    ),
}

NAMES = tuple(_WORKLOADS)


def spec_for(name, seed, trials=None):
    """The workload's ExperimentSpec at ``seed``, optionally resized."""
    params = dict(_WORKLOADS[name])
    if trials is not None:
        params["trials"] = trials
    return ExperimentSpec(seed=seed, **params)


def sweep_seed(seed, *path):
    """Seed of the sweep at ``path`` within a run started with ``seed``."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])
