"""Acceptance gate: one test per published criterion, each at its stated
tolerance, each emitting a [PASS]/[FAIL] line into the terminal summary.

Monte Carlo criteria pin their seeds, so the verdicts are reproducible
bit-for-bit. Paired comparisons run both curves from the same seed; the
engine draws channels first in every chunk, so the two runs see identical
channel realizations and their confidence intervals can be summed for a
conservative bound on the difference.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import ks_2samp

from grassfeed.ensembles import RngStream, gaussian_matrix, isotropic_frame, isotropic_frame_in_nullspace
from grassfeed.grassmann import (
    GrassmannConstants,
    chordal_distance_sq,
    distortion_bound,
    distortion_samples,
)
from grassfeed.precoding import (
    SystemConfig,
    analog_rate_loss_bound,
    bd_precoders,
    rate_loss_bound,
)
from grassfeed.quant_emulator import (
    beta_trace_pdf,
    decompose,
    emulate_batch,
    sample_min_d2,
)
from grassfeed.scaling import (
    analog_vs_quantized_bounds,
    bd_zf_rate_gap,
    bits_for_rate_loss,
    zf_3db_bits,
    zf_bits_for_rate_loss,
)
from grassfeed.simulator import (
    ExperimentSpec,
    FeedbackPolicy,
    estimate_snr_gap,
    run_experiment,
)
def _verdict(record, label, ok, detail):
    record(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_01_zf_bit_table(record_criterion):
    table = [math.ceil(zf_3db_bits(6, float(p))) for p in range(5, 31, 5)]
    expect = [9, 17, 25, 34, 42, 50]
    _verdict(
        record_criterion,
        "criterion 1",
        table == expect,
        f"single-antenna 3-dB bit table at M=6 is {table}, expected {expect}",
    )


def test_criterion_02_scaled_feedback_snr_gap(record_criterion):
    """Scaling bits with the 3-dB law holds the quantized curve a fixed
    power offset from perfect CSIT; the offset grows slowly with M."""
    grid = tuple(float(p) for p in range(0, 31, 5))
    targets = {4: 2.65, 6: 2.72, 8: 2.84}
    trials = 20000
    gaps = {}
    for m in (4, 6, 8):
        perfect = run_experiment(
            ExperimentSpec(m=m, n=2, snr_grid_db=grid,
                           policy=FeedbackPolicy(mode="perfect"),
                           trials=trials, seed=1002)
        )
        scaled = run_experiment(
            ExperimentSpec(m=m, n=2, snr_grid_db=grid,
                           policy=FeedbackPolicy(mode="quantized_emulated",
                                                 schedule="scaled_3db"),
                           trials=trials, seed=1002)
        )
        gaps[m] = estimate_snr_gap(perfect, scaled).mean_db
    ok = all(abs(gaps[m] - targets[m]) <= 0.35 for m in gaps)
    detail = ", ".join(
        f"M={m}: {gaps[m]:.3f} dB (target {targets[m]} +- 0.35)" for m in gaps
    )
    _verdict(record_criterion, "criterion 2", ok, detail)


def test_criterion_03_quantized_rate_loss_bound(record_criterion):
    """Measured per-user rate loss under fixed-budget quantization never
    exceeds N log2(1 + (P/N) D_bar(B)) beyond paired sampling error."""
    grid = (0.0, 10.0, 20.0)
    trials = 10000
    worst = -np.inf
    ok = True
    for m in (4, 6):
        gc = GrassmannConstants(m, 2)
        perfect = run_experiment(
            ExperimentSpec(m=m, n=2, snr_grid_db=grid,
                           policy=FeedbackPolicy(mode="perfect"),
                           trials=trials, seed=1003)
        )
        for bits in (10, 14, 20):
            quant = run_experiment(
                ExperimentSpec(m=m, n=2, snr_grid_db=grid,
                               policy=FeedbackPolicy(mode="quantized_emulated",
                                                     bits=bits),
                               trials=trials, seed=1003)
            )
            for pp, qp in zip(perfect.points, quant.points):
                k = m // 2
                loss = (pp.sum_rate - qp.sum_rate) / k
                cfg = SystemConfig(m, 2, 10.0 ** (pp.p_db / 10.0))
                bound = rate_loss_bound(cfg, distortion_bound(gc, bits, a=0.5))
                slack = (pp.ci99 + qp.ci99) / k
                margin = loss - bound  # <= slack required
                worst = max(worst, margin - slack)
                if margin > slack:
                    ok = False
    _verdict(
        record_criterion,
        "criterion 3",
        ok,
        "per-user rate loss within the quantized-feedback bound at all 18 "
        f"(M, B, P) points; worst excess beyond CI {worst:.3g} bps/Hz",
    )


def test_criterion_04_emulation_matches_exhaustive(record_criterion):
    start = time.monotonic()
    results = []
    ok = True
    for m, n, bits in ((4, 2, 8), (6, 2, 8), (4, 1, 10)):
        gc = GrassmannConstants(m, n)
        base = RngStream(1004).child(m, n)
        emu = sample_min_d2(base.child(0), gc, bits, guard_product=15.0, size=10000)
        exh = distortion_samples(base.child(1), m, n, bits, 10000)
        pval = ks_2samp(emu, exh).pvalue
        rel = abs(float(np.mean(emu)) - float(np.mean(exh))) / float(np.mean(exh))
        results.append(f"({m},{n},B={bits}): p={pval:.3g}, mean err {100 * rel:.2f}%")
        ok = ok and pval >= 0.01 and rel < 0.02
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    _verdict(
        record_criterion,
        "criterion 4",
        ok,
        "; ".join(results) + f"; {elapsed:.1f} s (< 300 s)",
    )


def test_criterion_05_structural_identities(record_criterion):
    m, n = 6, 2
    cfg = SystemConfig(m, n, 10.0)
    gen = RngStream(1005).child(0).generator()
    worst_bd = worst_rec = worst_tr = worst_orth = 0.0
    for _ in range(1000):
        h = gaussian_matrix(gen, m, n, batch=(cfg.k,))
        pre = bd_precoders(cfg, h)
        for k in range(cfg.k):
            for j in range(cfg.k):
                if j != k:
                    worst_bd = max(worst_bd, float(np.abs(h[j].conj().T @ pre.matrices[k]).max()))
        tilde = isotropic_frame(gen, m, n)
        hat, d2 = emulate_batch(gen, tilde[None], 12)
        hat, d2 = hat[0], float(d2[0])
        dec = decompose(hat, tilde)
        rebuilt = tilde @ dec.x @ dec.y + dec.s @ dec.z
        worst_rec = max(worst_rec, float(np.abs(rebuilt - hat).max()))
        worst_tr = max(worst_tr, abs(float(np.sum(np.abs(dec.z) ** 2)) - d2))
        gram = hat.conj().T @ hat
        worst_orth = max(worst_orth, float(np.abs(gram - np.eye(n)).max()))
    ok = max(worst_bd, worst_rec, worst_tr, worst_orth) <= 1e-9
    _verdict(
        record_criterion,
        "criterion 5",
        ok,
        "1000 instances: max BD residual "
        f"{worst_bd:.2e}, reconstruction {worst_rec:.2e}, trace identity "
        f"{worst_tr:.2e}, orthonormality {worst_orth:.2e} (all <= 1e-9)",
    )


def test_criterion_06_moment_identities(record_criterion):
    parts = []
    ok = True

    # E[H^H H] = M I
    gen = RngStream(1006).child(0).generator()
    h = gaussian_matrix(gen, 6, 2, batch=(100000,))
    gram = np.einsum("tmi,tmj->tij", h.conj(), h).mean(axis=0)
    err1 = max(
        abs(gram[0, 0].real / 6 - 1),
        abs(gram[1, 1].real / 6 - 1),
        float(np.abs(gram[0, 1])) / 6,
    )
    ok = ok and err1 < 0.01
    parts.append(f"E[H^H H]=M I rel err {err1:.3g} (<1%)")

    # E[Z^H Z] = (D/N) I
    gen = RngStream(1006).child(1).generator()
    tilde = isotropic_frame(gen, 4, 2, batch=(60000,))
    hat, d2 = emulate_batch(gen, tilde, 12)
    a = np.einsum("tmi,tmj->tij", tilde.conj(), hat)
    zhz = np.eye(2) - np.einsum("tki,tkj->tij", a.conj(), a).mean(axis=0)
    target = float(d2.mean()) / 2
    offdiag = float(np.abs(zhz[0, 1]))
    diag_err = max(abs(zhz[0, 0].real / target - 1), abs(zhz[1, 1].real / target - 1))
    ok = ok and offdiag < 0.003 and diag_err < 0.02
    parts.append(f"E[Z^H Z]=(D/N)I offdiag {offdiag:.2e} (<3e-3), diag rel {diag_err:.3g}")

    # E[V^H S S^H V] = (N/(M-N)) I inside a common nullspace
    m, n = 6, 2
    gen = RngStream(1006).child(2).generator()
    ref = isotropic_frame(gen, m, n, batch=(50000,))
    s = isotropic_frame_in_nullspace(gen, ref, n)
    v = isotropic_frame_in_nullspace(gen, ref, n)
    g = np.einsum("tmi,tmj->tij", v.conj(), s)
    got = np.einsum("tik,tjk->tij", g, g.conj()).mean(axis=0)
    tgt = n / (m - n)
    err3 = float(np.abs(got - tgt * np.eye(n)).max()) / tgt
    ok = ok and err3 < 0.02
    parts.append(f"E[V^H S S^H V]=(N/(M-N))I rel err {err3:.3g} (<2%)")

    # E[F^H V V^H F] = N I
    gen = RngStream(1006).child(3).generator()
    f = gaussian_matrix(gen, 4, 2, batch=(100000,))
    v = isotropic_frame(gen, 4, 2, batch=(100000,))
    g = np.einsum("tmi,tmj->tij", f.conj(), v)
    got4 = np.einsum("tik,tjk->tij", g, g.conj()).mean(axis=0)
    err4 = float(np.abs(got4 - 2 * np.eye(2)).max()) / 2
    ok = ok and err4 < 0.02
    parts.append(f"E[F^H V V^H F]=N I rel err {err4:.3g} (<2%)")

    _verdict(record_criterion, "criterion 6", ok, "; ".join(parts))


def test_criterion_07_trace_density_mass(record_criterion):
    errs = {}
    for m in (4, 5, 6, 8):
        gc = GrassmannConstants(m, 2)
        val, _ = integrate.quad(lambda z: beta_trace_pdf(m, z), 0, 1)
        errs[m] = abs(val - gc.c)
    ok = all(e <= 1e-6 for e in errs.values())
    detail = ", ".join(f"M={m}: err {errs[m]:.2e}" for m in errs)
    _verdict(record_criterion, "criterion 7", ok, f"trace density mass equals C_MN ({detail})")


def test_criterion_08_analog_feedback_bound(record_criterion):
    grid = (0.0, 10.0, 20.0)
    trials = 10000
    ok = True
    worst = -np.inf
    perfect = run_experiment(
        ExperimentSpec(m=4, n=2, snr_grid_db=grid,
                       policy=FeedbackPolicy(mode="perfect"),
                       trials=trials, seed=1008)
    )
    for beta in (1.0, 2.0):
        analog = run_experiment(
            ExperimentSpec(m=4, n=2, snr_grid_db=grid,
                           policy=FeedbackPolicy(mode="analog", beta=beta),
                           trials=trials, seed=1008)
        )
        for pp, ap in zip(perfect.points, analog.points):
            loss = (pp.sum_rate - ap.sum_rate) / 2
            cfg = SystemConfig(4, 2, 10.0 ** (pp.p_db / 10.0))
            bound = analog_rate_loss_bound(cfg, beta)
            slack = (pp.ci99 + ap.ci99) / 2
            worst = max(worst, loss - bound - slack)
            if loss - bound > slack:
                ok = False
    # scaled-bit quantization beats analog once power is high enough
    ordering = all(
        analog_vs_quantized_bounds(4, 2, 2.0, p)[0]
        < analog_vs_quantized_bounds(4, 2, 2.0, p)[1]
        for p in (100.0, 1000.0, 1e4, 1e5)
    )
    ok = ok and ordering
    _verdict(
        record_criterion,
        "criterion 8",
        ok,
        f"analog rate loss within bound (worst excess beyond CI {worst:.3g}); "
        f"quantized bound < analog bound for beta=2, P >= 100: {ordering}",
    )


def test_criterion_09_bd_zf_high_power_gap(record_criterion):
    trials = 10000
    bd = run_experiment(
        ExperimentSpec(m=6, n=2, snr_grid_db=(30.0,),
                       policy=FeedbackPolicy(mode="perfect"),
                       trials=trials, seed=1009)
    )
    zf = run_experiment(
        ExperimentSpec(m=6, n=2, snr_grid_db=(30.0,),
                       policy=FeedbackPolicy(mode="perfect"),
                       trials=trials, seed=1009, precoder="zf")
    )
    gap = bd.points[0].sum_rate - zf.points[0].sum_rate
    expect = bd_zf_rate_gap(6, 2)
    rel = abs(gap - expect) / expect
    _verdict(
        record_criterion,
        "criterion 9",
        rel <= 0.15,
        f"measured BD-ZF sum-rate gap {gap:.3f} vs {expect:.3f} bps/Hz "
        f"(rel err {100 * rel:.1f}%, limit 15%)",
    )


def test_criterion_10_fixed_budget_gap_growth(record_criterion):
    trials = 20000
    grid = (10.0, 30.0)
    perfect = run_experiment(
        ExperimentSpec(m=4, n=2, snr_grid_db=grid,
                       policy=FeedbackPolicy(mode="perfect"),
                       trials=trials, seed=1010)
    )
    quant = run_experiment(
        ExperimentSpec(m=4, n=2, snr_grid_db=grid,
                       policy=FeedbackPolicy(mode="quantized_emulated", bits=10),
                       trials=trials, seed=1010)
    )
    gap10 = perfect.points[0].sum_rate - quant.points[0].sum_rate
    gap30 = perfect.points[1].sum_rate - quant.points[1].sum_rate
    growth = gap30 - gap10
    _verdict(
        record_criterion,
        "criterion 10",
        growth > 2.0,
        f"fixed B=10 sum-rate gap grows {gap10:.2f} -> {gap30:.2f} bps/Hz "
        f"(growth {growth:.2f} > 2)",
    )


def test_bit_table_ordering_property(record_criterion):
    """The multi-antenna bit column is not pinned numerically; what must
    hold is that joint quantization needs strictly fewer bits than
    per-antenna quantization at every tabulated power, for any loss target
    at least one bps/Hz per receive antenna."""
    ok = True
    for b in (4.0, 16.0, 64.0):
        for p_db in range(5, 31, 5):
            bd = bits_for_rate_loss(6, 2, float(p_db), b).approx
            zf = zf_bits_for_rate_loss(6, 2, float(p_db), b)
            if not bd < zf:
                ok = False
    _verdict(
        record_criterion,
        "bit-table ordering",
        ok,
        "joint quantizer needs fewer bits than per-antenna at every "
        "tabulated power for loss targets b in {4, 16, 64}",
    )
