"""Acceptance gates for the whole artifact.

One test per criterion (split where a criterion has independent gates),
each printing one [PASS]/[FAIL] line per check at the stated tolerance.

The closed forms are derived for the Gaussian-sum channel model: X1 ~
N(N pi/4, N (1 - pi^2/16)), rho_D = snr_d X1^2 and rho_E exponential
with mean lambda_e. The distribution and simulation gates (criteria 2
and 3) therefore draw their samples from that model law, so they check
the derivation and its numerics. How far the model itself is from the
signal-level product channel is measured by
``scripts/model_gap_report.py`` and asserted in
``tests/test_sweeps.py::test_run_sweep_mc_check_annotates_model_gaps``;
see README "Model accuracy".
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from ris_secrecy.channel import SystemParams, ccdf_rho_d, cdf_rho_d, derive_stats, pdf_rho_d
from ris_secrecy.montecarlo import McConfig, ks_distance, sample_quantity
from ris_secrecy.secrecy import (
    avg_secrecy_capacity,
    avg_secrecy_capacity_reference,
    e1_scaled,
    sop,
    sop_asymptotic,
    sop_reference,
    theta_coefficients,
)
from ris_secrecy.sweeps import emit, load_preset, run_sweep

GRID_SCENARIOS = [(n, gd, ge) for n in (5, 10)
                  for gd in (0.0, 10.0, 20.0) for ge in (-10.0, 0.0)]
SNR_GRID = [float(g) for g in range(-10, 31, 2)]


def scenario(n=5, gd=10.0, ge=-10.0, k2=0.01, c_th=1.0):
    return SystemParams(n_elements=n, kappa_d_t2=k2, kappa_d_r2=k2,
                        kappa_e_t2=k2, kappa_e_r2=k2,
                        snr_d_db=gd, snr_e_db=ge, c_th=c_th)


def check(ok: bool, label: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    return ok


# --- criterion 1: special functions of the closed forms (< 5 s) ---------------

def test_criterion_1_special_function_identities():
    """The destination law and e^t E1(t), against mpmath.

    rho_D = g X1^2 with X1 ~ N(sqrt(lambda), sigma^2), so P(rho_D <= x) is
    P(|Z + a| <= b) with a = sqrt(lambda/sigma^2) and b = sqrt(x/(g sigma^2)):
    1 - (erfc((b-a)/sqrt2) + erfc((b+a)/sqrt2))/2, which mpmath evaluates at
    30 digits. The grid of b covers a +- 9 standard deviations at each N.
    """
    t0 = time.monotonic()
    ok = True

    worst_sum = worst_mp = 0.0
    for n in (1, 2, 5, 10, 64, 128, 256, 1024):
        p = SystemParams(n_elements=n)
        stats = derive_stats(p)
        g = p.snr_d_linear
        a = math.sqrt(stats.lambda_ / stats.sigma2)
        b = np.linspace(max(a - 9.0, 0.0), a + 9.0, 61)
        x = g * stats.sigma2 * b * b
        cdf = cdf_rho_d(x, stats, g)
        ccdf = ccdf_rho_d(x, stats, g)
        worst_sum = max(worst_sum, float(np.max(np.abs(cdf + ccdf - 1.0))))
        with mp.workdps(30):
            a_mp = mp.sqrt(mp.mpf(stats.lambda_) / mp.mpf(stats.sigma2))
            for xi, lo, hi in zip(x, cdf, ccdf):
                b_mp = mp.sqrt(mp.mpf(float(xi)) / (mp.mpf(g) * mp.mpf(stats.sigma2)))
                q = (mp.erfc((b_mp - a_mp) / mp.sqrt(2)) + mp.erfc((b_mp + a_mp) / mp.sqrt(2))) / 2
                worst_mp = max(worst_mp, abs(float(1 - q) - lo), abs(float(q) - hi))
    ok &= check(worst_sum < 1e-10, f"cdf + ccdf = 1, worst {worst_sum:.2e} < 1e-10")
    ok &= check(worst_mp < 1e-10, f"cdf and ccdf vs mpmath erfc, worst {worst_mp:.2e} < 1e-10")

    worst = 0.0
    with mp.workdps(30):
        for t in np.geomspace(1e-12, 1e12, 91):
            want = mp.exp(mp.mpf(float(t))) * mp.e1(mp.mpf(float(t)))
            worst = max(worst, float(abs(e1_scaled(float(t)) - want) / want))
    ok &= check(worst < 1e-10, f"e1_scaled vs mpmath e^t E1(t), worst rel {worst:.2e} < 1e-10")

    elapsed = time.monotonic() - t0
    ok &= check(elapsed < 5.0, f"criterion 1 runtime {elapsed:.2f} s < 5 s")
    assert ok, "criterion 1: special-function identity suite"


# --- criterion 2: distribution suite (< 60 s) ---------------------------------

def test_criterion_2_pdf_normalisation():
    t0 = time.monotonic()
    ok = True
    for n in (1, 2, 5, 10, 32):
        p = scenario(n=n)
        stats = derive_stats(p)
        g = p.snr_d_linear
        hi = math.sqrt(g) * (math.sqrt(stats.lambda_) + 12.0 * math.sqrt(stats.sigma2))
        val, _ = integrate.quad(lambda u: 2.0 * u * pdf_rho_d(u * u, stats, g),
                                0.0, hi, limit=300)
        ok &= check(abs(val - 1.0) < 1e-6,
                    f"pdf normalisation N={n}: integral {val:.9f} within 1e-6")
    elapsed = time.monotonic() - t0
    ok &= check(elapsed < 60.0, f"normalisation runtime {elapsed:.1f} s < 60 s")
    assert ok, "criterion 2: density normalisation"


def test_criterion_2_ks_destination_law():
    # Gate: KS(cdf_rho_d, 1e6 samples of the modelled law snr_d X1^2 with
    # X1 ~ N(sqrt(lambda_), sigma2)) <= 0.01 for N in {5, 10}.
    t0 = time.monotonic()
    ok = True
    for n, seed in ((5, 101), (10, 102)):
        p = scenario(n=n)
        stats = derive_stats(p)
        x1 = np.random.default_rng(seed).normal(
            math.sqrt(stats.lambda_), math.sqrt(stats.sigma2), 1_000_000)
        x = np.sort(p.snr_d_linear * x1 ** 2)
        ks = ks_distance(x, lambda xs: cdf_rho_d(xs, stats, p.snr_d_linear))
        ok &= check(ks <= 0.01, f"KS destination law vs model-law samples N={n}: {ks:.2e} <= 0.01")
    elapsed = time.monotonic() - t0
    check(elapsed < 60.0, f"destination KS runtime {elapsed:.1f} s < 60 s")
    assert ok, ("criterion 2 destination-law KS: cdf_rho_d differs from the "
                "law of snr_d X1^2, X1 Gaussian, by more than 0.01")


def test_criterion_2_ks_eavesdropper_law():
    t0 = time.monotonic()
    p = scenario(n=5, ge=-10.0)
    stats = derive_stats(p)
    mc = McConfig(trials=1_000_000, seed=103)
    x = np.sort(sample_quantity("rho_e", p, mc))
    ks = ks_distance(x, lambda xs: -np.expm1(-xs / stats.lambda_e))
    crit = 1.628 / math.sqrt(mc.trials)
    ok = check(ks < crit, f"KS eavesdropper exponential law: {ks:.2e} < {crit:.2e} (1% level)")
    elapsed = time.monotonic() - t0
    ok &= check(elapsed < 60.0, f"eavesdropper KS runtime {elapsed:.1f} s < 60 s")
    assert ok, "criterion 2: eavesdropper exponential law"


# --- criterion 3: oracle equivalence on the 12-scenario grid (< 10 min) -------

def test_criterion_3_closed_form_vs_adaptive_quadrature():
    ok = True
    for n, gd, ge in GRID_SCENARIOS:
        p = scenario(n=n, gd=gd, ge=ge)
        stats = derive_stats(p)
        ds = abs(sop(p, stats) - sop_reference(p, stats))
        dc = abs(avg_secrecy_capacity(p, stats).value
                 - avg_secrecy_capacity_reference(p, stats).value)
        ok &= check(ds <= 1e-6 and dc <= 1e-6,
                    f"N={n:2d} snr_d={gd:3.0f} snr_e={ge:4.0f}: "
                    f"|sop-quad|={ds:.2e}, |asc-quad|={dc:.2e} <= 1e-6")
    assert ok, "criterion 3: closed form vs adaptive quadrature"


def model_law_metrics(p, stats, rng, trials):
    """SOP and eq19 ASC estimates from draws of the modelled channel law.

    Per chunk, X1 ~ N(sqrt(lambda_), sigma2) and then rho_E = lambda_e
    Exp(1); the SNDR maps and the outage event are those of
    ``simulate_metrics``. Returns {name: (value, standard error)}.
    """
    n_out = 0
    s19 = s19_sq = 0.0
    for done in range(0, trials, 1_000_000):
        m = min(1_000_000, trials - done)
        x1 = rng.normal(math.sqrt(stats.lambda_), math.sqrt(stats.sigma2), m)
        rho_d = p.snr_d_linear * x1 ** 2
        rho_e = stats.lambda_e * rng.standard_exponential(m)
        gd = rho_d / (p.kappa_d_sum * rho_d + 1.0)
        ge = rho_e / (p.kappa_e_sum * rho_e + 1.0)
        n_out += int(((1.0 + gd) < p.gamma_th * (1.0 + ge)).sum())
        v = np.log2(1.0 + gd) - np.log2(1.0 + ge)
        s19 += v.sum()
        s19_sq += (v * v).sum()
    q = n_out / trials
    mean = float(s19) / trials
    var = max(float(s19_sq) / trials - mean * mean, 0.0)
    return {"sop": (q, math.sqrt(q * (1.0 - q) / trials)),
            "asc": (mean, math.sqrt(var / trials))}


def test_criterion_3_closed_form_vs_monte_carlo():
    # Gate: closed form within 3 standard errors of a 1e7-trial simulation
    # of the Gaussian-sum model the closed forms are derived for.
    t0 = time.monotonic()
    ok = True
    for n, gd, ge in GRID_SCENARIOS:
        p = scenario(n=n, gd=gd, ge=ge)
        stats = derive_stats(p)
        est = model_law_metrics(p, stats, np.random.default_rng(3000 + n), 10_000_000)
        closed = {"sop": sop(p, stats), "asc": avg_secrecy_capacity(p, stats).value}
        for name, cf in closed.items():
            value, se = est[name]
            gap = abs(cf - value)
            units = gap / se if se > 0 else math.inf
            ok &= check(gap <= 3.0 * se,
                        f"N={n:2d} snr_d={gd:3.0f} snr_e={ge:4.0f} {name}: closed {cf:.6f} "
                        f"vs model-law mc {value:.6f} (se {se:.1e}), gap {units:.2f} SE <= 3 SE")
    elapsed = time.monotonic() - t0
    check(elapsed < 600.0, f"criterion 3 runtime {elapsed:.0f} s < 600 s")
    assert elapsed < 600.0
    assert ok, ("criterion 3 simulation gate: a closed form is more than 3 SE "
                "from the simulated Gaussian-sum model")


# --- criterion 4: outage trends over the destination-SNR grid -----------------

def test_criterion_4_outage_snr_and_element_trends():
    ok = True
    curves = {}
    for n in (5, 10):
        vals = []
        for gd in SNR_GRID:
            p = scenario(n=n, gd=gd, ge=-10.0)
            vals.append(sop(p, derive_stats(p)))
        curves[n] = vals
        strict = all(b < a for a, b in zip(vals, vals[1:]))
        ok &= check(strict, f"sop strictly decreasing in snr_d, N={n}")
    dominated = all(v10 < v5 for v5, v10 in zip(curves[5], curves[10]))
    ok &= check(dominated, "sop(N=10) < sop(N=5) at every grid point (snr_e=-10 dB)")
    assert ok, "criterion 4: outage SNR/element trends"


# --- criterion 5: outage ordering in the impairment level ---------------------

def test_criterion_5_impairment_ordering():
    ok = True
    for gd in SNR_GRID:
        vals = []
        for k2 in (0.0, 0.01, 0.1):
            p = scenario(gd=gd, k2=k2)
            vals.append(sop(p, derive_stats(p)))
        ok &= vals[2] >= vals[1] >= vals[0]
    check(ok, "sop(k2=0.1) >= sop(k2=0.01) >= sop(k2=0) pointwise over the snr_d grid")
    assert ok, "criterion 5: impairment ordering"


# --- criterion 6: capacity trends ---------------------------------------------

def test_criterion_6_capacity_trends():
    ok = True

    def asc_at(n, gd, k2=0.01):
        p = scenario(n=n, gd=gd, k2=k2)
        return avg_secrecy_capacity(p, derive_stats(p)).value

    for n in (5, 10, 15):
        vals = [asc_at(n, gd) for gd in SNR_GRID]
        ok &= check(all(b >= a for a, b in zip(vals, vals[1:])),
                    f"asc non-decreasing in snr_d, N={n}")

    low = {n: asc_at(n, 0.0) for n in (5, 10, 15)}
    high = {n: asc_at(n, 30.0) for n in (5, 10, 15)}
    ok &= check(low[5] < low[10] < low[15],
                "asc increases with N at snr_d=0 dB (gaps clearly visible)")
    for a, b in ((5, 10), (10, 15)):
        gap_low = low[b] - low[a]
        gap_high = high[b] - high[a]
        ok &= check(gap_high < gap_low,
                    f"inter-N gap N{a}->N{b} shrinks at 30 dB ({gap_high:+.3f} < {gap_low:+.3f})")
    if not high[5] < high[10] < high[15]:
        print("[NOTE] at snr_d=30 dB the N ordering reverses: the destination "
              "SNDR is saturation-limited while lambda_e keeps growing with N "
              f"(asc: N5={high[5]:.3f}, N10={high[10]:.3f}, N15={high[15]:.3f})")

    k_vals = [asc_at(5, 10.0, k2=k2) for k2 in (0.01, 0.05, 0.1)]
    ok &= check(k_vals[0] >= k_vals[1] >= k_vals[2],
                "asc(k2 smaller) >= asc(k2 larger) at snr_d=10 dB")
    assert ok, "criterion 6: capacity trends"


# --- criterion 7: asymptote stays below the exact outage and nears its floor ---

def test_criterion_7_asymptote_gap_shrinks_with_snr():
    # Gate, for every scenario with theta4 > 0:
    # (a) sop >= sop_asymptotic over SNR_GRID: the asymptote's event
    #     gamma_D < gamma_th gamma_E lies inside the exact event
    #     gamma_D < gamma_th gamma_E + vartheta;
    # (b) the gap sop - sop_asymptotic is closer to its high-SNR floor at
    #     30 dB than at 10 dB. As snr_d -> oo both curves saturate: sop to
    #     Pr(rho_E > theta3/theta2) and the asymptote to Pr(rho_E > 1/theta4),
    #     so the gap tends to delta_inf = e^{-theta3/(theta2 lambda_e)} -
    #     e^{-1/(theta4 lambda_e)}, not to zero.
    ok = True
    for n, ge in [(n, ge) for n in (5, 10) for ge in (-10.0, 0.0)]:
        gaps = {}
        for gd in SNR_GRID:
            p = scenario(n=n, gd=gd, ge=ge)
            stats = derive_stats(p)
            gaps[gd] = sop(p, stats) - sop_asymptotic(p, stats)
        ok &= check(min(gaps.values()) >= 0.0,
                    f"N={n:2d} snr_e={ge:4.0f}: sop >= sop_asymptotic over the snr_d grid")

        th = theta_coefficients(p)  # theta and lambda_e do not depend on snr_d
        floor = (math.exp(-th.theta3 / (th.theta2 * stats.lambda_e))
                 - math.exp(-1.0 / (th.theta4 * stats.lambda_e)))
        excess = {gd: abs(gaps[gd] - floor) for gd in (10.0, 30.0)}
        ok &= check(excess[30.0] < excess[10.0],
                    f"N={n:2d} snr_e={ge:4.0f}: |gap - delta_inf| (delta_inf {floor:.2e}) "
                    f"{excess[30.0]:.2e} @30dB < {excess[10.0]:.2e} @10dB")
    assert ok, ("criterion 7: the asymptote exceeds the exact outage, or its gap "
                "is not closer to the high-SNR floor delta_inf at 30 dB than at 10 dB")


# --- criterion 8: byte-identical sweep output ----------------------------------

def test_criterion_8_preset_determinism(tmp_path):
    import dataclasses

    curves = load_preset("fig2")
    texts = []
    for run in range(2):
        blobs = {}
        for label, spec in curves.items():
            spec = dataclasses.replace(
                spec, mc=dataclasses.replace(spec.mc, trials=25_000))
            blobs[label] = emit(run_sweep(spec), "csv", tmp_path / f"r{run}_{label}.csv")
        texts.append(blobs)
    ok = True
    for label in curves:
        same = texts[0][label] == texts[1][label]
        file_same = ((tmp_path / f"r0_{label}.csv").read_bytes()
                     == (tmp_path / f"r1_{label}.csv").read_bytes())
        ok &= check(same and file_same, f"fig2/{label}: repeated run byte-identical CSV")
    assert ok, "criterion 8: deterministic sweep output"
