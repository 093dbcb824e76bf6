#!/usr/bin/env python3
"""Quantify the model's channel approximations against simulation.

The closed forms model the coherent destination channel sum as Gaussian
and the eavesdropper gain as exponential. This script measures, as a
function of the element count, (a) the Kolmogorov-Smirnov distance
between the destination model law and the simulated channel-gain
distribution, (b) that of the ``phase_sum`` eavesdropper gain, built
from per-element draws, to Exp(lambda_E), and the gap between the
``mc_sop`` and ``mc_asc`` estimates of the ``rayleigh`` and
``phase_sum`` eavesdropper modes, in units of sqrt(SE_r^2 + SE_p^2),
and (c) the resulting outage/capacity bias of the closed
forms relative to signal-level Monte Carlo, in standard errors: the
SOP's is taken at the closed-form value, so that a run with no outage
still gives a finite gap (``ris_secrecy.sweeps.mc_gap``). Both KS
distances shrink with N, so tight agreement needs large surfaces.

    python scripts/model_gap_report.py --trials 1000000
"""

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ris_secrecy.channel import SystemParams, cdf_rho_d, derive_stats
from ris_secrecy.montecarlo import McConfig, ks_distance, sample_quantity, simulate_metrics
from ris_secrecy.secrecy import avg_secrecy_capacity, sop
from ris_secrecy.sweeps import mc_gap


def scenario(n, gd=10.0, ge=-10.0):
    return SystemParams(n_elements=n, kappa_d_t2=0.01, kappa_d_r2=0.01,
                        kappa_e_t2=0.01, kappa_e_r2=0.01,
                        snr_d_db=gd, snr_e_db=ge, c_th=1.0)


def in_se(a, b) -> float:
    """|a - b| over sqrt(SE_a^2 + SE_b^2); 0 where both estimates are exact and equal."""
    gap, se = abs(a.value - b.value), math.hypot(a.std_error, b.std_error)
    return gap / se if se else (0.0 if gap == 0.0 else math.inf)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=20250810)
    parser.add_argument("--elements", type=int, nargs="*",
                        default=[1, 2, 5, 10, 32, 64, 128])
    args = parser.parse_args()

    print("KS distance, model channel-gain law vs simulation "
          f"({args.trials:.0e} samples):")
    for n in args.elements:
        p = scenario(n)
        stats = derive_stats(p)
        x = np.sort(sample_quantity("rho_d", p, McConfig(trials=args.trials, seed=args.seed)))
        ks = ks_distance(x, lambda xs: cdf_rho_d(xs, stats, p.snr_d_linear))
        print(f"  N={n:4d}: KS = {ks:.4f}   (0.048 * sqrt(5/N) = {0.048 * (5 / n) ** 0.5:.4f})")

    # at snr_e = 0 dB the eavesdropper takes part in outage at every N; the
    # KS distance does not depend on the SNR
    print("\nEavesdropper model: phase_sum rho_E vs Exp(lambda_E), and phase_sum vs "
          f"rayleigh Monte Carlo at snr_e = 0 dB ({args.trials:.0e} trials each):")
    print(f"{'N':>4} {'KS_E':>7} {'sop_ray':>9} {'sop_ph':>9} {'gap/SE':>7} "
          f"{'asc_ray':>8} {'asc_ph':>8} {'gap/SE':>7}")
    for n in args.elements:
        p = scenario(n, ge=0.0)
        lam_e = derive_stats(p).lambda_e
        mcs = {mode: McConfig(trials=args.trials, seed=args.seed, eav_mode=mode)
               for mode in ("rayleigh", "phase_sum")}
        x = np.sort(sample_quantity("rho_e", p, mcs["phase_sum"]))
        ks = ks_distance(x, lambda xs: -np.expm1(-xs / lam_e))
        ray, ph = (simulate_metrics(p, mc, keys=("sop", "asc_eq19")) for mc in mcs.values())
        print(f"{n:>4} {ks:>7.4f} {ray['sop'].value:>9.6f} {ph['sop'].value:>9.6f} "
              f"{in_se(ray['sop'], ph['sop']):>7.1f} {ray['asc_eq19'].value:>8.4f} "
              f"{ph['asc_eq19'].value:>8.4f} {in_se(ray['asc_eq19'], ph['asc_eq19']):>7.1f}")

    print("\nClosed form vs Monte Carlo on the reference grid:")
    header = f"{'N':>3} {'snr_d':>6} {'snr_e':>6} {'sop_cf':>10} {'sop_mc':>10} " \
             f"{'gap/SE':>8} {'asc_cf':>8} {'asc_mc':>8} {'gap/SE':>8}"
    print(header)
    for n in (5, 10):
        for gd in (0.0, 10.0, 20.0):
            for ge in (-10.0, 0.0):
                p = scenario(n, gd, ge)
                stats = derive_stats(p)
                t0 = time.monotonic()
                est = simulate_metrics(p, McConfig(trials=args.trials, seed=args.seed))
                s_cf = sop(p, stats)
                c_cf = avg_secrecy_capacity(p, stats).value
                s_e, c_e = est["sop"], est["asc_eq19"]
                s_gap, s_se, _ = mc_gap(s_cf, s_e, outage=True)
                c_gap, c_se, _ = mc_gap(c_cf, c_e, outage=False)
                s_units = s_gap / s_se if s_se else float("inf")
                c_units = c_gap / c_se if c_se else float("inf")
                print(f"{n:>3} {gd:>6.1f} {ge:>6.1f} {s_cf:>10.6f} {s_e.value:>10.6f} "
                      f"{s_units:>8.1f} {c_cf:>8.4f} {c_e.value:>8.4f} {c_units:>8.1f}"
                      f"   [{time.monotonic() - t0:.1f} s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
