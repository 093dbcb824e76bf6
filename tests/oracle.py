"""Arbitrary-precision values of the secrecy metrics, for tests only.

Conditioning on the destination amplitude X1 ~ N(sqrt(lambda), sigma^2)
turns each metric of the Gaussian-sum model into a one-dimensional
expectation of a bounded function of rho = snr_d X1^2:

    SOP      = E[exp(-t(rho)/lambda_e)],  t(rho) = max(theta3 rho - vartheta, 0)
                                                   / (theta1 + theta2 rho),
               t = inf where theta1 + theta2 rho <= 0 < theta3 rho - vartheta;
    SOP_asym = E[exp(-rho/((gamma_th + theta4 rho) lambda_e))];
    R_D      = E[log2(1 + rho/(kappa_d rho + 1))],

and R_E = E[log2(1 + rho_E/(kappa_e rho_E + 1))] over the exponential
eavesdropper gain. mpmath's tanh-sinh rule evaluates each one at ``DPS``
digits over the whole real line (the half line for R_E), split where
the integrand has a kink or a narrow feature:

* every X1 integral at 0 and at the mean;
* SOP at the outage threshold +-x_k = +-sqrt(vartheta/(theta3 g)), at
  +-(x_k +- 10 sqrt(theta1 lambda_e/(theta3 g))), the scale on which the
  conditional outage probability falls from 1, and, where theta2 < 0, at
  the amplitude where theta1 + theta2 rho = 0 and it reaches 0;
* SOP_asym at +-10 sqrt(gamma_th lambda_e/g);
* R_E at rho_E = 1 and at its mean.

The inputs are the float parameters themselves, so the values are those
of the model at exactly the numbers the double-precision routes see.
"""

from __future__ import annotations

import mpmath as mp

DPS = 30


def _expectation(h, params, stats, cuts=()):
    """E[h(g X1^2)], X1 ~ N(sqrt(lambda), sigma^2), split at 0, the mean and +-cuts."""
    mu = mp.sqrt(mp.mpf(stats.lambda_))
    sigma = mp.sqrt(mp.mpf(stats.sigma2))
    g = mp.mpf(params.snr_d_linear)
    points = sorted(set([mp.mpf(0), mu, *cuts, *(-c for c in cuts)]))

    def f(x):
        u = (x - mu) / sigma
        return h(g * x * x) * mp.exp(-u * u / 2)

    return mp.quad(f, [-mp.inf, *points, mp.inf]) / (sigma * mp.sqrt(2 * mp.pi))


def _thetas(params):
    gamma_th = mp.mpf(2) ** mp.mpf(params.c_th)
    vartheta = gamma_th - 1
    kd = mp.mpf(params.kappa_d_t2) + mp.mpf(params.kappa_d_r2)
    ke = mp.mpf(params.kappa_e_t2) + mp.mpf(params.kappa_e_r2)
    return (gamma_th, vartheta, vartheta * ke + gamma_th,
            vartheta * ke * kd + gamma_th * kd - ke, 1 - vartheta * kd,
            gamma_th * kd - ke)


def sop(params, stats) -> float:
    with mp.workdps(DPS):
        _, vartheta, theta1, theta2, theta3, _ = _thetas(params)
        if theta3 <= 0:
            return 1.0
        lam_e = mp.mpf(stats.lambda_e)
        g = mp.mpf(params.snr_d_linear)

        def h(rho):
            num = theta3 * rho - vartheta
            if num <= 0:
                return mp.mpf(1)
            den = theta1 + theta2 * rho
            return mp.exp(-num / (den * lam_e)) if den > 0 else mp.mpf(0)

        x_k = mp.sqrt(vartheta / (theta3 * g))
        width = 10 * mp.sqrt(theta1 * lam_e / (theta3 * g))
        cuts = [x_k, x_k - width, x_k + width]
        if theta2 < 0:
            cuts.append(mp.sqrt(theta1 / (-theta2 * g)))
        return float(_expectation(h, params, stats, cuts))


def sop_asymptotic(params, stats) -> float:
    """High-SNR outage approximation; requires theta4 > 0."""
    with mp.workdps(DPS):
        gamma_th, _, _, _, _, theta4 = _thetas(params)
        if theta4 <= 0:
            raise ValueError("sop_asymptotic requires theta4 > 0")
        lam_e = mp.mpf(stats.lambda_e)
        width = 10 * mp.sqrt(gamma_th * lam_e / mp.mpf(params.snr_d_linear))
        return float(_expectation(
            lambda rho: mp.exp(-rho / ((gamma_th + theta4 * rho) * lam_e)),
            params, stats, [width]))


def rates(params, stats) -> tuple[float, float]:
    """Ergodic rates (R_D, R_E) in bits/s/Hz; R_D - R_E is the average secrecy capacity."""
    with mp.workdps(DPS):
        kd = mp.mpf(params.kappa_d_t2) + mp.mpf(params.kappa_d_r2)
        ke = mp.mpf(params.kappa_e_t2) + mp.mpf(params.kappa_e_r2)
        r_d = _expectation(lambda rho: mp.log(1 + rho / (kd * rho + 1), 2), params, stats)
        lam_e = mp.mpf(stats.lambda_e)
        # rho_E = lambda_e s with s ~ Exp(1); the log bends at rho_E ~ 1
        r_e = mp.quad(lambda s: mp.log(1 + lam_e * s / (ke * lam_e * s + 1), 2) * mp.exp(-s),
                      sorted(set([mp.mpf(0), 1 / lam_e, mp.mpf(1), mp.inf])))
        return float(r_d), float(r_e)
