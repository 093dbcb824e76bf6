"""Closed-form secrecy metrics and their quadrature reference versions.

The secrecy outage probability and both ergodic-rate terms of the
average secrecy capacity are integrals over the destination and
eavesdropper channel gains. Each metric is provided twice, through
independent numerical routes that integrate in opposite orders:

* the closed form: Gauss-Chebyshev quadrature of the destination CDF
  (its erfc form, each tail formed directly) against the eavesdropper
  density, and
* a ``*_reference`` twin: adaptive quadrature (scipy), over the Gaussian
  destination amplitude, of the outage probability or rate given it. It
  takes its closed form's arguments and ignores ``numerics``.

Agreement between the two validates the law, the quadrature rule and
the algebra at once. Both evaluate the Gaussian-sum model of the
destination channel; the Monte Carlo module simulates the signal-level
channel itself, so its gap to them measures the model's error as well.

The closed forms hold for N <= 245, the bound ``_MAX_MEAN`` on the
mixture mean lambda/(2 sigma^2) of the destination law. Beyond it their
100-node rule no longer resolves that law, and :func:`_law_at` raises
:class:`.channel.ConvergenceError` rather than return an unchecked
value; the twins have no such bound.

Both outage probabilities are one integral with two coefficient sets.
Its upper limit c/d is finite only because the SNDRs saturate; the
eavesdropper mass beyond it makes outage certain and must be added as a
closed-form tail term (exp(-limit/lambda_e)). Dropping it is visibly
wrong for lambda_e of a few: the tail reaches ~1e-2. Where d <= 0, or
where that tail underflows to 0.0, the integral is instead cut where the
eavesdropper law has shed all but ``_TAIL_EPSILON``. This limit is
derived from the inputs; a fixed theta2 threshold of 1e-12, applied to
``sop`` only, spread the nodes over limits far past that point, which
returned wrong values.

The eavesdropper's ergodic rate is exact: a difference of two values of
the scaled exponential integral e^t E1(t), which :func:`e1_scaled`
takes from scipy's ``exp1`` and, for large t, from its asymptotic
series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as sc

from ._schema import check_field_types
from .channel import ChannelStats, ConvergenceError, SystemParams, cdf_rho_d, ccdf_rho_d


class UnsupportedRegimeError(ValueError):
    """Parameters outside the validity region of a closed form."""


@dataclass(frozen=True)
class ThetaSet:
    """Coefficients of the outage-region geometry.

    With kd = kappa_d_t2 + kappa_d_r2, ke = kappa_e_t2 + kappa_e_r2 and
    vartheta = gamma_th - 1:

      theta1 = vartheta ke + gamma_th
      theta2 = vartheta ke kd + gamma_th kd - ke
      theta3 = 1 - vartheta kd
      theta4 = gamma_th kd - ke        (high-SNR limit)

    The outage event is rho_D < (theta1 rho_E + vartheta)/(theta3 -
    theta2 rho_E) while the denominator is positive, and certain beyond.
    theta3 <= 0 means the destination SNDR ceiling cannot reach the
    target rate at any SNR.
    """

    gamma_th: float
    vartheta: float
    theta1: float
    theta2: float
    theta3: float
    theta4: float


@dataclass(frozen=True)
class NumericsConfig:
    """Quadrature settings of the closed forms.

    ``quad_order`` is the Chebyshev node count; it is deliberately
    independent of the surface element count. ``mc_check`` asks drivers
    to cross-validate closed forms against simulation. The destination
    law is not truncated (its erfc form, see :func:`_law_at`); the
    integration limits are, by ``_TAIL_EPSILON``.
    """

    quad_order: int = 100
    mc_check: bool = False

    def __post_init__(self):
        check_field_types(self)
        if self.quad_order < 2:
            raise ValueError(f"quad_order must be >= 2, got {self.quad_order!r}")


DEFAULT_NUMERICS = NumericsConfig()

# mass discarded where an integration limit or the twins' X1 range is
# truncated, as the exponential limit lambda_e ln(1/eps) and the Gaussian
# half-width, in standard deviations, sqrt(2 ln(1/eps))
_TAIL_EPSILON = 1e-12
_TAIL_LOG = math.log(1.0 / _TAIL_EPSILON)
_TAIL_Z = math.sqrt(2.0 * _TAIL_LOG)

# The closed forms' domain, N <= 245, as a bound on the mixture mean
# lambda/(2 sigma^2) of rho_D's law: derive_stats makes it
# N pi^2/(32 (1 - pi^2/16)), and this is its value at N = 245.5, midway
# between 197.218 (N = 245) and 198.023 (N = 246). Past N = 245 the
# 100-node rule no longer resolves the law (values off their twins by up
# to 1.8e-5); it is where the law's former Poisson mixture series needed
# more than 200 terms. ROADMAP item 25 replaces the bound with the closed
# forms' own error estimate.
_MAX_MEAN = 245.5 * math.pi ** 2 / (32.0 * (1.0 - math.pi ** 2 / 16.0))


def theta_coefficients(params: SystemParams) -> ThetaSet:
    """Outage-geometry coefficients for the given scenario."""
    gamma_th = params.gamma_th
    vartheta = gamma_th - 1.0
    kd = params.kappa_d_sum
    ke = params.kappa_e_sum
    return ThetaSet(
        gamma_th=gamma_th,
        vartheta=vartheta,
        theta1=vartheta * ke + gamma_th,
        theta2=vartheta * ke * kd + gamma_th * kd - ke,
        theta3=1.0 - vartheta * kd,
        theta4=gamma_th * kd - ke,
    )


@lru_cache(maxsize=32)
def _chebyshev_rule(q: int):
    """Weights w, 1 + t(phi) and dt/dphi at the q first-kind Chebyshev nodes phi.

    sum w_n h(phi_n) approximates int_{-1}^{1} h(phi) dphi, and t is the
    map of :func:`_chebyshev_on_interval`. 1 + t is clipped to [0, 2]: it
    rounds below 0 for 22 of q = 2...1000. Cached and read-only: every
    caller shares the same arrays.
    """
    n = np.arange(1, q + 1, dtype=float)
    phi = np.cos((2.0 * n - 1.0) * math.pi / (2.0 * q))
    w = (math.pi / q) * np.sqrt(1.0 - phi * phi)
    t = (15.0 * phi - 10.0 * phi ** 3 + 3.0 * phi ** 5) / 8.0
    one_plus_t = np.clip(1.0 + t, 0.0, 2.0)
    dt = 15.0 * (1.0 - phi * phi) ** 2 / 8.0
    for arr in (w, one_plus_t, dt):
        arr.setflags(write=False)
    return w, one_plus_t, dt


def _chebyshev_on_interval(q: int, upper: float):
    """Chebyshev rule on [0, upper] under a quintic endpoint-flattening map.

    Applied to a plain integral, the first-kind rule alone converges
    only like 1/q^2 (its half-period midpoint interpretation sees
    derivative jumps at the interval ends). Substituting
    phi -> (15 phi - 10 phi^3 + 3 phi^5)/8 first makes the transformed
    integrand vanish to high order at both ends, after which the same
    nodes and weights deliver ~1e-12 accuracy by q = 100 on the smooth
    integrands used here. Returns the nodes x and the weights as fresh
    arrays, which the caller may overwrite.
    """
    w, one_plus_t, dt = _chebyshev_rule(q)
    half = 0.5 * upper
    x = half * one_plus_t
    # 0.5 * upper rounds up for some upper < 2^-1021, and x then past upper
    np.minimum(x, upper, out=x)
    weights = half * w
    weights *= dt
    return x, weights


@dataclass(frozen=True)
class SopEvaluation:
    """Outage probability with its decomposition.

    ``tail_mass`` is the probability that the eavesdropper gain lies
    beyond the integration limit (outage certain there), 0 where the
    limit is the truncation of :func:`_outage_probability`;
    ``target_saturated`` flags c <= 0 (theta3 <= 0 for ``sop``), where
    outage is certain for every channel state and the value is exactly 1.
    """

    value: float
    integral: float
    tail_mass: float
    upper_limit: float
    target_saturated: bool


def _asymptotic_thetas(params: SystemParams) -> ThetaSet:
    """Theta set of the high-SNR event, which needs theta4 > 0."""
    th = theta_coefficients(params)
    if th.theta4 <= 0.0:
        raise UnsupportedRegimeError(
            f"sop_asymptotic requires theta4 > 0, got theta4={th.theta4}"
        )
    return th


def _law_at(x, a: float, b: float, c: float, d: float, stats: ChannelStats, g: float,
            upper_tail: bool):
    """F_rhoD, or 1 - F_rhoD if ``upper_tail``, at (a x + b)/(c - d x) for each node x.

    The law is the erfc form of :func:`.channel.cdf_rho_d`, each tail
    formed directly. Where the mixture mean lambda/(2 sigma^2) exceeds
    ``_MAX_MEAN``, past the closed forms' domain N <= 245, this raises
    ConvergenceError before any node is read, live nodes or not.

    Where c - d x <= 0 the destination cannot reach the target (its SNDR
    saturates), so the CDF is 1 there and the CCDF 0. When every node is
    live, which is the common case, the law takes the nodes as they are;
    its values are the same bits. That shortcut is kept for speed: one
    masked divide for every case (``np.divide(..., where=denom > 0)``
    onto +inf) gives the same bits, but took 21.5 us a call against
    20.1 us (the fig2 point at N = 10, CDF and CCDF, slower in 14 of 15
    interleaved rounds), and read ``scan`` wall_s 0.0483 s against
    0.0476 s in the median of 10 alternating runs, slower in 7 of 10
    (2-CPU Intel Xeon).
    """
    mean = stats.lambda_ / (2.0 * stats.sigma2)
    if not mean <= _MAX_MEAN:
        raise ConvergenceError(
            f"closed forms past N = 245 (mixture mean {mean:.3f} > {_MAX_MEAN:.3f})",
            x.size, math.nan)
    law = ccdf_rho_d if upper_tail else cdf_rho_d
    denom = d * x
    np.subtract(c, denom, out=denom)
    # a x + b without the product where a = 1 or the sum where b = 0: the
    # same bits, as x >= 0 and a > 0 leave no -0.0 to turn into +0.0
    num = x if a == 1.0 else a * x
    if b != 0.0:
        num = num + b
    if denom.min() > 0.0:
        return law(np.divide(num, denom, out=denom), stats, g)
    live = denom > 0.0
    f = np.full_like(x, 0.0 if upper_tail else 1.0)
    f[live] = law(num[live] / denom[live], stats, g)
    return f


def _outage_integral(a: float, b: float, c: float, d: float, upper: float,
                     stats: ChannelStats, snr_d_linear: float,
                     numerics: NumericsConfig) -> float:
    """Chebyshev form of int_0^upper F_rhoD((a x + b)/(c - d x)) f_rhoE(x) dx."""
    x, w = _chebyshev_on_interval(numerics.quad_order, upper)
    f = _law_at(x, a, b, c, d, stats, snr_d_linear, upper_tail=False)
    lam_e = stats.lambda_e
    # w e^(-x/lam_e) / lam_e f, in that order, on the rule's own arrays
    w *= np.exp(np.divide(x, -lam_e, out=x), out=x)
    w /= lam_e
    w *= f
    return float(w.sum())


def _outage_probability(a: float, b: float, c: float, d: float, stats: ChannelStats,
                        snr_d_linear: float, numerics: NumericsConfig) -> SopEvaluation:
    """Probability of the outage event rho_D < (a rho_E + b)/(c - d rho_E).

    Where c <= 0 the target is out of reach and outage certain. Otherwise
    the limit is derived, not set: upper = c/d (inf where d <= 0), with
    certain-outage tail exp(-upper/lambda_e). Where that tail underflows
    to 0.0 no representable eavesdropper mass lies beyond c/d, and the
    integral is cut at lambda_e ln(1/_TAIL_EPSILON) with tail 0. The old
    fixed rule (cut only where theta2 <= 1e-12, and never for
    ``sop_asymptotic``) differed where c/d lies beyond ~745 lambda_e,
    which it covered whole with the same nodes, and where 0 < d <= 1e-12
    leaves a representable tail, which it dropped. Where the tail rounds
    to 1.0, so does the value, and the integral over [0, c/d] is skipped.
    """
    if c <= 0.0:
        return SopEvaluation(1.0, 0.0, 1.0, 0.0, True)
    upper = c / d if d > 0.0 else math.inf
    tail = math.exp(-upper / stats.lambda_e)
    if tail == 1.0:
        return SopEvaluation(1.0, 0.0, 1.0, upper, False)
    if tail == 0.0:
        upper = stats.lambda_e * _TAIL_LOG
    total = _outage_integral(a, b, c, d, upper, stats, snr_d_linear, numerics)
    return SopEvaluation(min(total + tail, 1.0), total, tail, upper, False)


def _piecewise_quad(f, edges) -> float:
    """Sum of the adaptive-quadrature integrals of f between consecutive ``edges``."""
    # imported here: only the *_reference twins integrate adaptively, and
    # scipy.integrate (with scipy.optimize) is most of the package's import time
    from scipy import integrate

    return sum(integrate.quad(f, a, b, limit=200, epsabs=1e-15, epsrel=1e-13)[0]
               for a, b in zip(edges, edges[1:]))


def _conditional_expectation(h, stats: ChannelStats, g: float, cuts) -> float:
    """E[h(g X1^2)] over X1 ~ N(sqrt(lambda), sigma^2), by adaptive quadrature.

    The range sqrt(lambda) +- sigma sqrt(2 ln(1/_TAIL_EPSILON)) is that of
    :func:`_rho_d_tail_limit`. It is split at X1 = 0, at the mean and at
    +-c for each amplitude c in ``cuts``, where h has a kink or a narrow
    feature.
    """
    mu, sigma = math.sqrt(stats.lambda_), math.sqrt(stats.sigma2)
    half = sigma * _TAIL_Z
    inner = sorted(x for x in {0.0, mu, *cuts, *(-c for c in cuts)} if abs(x - mu) < half)
    total = _piecewise_quad(lambda x: h(g * x * x) * math.exp(-0.5 * ((x - mu) / sigma) ** 2),
                            [mu - half, *inner, mu + half])
    return total / (sigma * math.sqrt(2.0 * math.pi))


def _outage_reference(a: float, b: float, c: float, d: float, stats: ChannelStats,
                      g: float) -> float:
    """Twin of :func:`_outage_integral` in the other order: E[exp(-t(rho_D)/lambda_e)].

    Given rho_D = rho, outage needs rho_E > t(rho) = max(c rho - b, 0)/(a + d rho),
    and cannot happen where a + d rho <= 0. So the conditional probability
    is 1 up to X1 = x_k = sqrt(b/(c g)), falls on a scale of at most
    sqrt(a lambda_e/(c g)) beyond it, and reaches 0 where a + d rho = 0.
    Where c <= 0 outage is certain, as in :func:`_outage_probability`.
    """
    if c <= 0.0:
        return 1.0
    lam_e = stats.lambda_e

    def outage_given(rho: float) -> float:
        excess, den = c * rho - b, a + d * rho
        if excess <= 0.0:
            return 1.0
        return math.exp(-excess / (den * lam_e)) if den > 0.0 else 0.0

    x_k = math.sqrt(b / (c * g))
    width = 10.0 * math.sqrt(a * lam_e / (c * g))
    cuts = [x_k, x_k - width, x_k + width]
    if d < 0.0:
        cuts.append(math.sqrt(a / (-d * g)))
    return min(_conditional_expectation(outage_given, stats, g, cuts), 1.0)


def sop_detail(params: SystemParams, stats: ChannelStats,
               numerics: NumericsConfig = DEFAULT_NUMERICS) -> SopEvaluation:
    """Secrecy outage probability, Chebyshev closed form."""
    th = theta_coefficients(params)
    return _outage_probability(th.theta1, th.vartheta, th.theta3, th.theta2, stats,
                               params.snr_d_linear, numerics)


def sop(params: SystemParams, stats: ChannelStats,
        numerics: NumericsConfig = DEFAULT_NUMERICS) -> float:
    """Secrecy outage probability Pr(R_S < c_th), in [0, 1]."""
    return sop_detail(params, stats, numerics).value


def sop_reference(params: SystemParams, stats: ChannelStats,
                  numerics: NumericsConfig = DEFAULT_NUMERICS) -> float:
    """Adaptive-quadrature twin of :func:`sop`, integrating over X1 last."""
    th = theta_coefficients(params)
    return _outage_reference(th.theta1, th.vartheta, th.theta3, th.theta2, stats,
                             params.snr_d_linear)


def sop_asymptotic(params: SystemParams, stats: ChannelStats,
                   numerics: NumericsConfig = DEFAULT_NUMERICS) -> float:
    """High-SNR outage approximation Pr(gamma_D/gamma_E < gamma_th).

    Only defined for theta4 > 0, where the ratio event has a finite
    saturation limit 1/theta4 for the eavesdropper gain.
    """
    th = _asymptotic_thetas(params)
    return _outage_probability(th.gamma_th, 0.0, 1.0, th.theta4, stats,
                               params.snr_d_linear, numerics).value


def sop_asymptotic_reference(params: SystemParams, stats: ChannelStats,
                             numerics: NumericsConfig = DEFAULT_NUMERICS) -> float:
    """Adaptive-quadrature twin of :func:`sop_asymptotic`, integrating over X1 last."""
    th = _asymptotic_thetas(params)
    return _outage_reference(th.gamma_th, 0.0, 1.0, th.theta4, stats, params.snr_d_linear)


def _rho_d_tail_limit(stats: ChannelStats, snr_d_linear: float) -> float:
    # P(rho_D > x) ~ Q((sqrt(x/g) - sqrt(lambda))/sigma); invert at _TAIL_EPSILON.
    return snr_d_linear * (math.sqrt(stats.lambda_) + math.sqrt(stats.sigma2) * _TAIL_Z) ** 2


def destination_rate(params: SystemParams, stats: ChannelStats,
                     numerics: NumericsConfig = DEFAULT_NUMERICS) -> float:
    """Ergodic rate of the destination, E[log2(1 + gamma_D)], bits/s/Hz.

    Chebyshev form of (1/ln 2) int (1 - F_{gamma_D}(x))/(1+x) dx
    over [0, 1/kappa_sum], with 1 - F_{gamma_D}(x) = P(rho_D > x/(1 -
    kappa_sum x)). With ideal destination hardware there is no
    saturation point; the integral is then truncated where the channel
    CCDF falls below ``_TAIL_EPSILON``.
    """
    kd = params.kappa_d_sum
    g = params.snr_d_linear
    upper = 1.0 / kd if kd > 0.0 else _rho_d_tail_limit(stats, g)
    x, w = _chebyshev_on_interval(numerics.quad_order, upper)
    ccdf = _law_at(x, 1.0, 0.0, 1.0, kd, stats, g, upper_tail=True)
    w *= ccdf
    w /= np.add(x, 1.0, out=x)
    return float(w.sum()) / math.log(2.0)


def e1_scaled(t: float) -> float:
    """Exponentially scaled exponential integral e^t E1(t) for t > 0.

    Stays finite for arbitrarily large t (where e^t alone would
    overflow); used by the eavesdropper ergodic-rate closed form whose
    arguments scale like 1/(kappa^2 lambda_E). Below t = 50 it is
    ``exp(t) * scipy.special.exp1(t)``; from there on the first 30 terms
    of the asymptotic series sum_k (-1)^k k!/t^(k+1) (Abramowitz and
    Stegun 5.1.51), the last below 1e-18 of the sum. ``ValueError`` unless t > 0
    (NaN included); e1_scaled(inf) is 0.
    """
    if not t > 0.0:
        raise ValueError(f"e1_scaled requires t > 0, got t={t}")
    if t < 50.0:
        return math.exp(t) * float(sc.exp1(t))
    term, total = 1.0 / t, 0.0
    for k in range(1, 31):
        total += term
        term *= -k / t
    return total


def eavesdropper_rate(stats: ChannelStats, kappa_e_sum: float) -> float:
    """Ergodic rate of the eavesdropper, E[log2(1 + gamma_E)], exact.

    Writing the SNDR CCDF P(gamma_E > x) = exp(-x/((1-k x) lambda_e))
    on [0, 1/k) and substituting y = x/(1 - k x) turns the rate integral
    into a difference of scaled exponential integrals:

        ln2 * R_E = e1s(1/((1+k) lambda_e)) - e1s(1/(k lambda_e)),

    with e1s(t) = e^t E1(t); the second term vanishes as k -> 0, giving
    the ideal-hardware rate continuously.
    """
    lam_e = stats.lambda_e
    total = e1_scaled(1.0 / ((1.0 + kappa_e_sum) * lam_e))
    if kappa_e_sum > 0.0:
        total -= e1_scaled(1.0 / (kappa_e_sum * lam_e))
    return total / math.log(2.0)


@dataclass(frozen=True)
class SecrecyCapacity:
    """Average secrecy capacity split into its two rate terms."""

    value: float
    r_d: float
    r_e: float


def avg_secrecy_capacity(params: SystemParams, stats: ChannelStats,
                         numerics: NumericsConfig = DEFAULT_NUMERICS) -> SecrecyCapacity:
    """Average secrecy capacity R_D - R_E (difference of ergodic rates).

    This is the unclipped definition, so it can go negative when the
    eavesdropper's link dominates; the Monte Carlo module estimates both
    this and the zero-clipped definition so the gap is measurable.

    At kappa = 0 (ideal hardware) the destination rate has no saturation
    point, and its integral is truncated where the discarded mass is
    below ``_TAIL_EPSILON``.
    """
    r_d = destination_rate(params, stats, numerics)
    r_e = eavesdropper_rate(stats, params.kappa_e_sum)
    return SecrecyCapacity(value=r_d - r_e, r_d=r_d, r_e=r_e)


def avg_secrecy_capacity_reference(params: SystemParams, stats: ChannelStats,
                                   numerics: NumericsConfig = DEFAULT_NUMERICS) -> SecrecyCapacity:
    """Adaptive-quadrature twin of :func:`avg_secrecy_capacity`.

    R_D = E[log2(1 + gamma_D)] over X1, and R_E the same expectation over
    rho_E = lambda_e s, s ~ Exp(1), rather than through the E1 form.
    """
    kd, ke, lam_e = params.kappa_d_sum, params.kappa_e_sum, stats.lambda_e
    r_d = _conditional_expectation(lambda rho: math.log2(1.0 + rho / (kd * rho + 1.0)),
                                   stats, params.snr_d_linear, ())
    r_e = _piecewise_quad(lambda s: math.log2(1.0 + lam_e * s / (ke * lam_e * s + 1.0))
                          * math.exp(-s), [0.0, math.inf])
    return SecrecyCapacity(value=r_d - r_e, r_d=r_d, r_e=r_e)
