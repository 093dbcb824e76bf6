"""Scalar special functions, an independent oracle for the closed forms.

Self-contained (stdlib-only) implementations of the special functions
behind the secrecy closed forms: the incomplete gamma pair, the
modified Bessel function of the first kind, the order-1/2 Marcum
Q-function and the exponential integral on the negative axis. The
closed forms evaluate the destination law through ``scipy.special``
(array-valued, regularised); of this module they call only
:func:`e1_scaled`, and use :class:`SeriesControl` and
:class:`ConvergenceError` for series truncation.

Each routine carries an internal identity that the test suite checks
(gamma additivity, the cosh/sinh forms of half-order Bessel functions,
the erfc form of the half-order Marcum Q, the derivative of Ei), so the
kernel can be validated without trusting any single evaluation path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._schema import check_field_types

EULER_GAMMA = 0.57721566490153286061

_TINY = 1e-300  # Lentz underflow guard


class ConvergenceError(ArithmeticError):
    """A series or continued fraction did not reach the requested tolerance."""

    def __init__(self, name: str, terms: int, residual: float):
        self.name = name
        self.terms = terms
        self.residual = residual
        super().__init__(
            f"{name}: no convergence after {terms} terms (residual {residual:.3e})"
        )


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the infinite series used throughout.

    A sum stops once the current term falls below ``rel_tol`` times the
    partial sum in magnitude (a Poisson mixture, once less than
    ``rel_tol`` of its mixing mass is left out); ``max_terms`` is a hard
    cap that turns a stalled sum into a :class:`ConvergenceError`
    instead of a silent wrong answer.
    """

    max_terms: int = 200
    rel_tol: float = 1e-12

    def __post_init__(self):
        check_field_types(self)
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms!r}")
        if not 0.0 < self.rel_tol <= 1e-3:
            raise ValueError(f"rel_tol must be in (0, 1e-3], got {self.rel_tol!r}")


DEFAULT_SERIES = SeriesControl()


def _lower_gamma_series(s: float, x: float, ctl: SeriesControl) -> float:
    # Ascending series gamma(s,x) = x^s e^-x sum_m x^m / (s (s+1) ... (s+m)),
    # reliable for x < s + 1 where terms decay from the start.
    term = 1.0 / s
    total = term
    for m in range(1, ctl.max_terms + 1):
        term *= x / (s + m)
        total += term
        if abs(term) < ctl.rel_tol * abs(total):
            return math.exp(s * math.log(x) - x) * total
    raise ConvergenceError("lower_inc_gamma series", ctl.max_terms, abs(term / total))


def _upper_gamma_cf(s: float, x: float, ctl: SeriesControl) -> float:
    # Modified Lentz evaluation of the continued fraction
    # Gamma(s,x) = e^-x x^s / (x+1-s - 1(1-s)/(x+3-s - 2(2-s)/(x+5-s - ...))),
    # reliable for x >= s + 1.
    b = x + 1.0 - s
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, ctl.max_terms + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < ctl.rel_tol:
            return math.exp(s * math.log(x) - x) * h
    raise ConvergenceError("upper_inc_gamma fraction", ctl.max_terms, abs(delta - 1.0))


def lower_inc_gamma(s: float, x: float, ctl: SeriesControl = DEFAULT_SERIES) -> float:
    """Lower incomplete gamma function gamma(s, x), non-regularised.

    Uses the ascending series for x < s + 1 and the complement of the
    continued-fraction upper tail otherwise; the two regimes meet where
    both converge fast, and additivity gamma + Gamma = Gamma(s) holds to
    ``ctl.rel_tol``.
    """
    if s <= 0.0:
        raise ValueError(f"lower_inc_gamma requires s > 0, got s={s}")
    if x < 0.0:
        raise ValueError(f"lower_inc_gamma requires x >= 0, got x={x}")
    if x == 0.0:
        return 0.0
    if x < s + 1.0:
        return _lower_gamma_series(s, x, ctl)
    return math.gamma(s) - _upper_gamma_cf(s, x, ctl)


def upper_inc_gamma(s: float, x: float, ctl: SeriesControl = DEFAULT_SERIES) -> float:
    """Upper incomplete gamma function Gamma(s, x), non-regularised."""
    if s <= 0.0:
        raise ValueError(f"upper_inc_gamma requires s > 0, got s={s}")
    if x < 0.0:
        raise ValueError(f"upper_inc_gamma requires x >= 0, got x={x}")
    if x == 0.0:
        return math.gamma(s)
    if x < s + 1.0:
        return math.gamma(s) - _lower_gamma_series(s, x, ctl)
    return _upper_gamma_cf(s, x, ctl)


def bessel_i(nu: float, z: float, ctl: SeriesControl = DEFAULT_SERIES) -> float:
    """Modified Bessel function I_nu(z) for nu > -1, z >= 0 (ascending series).

    I_nu(z) = sum_k (z/2)^(nu+2k) / (k! Gamma(nu+k+1)).

    For -1 < nu < 0 the k = 0 term diverges as z -> 0 (I_{-1/2}(z) grows
    like sqrt(2/(pi z))); callers that need products such as
    x^a * I_{-1/2}(sqrt(x)...) near x = 0 should work with the series
    term-by-term rather than multiplying the two limits together.
    """
    if nu <= -1.0:
        raise ValueError(f"bessel_i requires nu > -1, got nu={nu}")
    if z < 0.0:
        raise ValueError(f"bessel_i requires z >= 0, got z={z}")
    if z == 0.0:
        if nu == 0.0:
            return 1.0
        return 0.0 if nu > 0.0 else math.inf
    q = 0.25 * z * z
    term = math.exp(nu * math.log(0.5 * z) - math.lgamma(nu + 1.0))
    total = term
    for k in range(1, ctl.max_terms + 1):
        term *= q / (k * (nu + k))
        total += term
        # Terms grow until k ~ z/2, then decay factorially; only stop in
        # the decaying regime.
        if term < ctl.rel_tol * total and k > 0.5 * z:
            return total
    raise ConvergenceError("bessel_i series", ctl.max_terms, term / total)


def marcum_q_half(a: float, b: float) -> float:
    """Marcum Q-function of order 1/2.

    Q_{1/2}(a, b) = (erfc((b-a)/sqrt2) + erfc((b+a)/sqrt2)) / 2, i.e. the
    probability that |X| > b for X ~ N(a, 1). Exact (no series), which
    makes it an independent cross-check of the incomplete-gamma series
    representation of the same CDF.
    """
    if a < 0.0 or b < 0.0:
        raise ValueError(f"marcum_q_half requires a, b >= 0, got a={a}, b={b}")
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return 0.5 * (math.erfc((b - a) * inv_sqrt2) + math.erfc((b + a) * inv_sqrt2))


def _e1_cf(t: float, ctl: SeriesControl) -> float:
    # Modified Lentz evaluation of e^t E1(t) = 1/(t+1- 1/(t+3- 4/(t+5- ...))),
    # reliable for t >= 1.
    b = t + 1.0
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, ctl.max_terms + 1):
        an = -float(i * i)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < ctl.rel_tol:
            return h
    raise ConvergenceError("e1 fraction", ctl.max_terms, abs(delta - 1.0))


def _e1_series(t: float, ctl: SeriesControl) -> float:
    # E1(t) = -euler - ln t + sum_k (-1)^(k+1) t^k / (k k!), for small t.
    term = 1.0
    total = 0.0
    for k in range(1, ctl.max_terms + 1):
        term *= -t / k
        contrib = -term / k
        total += contrib
        if abs(contrib) < ctl.rel_tol * max(abs(total), 1e-30):
            return -EULER_GAMMA - math.log(t) + total
    raise ConvergenceError("e1 series", ctl.max_terms, abs(contrib))


def e1_scaled(t: float, ctl: SeriesControl = DEFAULT_SERIES) -> float:
    """Exponentially scaled exponential integral e^t E1(t) for t > 0.

    Stays finite for arbitrarily large t (where e^t alone would
    overflow); used by the eavesdropper ergodic-rate closed form whose
    arguments scale like 1/(kappa^2 lambda_E).
    """
    if t <= 0.0:
        raise ValueError(f"e1_scaled requires t > 0, got t={t}")
    if t < 1.0:
        return math.exp(t) * _e1_series(t, ctl)
    return _e1_cf(t, ctl)


def exp_integral_ei(x: float, ctl: SeriesControl = DEFAULT_SERIES) -> float:
    """Exponential integral Ei(x) for x < 0 (equal to -E1(-x), always < 0).

    Convergent series below |x| = 1, Lentz continued fraction above;
    only negative arguments arise in the secrecy-rate closed forms.
    """
    if x >= 0.0:
        raise ValueError(f"exp_integral_ei requires x < 0, got x={x}")
    t = -x
    if t < 1.0:
        return -_e1_series(t, ctl)
    return -math.exp(-t) * _e1_cf(t, ctl)
