"""Effective-channel statistics of the RIS-aided wiretap link.

The legitimate receiver sees the coherent sum X1 = sum_i f_Ri f_Di of N
Rayleigh amplitude products (phase-aligned by the surface), modelled as
Gaussian with mean N pi/4 and variance N (1 - pi^2/16); rho_D =
snr_d * X1^2 then follows a scaled noncentral chi-square law with one
degree of freedom. Its density is elementary, and its CDF is the
Marcum-Q form, a difference of two normal tails through erfc, which the
closed forms of :mod:`.secrecy` read; neither has a term cap. The
eavesdropper sees an incoherent sum, so rho_E = snr_e * X2^2 is
exponential with mean lambda_e = snr_e * N.

Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

from ._schema import check_field_types

# Nothing calls these; perfbench/tracer.py wraps the names. They go when
# the tracer wraps _rho_d_law instead (ROADMAP item 4).
lower_inc_gamma = upper_inc_gamma = None

SNR_DB_LIMIT = 3000.0  # 10**(dB/10) is a positive finite float within +-3000 dB


class ConvergenceError(ArithmeticError):
    """A numerical rule does not reach its tolerance with ``terms`` terms.

    ``residual`` is its measured error, or NaN where none was measured
    (the message then leaves it out). The closed forms of :mod:`.secrecy`
    raise it past N = 245 (``secrecy._MAX_MEAN``), where their quadrature
    rule no longer resolves the destination law; ``terms`` is then the
    rule's node count.
    """

    def __init__(self, name: str, terms: int, residual: float):
        self.name = name
        self.terms = terms
        self.residual = residual
        detail = "" if math.isnan(residual) else f" (residual {residual:.3e})"
        super().__init__(f"{name}: no convergence after {terms} terms{detail}")


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class LinkGeometry:
    """Physical scenario behind the average SNRs.

    p_s      transmit power
    n0       noise power
    d_sr     source-to-surface distance [m]
    d_rd     surface-to-destination distance [m]
    d_re     surface-to-eavesdropper distance [m]
    chi      path-loss exponent
    """

    p_s: float
    n0: float
    d_sr: float
    d_rd: float
    d_re: float
    chi: float

    def __post_init__(self):
        check_field_types(self)
        for name in ("p_s", "n0", "d_sr", "d_rd", "d_re"):
            v = getattr(self, name)
            if not 0.0 < v < math.inf:  # NaN fails
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        if not math.isfinite(self.chi):
            raise ValueError(f"chi must be finite, got {self.chi}")

    # 10 log10(p_s / ((d_sr d_x)^chi n0)) in the log domain, where no
    # power of a distance can overflow
    def snr_d_db(self) -> float:
        return self._snr_db(self.d_rd)

    def snr_e_db(self) -> float:
        return self._snr_db(self.d_re)

    def _snr_db(self, d_second: float) -> float:
        return 10.0 * (math.log10(self.p_s) - math.log10(self.n0)
                       - self.chi * (math.log10(self.d_sr) + math.log10(d_second)))


@dataclass(frozen=True)
class SystemParams:
    """Scenario definition shared by the analytical and simulation paths.

    Hardware-impairment levels are the *squared* kappa values; per link
    the transmit and receive levels add in the SNDR denominator, which
    therefore saturates at 1/(kappa_t^2 + kappa_r^2).
    """

    n_elements: int
    kappa_d_t2: float = 0.0
    kappa_d_r2: float = 0.0
    kappa_e_t2: float = 0.0
    kappa_e_r2: float = 0.0
    snr_d_db: float = 0.0
    snr_e_db: float = 0.0
    c_th: float = 1.0
    geometry: LinkGeometry | None = None

    def __post_init__(self):
        check_field_types(self)
        if self.n_elements < 1:
            raise ValueError(f"n_elements must be a positive integer, got {self.n_elements!r}")
        for name in ("snr_d_db", "snr_e_db"):
            v = getattr(self, name)
            if not -SNR_DB_LIMIT <= v <= SNR_DB_LIMIT:  # NaN fails
                raise ValueError(f"{name} must be finite and within "
                                 f"+-{SNR_DB_LIMIT:g} dB, got {v}")
        for name in ("kappa_d_t2", "kappa_d_r2", "kappa_e_t2", "kappa_e_r2"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {v}")
        if not 0.0 < self.c_th < 1024.0:  # 2**c_th is finite exactly below 1024
            raise ValueError(f"c_th must be > 0 and < 1024 (2**c_th finite), got {self.c_th}")
        if self.geometry is not None:
            # The dB fields are the single source of truth; a supplied
            # geometry must reproduce them exactly (up to rounding).
            for name, want in (
                ("snr_d_db", self.geometry.snr_d_db()),
                ("snr_e_db", self.geometry.snr_e_db()),
            ):
                have = getattr(self, name)
                if not abs(have - want) <= 1e-9 * max(1.0, abs(want)):  # NaN fails
                    raise ValueError(
                        f"{name}={have} inconsistent with geometry "
                        f"(path-loss value {want})"
                    )

    @classmethod
    def from_geometry(cls, n_elements: int, geometry: LinkGeometry, *,
                      c_th: float = 1.0, **kappas) -> "SystemParams":
        """Build params with the SNRs derived from the path-loss geometry."""
        return cls(
            n_elements=n_elements,
            snr_d_db=geometry.snr_d_db(),
            snr_e_db=geometry.snr_e_db(),
            c_th=c_th,
            geometry=geometry,
            **kappas,
        )

    @property
    def kappa_d_sum(self) -> float:
        return self.kappa_d_t2 + self.kappa_d_r2

    @property
    def kappa_e_sum(self) -> float:
        return self.kappa_e_t2 + self.kappa_e_r2

    @property
    def snr_d_linear(self) -> float:
        return db_to_linear(self.snr_d_db)

    @property
    def snr_e_linear(self) -> float:
        return db_to_linear(self.snr_e_db)

    @property
    def gamma_th(self) -> float:
        return 2.0 ** self.c_th


@dataclass(frozen=True)
class ChannelStats:
    """Derived distribution parameters of the two effective channels.

    lambda_    squared mean of X1, (N pi / 4)^2
    sigma2     variance of X1, N (1 - pi^2 / 16)
    lambda_e   mean of rho_E, snr_e_linear * N
    """

    lambda_: float
    sigma2: float
    lambda_e: float

    def __post_init__(self):
        for name in ("lambda_", "sigma2", "lambda_e"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")


def derive_stats(params: SystemParams) -> ChannelStats:
    """Channel statistics from the scenario parameters.

    The variance of a single unit-power Rayleigh amplitude product is
    1 - pi^2/16, so the coherent sum of n_elements of them has variance
    N (1 - pi^2/16).
    """
    n = params.n_elements
    lam = (n * math.pi / 4.0) ** 2
    sigma2 = n * (1.0 - math.pi ** 2 / 16.0)
    return ChannelStats(lambda_=lam, sigma2=sigma2, lambda_e=params.snr_e_linear * n)


def _rho_d_law(x, stats: ChannelStats, snr_d_linear: float, upper: bool):
    """P(rho_D > x) if ``upper`` else P(rho_D <= x), for scalar or array x.

    The erfc form of Q_{1/2}, with a = sqrt(lambda/sigma^2),
    b = sqrt(x/(g sigma^2)), e- = erfc(|b - a|/sqrt2) and e+ =
    erfc((b + a)/sqrt2): F = (e- - e+)/2 below b = a, and 1 - F =
    (e- + e+)/2 from there on, each the complement of the other. Neither
    tail is thus taken as 1 minus the other; only F near x = 0, where e-
    and e+ meet, loses relative accuracy (see :func:`cdf_rho_d`).

    The arithmetic runs in place on two arrays of its own, at least 1-d,
    so it never writes into x, and a 100-node call, whose cost is numpy's
    per-call overhead, makes few calls. Each element keeps the operation
    order of the plain expression: b < a is exactly d = b - a < 0, since
    two unequal finite doubles never subtract to 0, and e- + (-e+) is
    e- - e+.
    """
    xs = np.asarray(x, dtype=float)
    if not (xs >= 0.0).all():  # NaN fails
        raise ValueError(f"{'ccdf' if upper else 'cdf'}_rho_d requires x >= 0, got x={x}")
    a = math.sqrt(stats.lambda_ / stats.sigma2)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    b = np.divide(xs, snr_d_linear * stats.sigma2, out=np.empty(xs.shape or (1,)))
    np.sqrt(b, out=b)
    d = b - a
    below = d < 0.0
    e_plus = sc.erfc(np.multiply(np.add(b, a, out=b), inv_sqrt2, out=b), out=b)
    e_minus = sc.erfc(np.multiply(np.abs(d, out=d), inv_sqrt2, out=d), out=d)
    # F below the mean amplitude, 1 - F from it on: a difference or a
    # sum of the two tails, each formed directly
    np.negative(e_plus, out=e_plus, where=below)
    tail = np.multiply(np.add(e_minus, e_plus, out=e_minus), 0.5, out=e_minus)
    np.subtract(1.0, tail, out=tail, where=below if upper else ~below)
    return tail.item() if xs.ndim == 0 else tail


def pdf_rho_d(x: float, stats: ChannelStats, snr_d_linear: float) -> float:
    """Density of rho_D = snr_d * X1^2, with X1 Gaussian of mean mu = sqrt(lambda).

    Both amplitudes +-s, s = sqrt(x/g), square to x, so with phi the
    standard normal density

        f(x) = [phi((s - mu)/sigma) + phi((s + mu)/sigma)] / (2 sigma sqrt(g x)).

    Elementary, so it has no term cap and holds for every N; each tail is
    formed directly, within 2.1e-13 relative of mpmath (N = 1 to 1024,
    snr_d -20 to 40 dB, mu + z sigma for |z| <= 30). The x^{-1/2}
    singularity at the origin is integrable; x = 0 gives inf.
    """
    if not x >= 0.0:  # NaN fails
        raise ValueError(f"pdf_rho_d requires x >= 0, got x={x}")
    if x == 0.0:
        return math.inf
    mu, sigma = math.sqrt(stats.lambda_), math.sqrt(stats.sigma2)
    s = math.sqrt(x / snr_d_linear)
    lo, hi = (s - mu) / sigma, (s + mu) / sigma
    # sqrt(g x) = g s, which does not overflow where g x would
    return ((math.exp(-0.5 * lo * lo) + math.exp(-0.5 * hi * hi))
            / (2.0 * sigma * math.sqrt(2.0 * math.pi) * snr_d_linear * s))


def cdf_rho_d(x, stats: ChannelStats, snr_d_linear: float):
    """CDF of rho_D, F(x) = 1 - Q_{1/2}(sqrt(lambda)/sigma, sqrt(x/(g sigma^2))).

    A difference of two erfc values below the mean amplitude, so the
    lower tail is formed directly (see :func:`_rho_d_law`); the closed
    forms read it. It meets mpmath within 1e-13 relative where F >= 1e-7
    (N = 1 to 1024, snr_d -20 to 40 dB). Near x = 0 its two erfc values
    cancel, so the error there is a few ulps of erfc(a/sqrt2) rather
    than of F: at x = 1e-12 (N = 10, 0 dB) it is 5e-20, which is 3.6e-10
    of F = 1.3e-10. Accepts a scalar or an array and returns the same
    shape.
    """
    return _rho_d_law(x, stats, snr_d_linear, upper=False)


def ccdf_rho_d(x, stats: ChannelStats, snr_d_linear: float):
    """P(rho_D > x), evaluated without the 1 - CDF cancellation.

    Q_{1/2}, a sum of two erfc values from the mean amplitude on, so the
    upper tail is formed directly and meets mpmath within 1e-12 relative
    down to 1e-300 (N = 1 to 1024, snr_d -20 to 40 dB). Scalars or
    arrays, as in :func:`cdf_rho_d`.
    """
    return _rho_d_law(x, stats, snr_d_linear, upper=True)
