"""Effective-channel statistics of the RIS-aided wiretap link.

The legitimate receiver sees the coherent sum X1 = sum_i f_Ri f_Di of N
Rayleigh amplitude products (phase-aligned by the surface), modelled as
Gaussian with mean N pi/4 and variance N (1 - pi^2/16); rho_D =
snr_d * X1^2 then follows a scaled noncentral chi-square law with one
degree of freedom. Its density is elementary; its CDF has both a
Marcum-Q closed form (a difference of two normal tails, through erfc),
which the closed forms of :mod:`.secrecy` read, and the paper's
incomplete-gamma series form. The eavesdropper sees an incoherent sum,
so rho_E = snr_e * X2^2 is exponential with mean lambda_e = snr_e * N.

The series sums a Poisson mixture of regularised incomplete gammas over
a window that leaves out less than ``_REL_TOL`` of the mixing mass; a
window of more than ``_MAX_TERMS`` terms raises :class:`ConvergenceError`
rather than return a truncated value. Everything here is a pure function
of immutable inputs; the window is cached per mixture mean and handed
out read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import special as sc

from ._schema import check_field_types

# Nothing calls these; perfbench/tracer.py wraps the names. They go when
# the tracer wraps _rho_d_law instead (ROADMAP item 4).
lower_inc_gamma = upper_inc_gamma = None

_FLOAT_MAX = np.finfo(float).max

# The Poisson window of the destination-law series: at most _MAX_TERMS
# terms, leaving out less than _REL_TOL of the mixing mass. The closed
# forms read the erfc route, but secrecy._law_at still asks for this
# window, so the cap also bounds their domain (N < 256): past it they
# return values off their twins by up to 1.8e-5, because the 100-node
# rule under-resolves there, and the ConvergenceError names that instead.
_MAX_TERMS = 200
_REL_TOL = 1e-12

SNR_DB_LIMIT = 3000.0  # 10**(dB/10) is a positive finite float within +-3000 dB


class ConvergenceError(ArithmeticError):
    """A series did not reach its tolerance within its cap on the number of terms."""

    def __init__(self, name: str, terms: int, residual: float):
        self.name = name
        self.terms = terms
        self.residual = residual
        super().__init__(
            f"{name}: no convergence after {terms} terms (residual {residual:.3e})"
        )


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


class _Window(NamedTuple):
    """The Poisson window of one mixture mean; every array is read-only.

    k          term indices k0..k1, w their Poisson(mean) weights, total = sum w
    a          orders a_j = j + 1/2 for j < k1 (the recurrence terms)
    log_gamma  gammaln(a_j + 1) for the same j
    prefix     C_j = sum_{k <= j} w_k for j < k1
    suffix     S_j = sum_{k > j} w_k for j < k1
    """

    k: np.ndarray
    w: np.ndarray
    total: float
    a: np.ndarray
    log_gamma: np.ndarray
    prefix: np.ndarray
    suffix: np.ndarray


@lru_cache(maxsize=128)
def _poisson_window(mean: float) -> _Window:
    """Indices k, Poisson(mean) weights and recurrence sums of the chi-square mixture.

    The window grows outward from the mode until each side leaves out
    less than _REL_TOL/2 of the mass (Ding, AS 275; Benton & Krishnamoorthy
    2003); the weights are formed in log space, so no power or factorial
    overflows at large mean. Needing more than _MAX_TERMS terms raises.

    It serves the series route and the closed forms' domain guard
    (secrecy._law_at). Entries are cached per mean, because finding the
    window costs some 800 incomplete gammas and every closed-form
    evaluation at the same N asks for the same one. The cache does not
    hold exceptions, so an oversized window raises ConvergenceError on
    every call. The suffix sums S_j are accumulated from the top end,
    never formed as total - C_j: that difference cancels in the deep
    upper tail.
    """
    mode = math.floor(mean)
    k = np.arange(max(mode - _MAX_TERMS, 0), mode + _MAX_TERMS + 1)
    half = 0.5 * _REL_TOL
    # P(K < k) = Q(k, mean) rises with k and P(K > k) = P(k+1, mean) falls
    starts = k[(k <= mode) & (sc.gammaincc(k, mean) < half)]
    ends = k[(k >= mode) & (sc.gammainc(k + 1, mean) < half)]
    if not (starts.size and ends.size and ends[0] - starts[-1] < _MAX_TERMS):
        lo = max(mode - _MAX_TERMS // 2, 0)
        left_out = sc.gammaincc(lo, mean) + sc.gammainc(lo + _MAX_TERMS, mean)
        raise ConvergenceError("rho_D mixture series", _MAX_TERMS, float(left_out))
    k = np.arange(starts[-1], ends[0] + 1)
    w = np.exp(k * math.log(mean) - mean - sc.gammaln(k + 1.0))
    a = k[:-1] + 0.5
    window = _Window(k, w, float(w.sum()), a, sc.gammaln(a + 1.0),
                     np.cumsum(w)[:-1], np.cumsum(w[::-1])[::-1][1:].copy())
    for arr in window:
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    return window


def _rho_d_law(x, stats: ChannelStats, snr_d_linear: float, method: str, upper: bool):
    """P(rho_D > x) if ``upper`` else P(rho_D <= x), for scalar or array x.

    ``marcum`` is the erfc form of Q_{1/2}, with a = sqrt(lambda/sigma^2),
    b = sqrt(x/(g sigma^2)), e- = erfc(|b - a|/sqrt2) and e+ =
    erfc((b + a)/sqrt2): F = (e- - e+)/2 below b = a, and 1 - F =
    (e- + e+)/2 from there on, each the complement of the other. Neither
    tail is thus taken as 1 minus the other; only F near x = 0, where e-
    and e+ meet, loses relative accuracy (see :func:`cdf_rho_d`).
    ``series`` is the Poisson
    mixture sum_k w_k P(a_k, u) (Q(a_k, u) for the upper tail) with
    a_k = k + 1/2 and u = x/(2 g sigma^2), summed by the adjacent-order
    recurrence P(a+1, u) = P(a, u) - t(a), Q(a+1, u) = Q(a, u) + t(a),
    t(a) = u^a e^-u / Gamma(a+1) (DLMF 8.8.5). Over the window k0..k1
    that gives

        sum_k w_k P(a_k, u) = P(a_k1, u) sum w + sum_{j<k1} t_j C_j,
        sum_k w_k Q(a_k, u) = Q(a_k0, u) sum w + sum_{j<k1} t_j S_j,

    with the prefix sums C_j = sum_{k<=j} w_k and suffix sums
    S_j = sum_{k>j} w_k of the cached window: one incomplete gamma per
    x and a sum of positive terms, with no cancellation in either tail.
    """
    if method not in ("marcum", "series"):
        raise ValueError(f"unknown method {method!r}, expected 'marcum' or 'series'")
    xs = np.asarray(x, dtype=float)
    if not (xs >= 0.0).all():  # NaN fails
        raise ValueError(f"{'ccdf' if upper else 'cdf'}_rho_d requires x >= 0, got x={x}")
    if method == "marcum":
        a = math.sqrt(stats.lambda_ / stats.sigma2)
        b = np.sqrt(xs / (snr_d_linear * stats.sigma2))
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        e_minus = sc.erfc(np.abs(b - a) * inv_sqrt2)
        e_plus = sc.erfc((b + a) * inv_sqrt2)
        below = b < a
        # F below the mean amplitude, 1 - F from it on: a difference or a
        # sum of the two tails, each formed directly
        tail = 0.5 * np.where(below, e_minus - e_plus, e_minus + e_plus)
        out = np.where(below == upper, 1.0 - tail, tail)
    else:
        win = _poisson_window(stats.lambda_ / (2.0 * stats.sigma2))
        # clamped so that x = inf gives t = 0 rather than exp(inf - inf)
        u = np.minimum(xs / (2.0 * snr_d_linear * stats.sigma2), _FLOAT_MAX)
        with np.errstate(divide="ignore"):  # log(0) = -inf, so t = 0 at u = 0
            log_u = np.log(u)
        t = np.exp(np.multiply.outer(log_u, win.a) - u[..., None] - win.log_gamma)
        if upper:
            end, coeff = sc.gammaincc(win.k[0] + 0.5, u), win.suffix
        else:
            end, coeff = sc.gammainc(win.k[-1] + 0.5, u), win.prefix
        t *= coeff
        # a row-wise sum, not a matrix product, so that every element sums
        # exactly as a scalar call would
        out = np.minimum(end * win.total + t.sum(axis=-1), 1.0)
        if upper:  # the window leaves out up to _REL_TOL; P(rho_D > 0) is 1
            out = np.where(xs > 0.0, out, 1.0)
    return float(out) if np.ndim(x) == 0 else out


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


def cdf_rho_d(x, stats: ChannelStats, snr_d_linear: float, method: str = "marcum"):
    """CDF of rho_D; the two methods are independent evaluation routes.

    ``marcum``  F(x) = 1 - Q_{1/2}(sqrt(lambda)/sigma, sqrt(x/(g sigma^2))),
                a difference of two erfc values below the mean amplitude,
                so the lower tail is formed directly (see
                :func:`_rho_d_law`); the closed forms read this route. It
                meets mpmath within 1e-13 relative where F >= 1e-7 (N = 1
                to 1024, snr_d -20 to 40 dB). Near x = 0 its two erfc
                values cancel, so the error there is a few ulps of
                erfc(a/sqrt2) rather than of F: at x = 1e-12 (N = 10,
                0 dB) it is 5e-20, which is 3.6e-10 of F = 1.3e-10.
    ``series``  Poisson mixture of regularised lower incomplete gammas,
                summed by the adjacent-order recurrence: one incomplete
                gamma per x plus the window's prefix sums (see
                :func:`_rho_d_law`). The window is cached per mixture
                mean.

    Both accept scalars or arrays and return the same shape.
    """
    return _rho_d_law(x, stats, snr_d_linear, method, upper=False)


def ccdf_rho_d(x, stats: ChannelStats, snr_d_linear: float, method: str = "marcum"):
    """P(rho_D > x), evaluated without the 1 - CDF cancellation.

    The series route sums upper incomplete gammas by the recurrence of
    :func:`_rho_d_law`, with suffix sums of the weights, so every term is
    positive and deep upper-tail values stay accurate; the marcum route
    is Q_{1/2}, a sum of two erfc values from the mean amplitude on, so
    the upper tail is formed directly and meets mpmath within 1e-12
    relative down to 1e-300 (N = 1 to 1024, snr_d -20 to 40 dB).
    Scalars or arrays, as in :func:`cdf_rho_d`.
    """
    return _rho_d_law(x, stats, snr_d_linear, method, upper=True)
