"""Closed-form secrecy metrics vs their quadrature references and invariants.

The references are in turn checked against the arbitrary-precision values
of ``oracle`` (tests/oracle.py), and the oracle against Monte Carlo of the
Gaussian-sum model.
"""

import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import oracle
from ris_secrecy import secrecy
from ris_secrecy.channel import (
    ChannelStats,
    ConvergenceError,
    SystemParams,
    ccdf_rho_d,
    cdf_rho_d,
    derive_stats,
)
from ris_secrecy.montecarlo import McConfig, model_law_chunks, simulate_metrics
from ris_secrecy.secrecy import (
    DEFAULT_NUMERICS,
    NumericsConfig,
    UnsupportedRegimeError,
    _chebyshev_on_interval,
    _chebyshev_rule,
    _law_at,
    _outage_integral,
    avg_secrecy_capacity,
    avg_secrecy_capacity_reference,
    destination_rate,
    e1_scaled,
    eavesdropper_rate,
    sop,
    sop_asymptotic,
    sop_asymptotic_reference,
    sop_detail,
    sop_reference,
    theta_coefficients,
)
from ris_secrecy.sweeps import ROUTES


def params_for(n=5, snr_d_db=10.0, snr_e_db=-10.0, k2=0.01, c_th=1.0, **kw):
    base = dict(kappa_d_t2=k2, kappa_d_r2=k2, kappa_e_t2=k2, kappa_e_r2=k2)
    base.update(kw)
    return SystemParams(n_elements=n, snr_d_db=snr_d_db, snr_e_db=snr_e_db,
                        c_th=c_th, **base)


# --- theta coefficients ------------------------------------------------------

def test_theta_zero_impairment():
    th = theta_coefficients(params_for(k2=0.0, c_th=1.0))
    assert (th.vartheta, th.theta1, th.theta2, th.theta3, th.theta4) == (1.0, 2.0, 0.0, 1.0, 0.0)
    assert th.gamma_th == 2.0


def test_theta_symmetric_one_percent():
    th = theta_coefficients(params_for(k2=0.01, c_th=1.0))
    assert th.vartheta == 1.0
    assert th.theta1 == pytest.approx(2.02, abs=1e-15)
    assert th.theta2 == pytest.approx(0.0204, abs=1e-15)
    assert th.theta3 == pytest.approx(0.98, abs=1e-15)
    assert th.theta4 == pytest.approx(0.02, abs=1e-15)
    assert 1.0 / th.theta4 == pytest.approx(50.0, rel=1e-12)


def test_theta_vanishing_target_rate_limit():
    th = theta_coefficients(params_for(c_th=1e-9))
    assert th.gamma_th == pytest.approx(1.0, abs=1e-8)
    assert 0.0 < th.vartheta < 1e-8


# --- secrecy outage probability ----------------------------------------------

GRID = [(n, gd, ge) for n in (5, 10) for gd in (0.0, 10.0, 20.0) for ge in (-10.0, 0.0)]


@pytest.mark.parametrize("n,gd,ge", GRID)
def test_sop_matches_adaptive_quadrature(n, gd, ge):
    p = params_for(n=n, snr_d_db=gd, snr_e_db=ge)
    stats = derive_stats(p)
    assert abs(sop(p, stats) - sop_reference(p, stats)) < 1e-6


# (sop, sop_asymptotic, asc) at the GRID points and the fig2 base at N=96,
# as an earlier incomplete-gamma series form of the law evaluated them,
# except the asc values at snr_e = 0 dB, N=10 and N=96: those are the erfc
# law's, 1.4e-12 to 3.5e-12 above the series', which left out up to 1e-12
# of the mixing mass (see test_closed_forms_are_their_quadrature_rule_exactly).
FROZEN = {
    (5, 0.0, -10.0): (0.03859599205068675, 0.019180931616858393, 2.982867296298715),
    (5, 0.0, 0.0): (0.3568262023401368, 0.31783680282597254, 1.455409884469053),
    (5, 10.0, -10.0): (0.005246221644889901, 0.0031894157045135227, 4.599073966720361),
    (5, 10.0, 0.0): (0.03064742854964658, 0.026920559721588112, 3.0716165548908503),
    (5, 20.0, -10.0): (0.0014679433493161272, 0.0009284441772860679, 5.063808441267518),
    (5, 20.0, 0.0): (0.004170752862187167, 0.0037430755939624467, 3.536351029438036),
    (10, 0.0, -10.0): (0.0014011654677169394, 0.0008650312760608755, 3.9038084717126877),
    (10, 0.0, 0.0): (0.19727301268734027, 0.1811795152150139, 2.0639484186517443),
    (10, 10.0, -10.0): (8.955823179268203e-05, 6.427288859656583e-05, 4.691680038863745),
    (10, 10.0, 0.0): (0.020248221069426843, 0.017345874968667296, 2.851819985802801),
    (10, 20.0, -10.0): (2.2707745304432514e-05, 1.691149313467272e-05, 4.8137486341762425),
    (10, 20.0, 0.0): (0.009155083471574186, 0.007567028352825289, 2.9738885811152986),
    (96, 10.0, -10.0): (0.006770767894168361, 0.00552192869827094, 3.0261017200540583),
}


@pytest.mark.parametrize("n,gd,ge", sorted(FROZEN))
def test_closed_forms_frozen_values(n, gd, ge):
    p = params_for(n=n, snr_d_db=gd, snr_e_db=ge)
    stats = derive_stats(p)
    got = (sop(p, stats), sop_asymptotic(p, stats), avg_secrecy_capacity(p, stats).value)
    for value, want in zip(got, FROZEN[n, gd, ge]):
        assert value == pytest.approx(want, rel=0.0, abs=1e-12)


def _exact_law(arg: float, stats, g: float, upper_tail: bool):
    """rho_D's CCDF, or its CDF, at the float ``arg`` from mpmath's erfc (40 digits)."""
    with mp.workdps(40):
        a = mp.sqrt(mp.mpf(stats.lambda_) / stats.sigma2)
        b = mp.sqrt(mp.mpf(arg) / (mp.mpf(g) * stats.sigma2))
        ccdf = (mp.erfc((b - a) / mp.sqrt(2)) + mp.erfc((b + a) / mp.sqrt(2))) / 2
        return ccdf if upper_tail else 1 - ccdf


def _exact_rule_sum(upper, coeffs, weight, stats, g, upper_tail):
    """The closed forms' 100-node sum of weight(x) * law((a x + b)/(c - d x)), law exact."""
    x, w = _chebyshev_on_interval(DEFAULT_NUMERICS.quad_order, upper)
    a, b, c, d = coeffs
    denom = c - d * x
    with np.errstate(divide="ignore"):
        arg = (a * x + b) / denom  # the float arguments that _law_at forms
    dead = mp.mpf(0 if upper_tail else 1)
    with mp.workdps(40):
        return mp.fsum(mp.mpf(wi) * weight(mp.mpf(xi))
                       * (_exact_law(float(ai), stats, g, upper_tail) if live else dead)
                       for xi, wi, ai, live in zip(x, w, arg, denom > 0.0))


@pytest.mark.parametrize("n,gd,ge", sorted(FROZEN))
def test_closed_forms_are_their_quadrature_rule_exactly(n, gd, ge):
    # each closed form is its 100-node rule with only the rounding of doubles:
    # the same sum with an exact law lies within 1e-14 (the rate) and 1e-15
    # (the outage integrals)
    p = params_for(n=n, snr_d_db=gd, snr_e_db=ge)
    stats, g, kd = derive_stats(p), p.snr_d_linear, p.kappa_d_sum
    want = _exact_rule_sum(1.0 / kd, (1.0, 0.0, 1.0, kd), lambda x: 1 / (1 + x),
                           stats, g, upper_tail=True) / mp.log(2)
    assert abs(destination_rate(p, stats) - want) < 1e-14
    lam_e = mp.mpf(stats.lambda_e)
    th = theta_coefficients(p)
    for coeffs in ((th.theta1, th.vartheta, th.theta3, th.theta2),
                   (th.gamma_th, 0.0, 1.0, th.theta4)):
        ev = secrecy._outage_probability(*coeffs, stats, g, DEFAULT_NUMERICS)
        want = _exact_rule_sum(ev.upper_limit, coeffs, lambda x: mp.exp(-x / lam_e) / lam_e,
                               stats, g, upper_tail=False)
        assert abs(ev.integral - want) < 1e-15, coeffs


LARGE_N_CASES = [
    pytest.param(n, metric, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="quad_order=100 under-resolves the rate integral at N>=96"))
    if (n, metric) == (128, "asc") else (n, metric)
    for n in (128, 256, 1024) for metric in ("sop", "sop_asymptotic", "asc")
]


@pytest.mark.parametrize("n,metric", LARGE_N_CASES)
def test_large_n_value_or_named_error(n, metric):
    # a closed form either agrees with its reference or names its failure,
    # and never overflows however large N is
    p = params_for(n=n)
    stats = derive_stats(p)
    route = ROUTES[metric]
    try:
        value = route.closed_form(p, stats, DEFAULT_NUMERICS)
    except (ConvergenceError, UnsupportedRegimeError):
        return
    assert abs(value - route.twin(p, stats, DEFAULT_NUMERICS)) < 1e-6


@pytest.mark.parametrize("metric,at_245", [
    ("sop", 0.14082), ("sop_asymptotic", 0.12999), ("asc", 2.15988)])
def test_closed_forms_domain_ends_between_n245_and_n246(metric, at_245):
    # the fig2 base point: N=245 (mixture mean 197.218) gives a value, N=246
    # (198.023) the ConvergenceError of the bound between them, on every call
    route = ROUTES[metric]
    p = params_for(n=245)
    assert route.closed_form(p, derive_stats(p), DEFAULT_NUMERICS) == pytest.approx(
        at_245, rel=0.0, abs=5e-6)
    p = params_for(n=246)
    for _ in range(2):
        with pytest.raises(ConvergenceError, match="N = 245"):
            route.closed_form(p, derive_stats(p), DEFAULT_NUMERICS)


_EDGE = secrecy._MAX_MEAN


@pytest.mark.parametrize("mean", [
    196.5537, 196.5547, 196.7871, 197.3546, 198.1265, 198.1538,
    math.nextafter(_EDGE, 0.0), _EDGE, math.nextafter(_EDGE, math.inf)])
def test_closed_forms_domain_is_monotone_in_the_mixture_mean(mean):
    # a hand-built ChannelStats (sigma^2 = 1, lambda = 2 mean) meets one
    # edge: a value at or below the bound, ConvergenceError above it. The
    # first six means are where the old Poisson-window scan flipped
    stats = ChannelStats(lambda_=2.0 * mean, sigma2=1.0, lambda_e=1.0)
    assert stats.lambda_ / (2.0 * stats.sigma2) == mean
    p = params_for(n=245)
    x, _ = _chebyshev_on_interval(100, 1e3)
    if mean <= _EDGE:
        assert np.isfinite(_law_at(x, 1.0, 0.0, 1.0, 0.02, stats, 10.0, False)).all()
        assert 0.0 <= sop(p, stats) <= 1.0
    else:
        with pytest.raises(ConvergenceError, match="N = 245"):
            _law_at(x, 1.0, 0.0, 1.0, 0.02, stats, 10.0, False)
        with pytest.raises(ConvergenceError, match="N = 245"):
            sop(p, stats)


def test_closed_forms_domain_is_n_up_to_245():
    # derive_stats' mixture mean grows with N, so its points raise exactly
    # from N = 246 on
    raised = []
    for n in range(1, 1025):
        p = params_for(n=n)
        try:
            sop(p, derive_stats(p))
        except ConvergenceError:
            raised.append(n)
    assert raised == list(range(246, 1025))


def test_sop_low_snr_tends_to_one():
    p = params_for(snr_d_db=-60.0)
    stats = derive_stats(p)
    assert sop(p, stats) > 1.0 - 1e-4


def test_sop_tail_mass_is_included():
    # lambda_e large enough that the certain-outage region carries mass
    p = params_for(n=10, snr_d_db=20.0, snr_e_db=0.0)
    stats = derive_stats(p)
    ev = sop_detail(p, stats)
    assert ev.tail_mass == pytest.approx(math.exp(-ev.upper_limit / stats.lambda_e), rel=1e-12)
    assert ev.tail_mass > 1e-3
    assert ev.value == pytest.approx(ev.integral + ev.tail_mass, rel=1e-12)


def test_sop_ideal_hardware_degenerate_region():
    # theta2 = 0: integration runs over the truncated exponential range
    p = params_for(k2=0.0)
    stats = derive_stats(p)
    ev = sop_detail(p, stats)
    assert not ev.target_saturated
    assert ev.tail_mass == 0.0
    assert abs(ev.value - sop_reference(p, stats)) < 1e-6


def test_sop_asymptotic_skips_the_integral_where_the_tail_is_certain(monkeypatch):
    # kappa^2 = 0.4 on both levels and c_th = 1022.5 put the high-SNR
    # event's limit 1/theta4 at 1.97e-308, below which the eavesdropper
    # law holds no representable mass: exp(-limit/lambda_e) rounds to 1
    p = params_for(n=5, snr_d_db=10.0, snr_e_db=-10.0, k2=0.4, c_th=1022.5)
    stats = derive_stats(p)
    assert 0.0 < 1.0 / theta_coefficients(p).theta4 < 1e-307
    integrated = []
    monkeypatch.setattr(secrecy, "_outage_integral", lambda *args: integrated.append(args))
    assert sop_asymptotic(p, stats) == 1.0
    assert sop(p, stats) == 1.0  # theta3 <= 0: saturated before any limit
    assert integrated == []


def test_sop_unreachable_target_saturates_to_one():
    # vartheta * kappa_d_sum >= 1 makes the target unreachable at any SNR
    p = params_for(k2=0.05, c_th=4.0)  # theta3 = 1 - 15*0.1 < 0
    stats = derive_stats(p)
    ev = sop_detail(p, stats)
    assert ev.target_saturated
    assert ev.value == 1.0


def test_sop_quad_order_doubling_stability():
    p = params_for(n=5, snr_d_db=10.0, snr_e_db=0.0)
    stats = derive_stats(p)
    for q in (200, 400):
        a = sop(p, stats, NumericsConfig(quad_order=q))
        b = sop(p, stats, NumericsConfig(quad_order=2 * q))
        assert abs(a - b) < 1e-7


def test_sop_monotone_trends():
    stats_cache = {}

    def sop_at(n, gd, ge, c_th=1.0):
        p = params_for(n=n, snr_d_db=gd, snr_e_db=ge, c_th=c_th)
        key = (n, ge)
        if key not in stats_cache:
            stats_cache[key] = derive_stats(p)
        return sop(p, stats_cache[key])

    grid = np.arange(-10.0, 31.0, 2.0)
    for ge in (-10.0, 0.0):
        vals = [sop_at(5, g, ge) for g in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))  # decreasing in snr_d
    # element gain at the weak-eavesdropper operating point; for strong
    # eavesdroppers larger N also scales lambda_e and the ordering can
    # flip at high SNR, so the claim is scoped to this setting
    vals5 = [sop_at(5, g, -10.0) for g in grid]
    vals10 = [sop_at(10, g, -10.0) for g in grid]
    assert all(v10 < v5 for v5, v10 in zip(vals5, vals10))
    # non-decreasing in eavesdropper SNR and in target rate
    assert sop_at(5, 10.0, 0.0) >= sop_at(5, 10.0, -10.0)
    assert sop_at(5, 10.0, -10.0, c_th=2.0) >= sop_at(5, 10.0, -10.0, c_th=1.0)


@given(st.integers(min_value=1, max_value=32),
       st.floats(min_value=0.0, max_value=0.2),
       st.floats(min_value=-30.0, max_value=30.0),
       st.floats(min_value=-30.0, max_value=30.0),
       st.floats(min_value=0.1, max_value=4.0))
@settings(max_examples=60, deadline=None)
def test_sop_stays_in_unit_interval(n, k2, gd, ge, c_th):
    p = params_for(n=n, snr_d_db=gd, snr_e_db=ge, k2=k2, c_th=c_th)
    stats = derive_stats(p)
    value = sop(p, stats, NumericsConfig(quad_order=24))
    assert 0.0 <= value <= 1.0


# --- asymptotic secrecy outage -----------------------------------------------

@pytest.mark.parametrize("n,gd,ge", GRID)
def test_sop_asymptotic_matches_adaptive_quadrature(n, gd, ge):
    p = params_for(n=n, snr_d_db=gd, snr_e_db=ge)
    stats = derive_stats(p)
    assert abs(sop_asymptotic(p, stats) - sop_asymptotic_reference(p, stats)) < 1e-6


def test_sop_asymptotic_order_insensitivity():
    p = params_for()
    stats = derive_stats(p)
    a = sop_asymptotic(p, stats, NumericsConfig(quad_order=50))
    b = sop_asymptotic(p, stats, NumericsConfig(quad_order=400))
    assert abs(a - b) < 1e-6


def test_sop_asymptotic_requires_positive_theta4():
    p = params_for(kappa_e_t2=0.05, kappa_e_r2=0.05, kappa_d_t2=0.005, kappa_d_r2=0.005)
    stats = derive_stats(p)
    assert theta_coefficients(p).theta4 < 0.0
    with pytest.raises(UnsupportedRegimeError):
        sop_asymptotic(p, stats)


def test_asymptote_improves_with_snr():
    def rel_gap(gd):
        p = params_for(snr_d_db=gd)
        stats = derive_stats(p)
        s = sop(p, stats)
        return abs(s - sop_asymptotic(p, stats)) / s

    assert rel_gap(30.0) < rel_gap(10.0)


# --- small saturation coefficients ------------------------------------------

BAND_POINTS = [(1, 0.0, 20.0), (1, -20.0, -20.0), (8, 10.0, 0.0), (16, 0.0, 5.0)]
BAND_KD2 = 1e-4  # kappa^2 of each destination level


def band_params(n, gd, ge, coefficient, theta):
    """c_th = 1 with the eavesdropper levels set so that ``coefficient`` equals theta."""
    # gamma_th = 2: theta4 = 2 kd - ke and theta2 = 2 kd - (1 - kd) ke
    kd = 2.0 * BAND_KD2
    ke = (2.0 * kd - theta) / ((1.0 - kd) if coefficient == "theta2" else 1.0)
    return params_for(n=n, snr_d_db=gd, snr_e_db=ge, c_th=1.0,
                      kappa_d_t2=BAND_KD2, kappa_d_r2=BAND_KD2,
                      kappa_e_t2=ke / 2.0, kappa_e_r2=ke / 2.0)


@pytest.mark.parametrize("metric,coefficient", [("sop", "theta2"), ("sop_asymptotic", "theta4")])
@pytest.mark.parametrize("n,gd,ge", BAND_POINTS)
def test_small_saturation_coefficient_matches_adaptive_quadrature(n, gd, ge, metric, coefficient):
    # theta from 1e-13 to 1e-4 puts the limit c/d from about 100 lambda_e
    # to far past where exp(-c/(d lambda_e)) underflows
    route = ROUTES[metric]
    gaps = {}
    for e in range(-13, -3):
        p = band_params(n, gd, ge, coefficient, 10.0 ** e)
        assert getattr(theta_coefficients(p), coefficient) == pytest.approx(10.0 ** e, rel=1e-6)
        stats = derive_stats(p)
        gaps[e] = abs(route.closed_form(p, stats, DEFAULT_NUMERICS)
                      - route.twin(p, stats, DEFAULT_NUMERICS))
    assert max(gaps.values()) <= 1e-9, gaps


# --- references against the arbitrary-precision oracle -----------------------

@functools.lru_cache(maxsize=None)
def oracle_values(p):
    """The oracle's sop, sop_asymptotic (None where theta4 <= 0), R_D and R_E, once per point."""
    stats = derive_stats(p)
    asym = oracle.sop_asymptotic(p, stats) if theta_coefficients(p).theta4 > 0.0 else None
    return (oracle.sop(p, stats), asym, *oracle.rates(p, stats))


def assert_references_match_oracle(p, tol):
    """Each reference within ``tol`` of the oracle: absolute for SOPs, relative for rates."""
    stats = derive_stats(p)
    want_sop, want_asym, r_d, r_e = oracle_values(p)
    assert abs(sop_reference(p, stats) - want_sop) <= tol
    if want_asym is not None:
        assert abs(sop_asymptotic_reference(p, stats) - want_asym) <= tol
    else:
        with pytest.raises(UnsupportedRegimeError):
            sop_asymptotic_reference(p, stats)
    ref = avg_secrecy_capacity_reference(p, stats)
    assert ref.r_d == pytest.approx(r_d, rel=tol, abs=0.0)
    assert ref.r_e == pytest.approx(r_e, rel=tol, abs=0.0)


ORACLE_POINTS = [
    # theta3/theta2 is huge while lambda_e = 0.01: the outage mass sits in a
    # sliver of the eavesdropper range
    pytest.param(params_for(n=1, snr_d_db=-20.0, snr_e_db=-20.0, k2=1e-4, c_th=0.1), id="n1_-20dB"),
    pytest.param(params_for(n=1, snr_d_db=0.0, snr_e_db=-20.0, k2=1e-4, c_th=0.1), id="n1_0dB"),
    # ideal hardware at high SNR: the rate integrand spans ~1e10
    pytest.param(params_for(n=64, snr_d_db=60.0, snr_e_db=0.0, k2=0.0), id="n64_60dB"),
    pytest.param(params_for(n=34, snr_d_db=56.3, snr_e_db=-14.75, k2=0.0, c_th=3.0), id="n34_56dB"),
    # the fig2 base point at large N, at and past the edge of the closed forms' domain
    *(pytest.param(params_for(n=n), id=f"fig2_n{n}") for n in (96, 128, 256, 1024)),
    # theta2 = 1e-11 and theta4 = 2e-12 at lambda_e = 100: both saturation
    # limits lie so far out that exp(-c/(d lambda_e)) underflows to 0
    pytest.param(params_for(n=1, snr_d_db=0.0, snr_e_db=20.0, c_th=1.0,
                            kappa_d_t2=1e-6, kappa_d_r2=1e-6,
                            kappa_e_t2=1.999999e-6, kappa_e_r2=1.999999e-6), id="n1_band"),
    # scan seed 1's scan_040: c/d is about 222 lambda_e, a long interval
    # whose tail is still representable
    pytest.param(params_for(n=38, snr_d_db=-15.4, snr_e_db=9.2, k2=1e-4, c_th=0.1), id="n38_scan"),
]


@pytest.mark.parametrize("p", ORACLE_POINTS)
def test_references_match_oracle_at_frozen_points(p):
    assert_references_match_oracle(p, 1e-10)


# (point, metric) where the closed form misses the oracle today: its gap, and
# the stage of ROADMAP item 1 that is to close it
CLOSED_FORM_MISSES = {
    ("n1_-20dB", "asc"): (4.7e-6, "1b"), ("n64_60dB", "asc"): (2.4e-2, "1b"),
    ("n34_56dB", "asc"): (8.4e-3, "1b"), ("fig2_n96", "asc"): (2.9e-6, "1b"),
    ("fig2_n128", "asc"): (4.0e-6, "1b"), ("n1_band", "asc"): (1.8e-5, "1b"),
    ("n38_scan", "sop"): (8.4e-5, "1a"), ("n38_scan", "sop_asymptotic"): (8.3e-5, "1a"),
}


@pytest.mark.parametrize("p,metric", [
    pytest.param(point.values[0], metric, id=f"{point.id}-{metric}",
                 marks=[pytest.mark.xfail(
                     strict=True, raises=AssertionError,
                     reason=f"ROADMAP item {CLOSED_FORM_MISSES[point.id, metric][1]}")]
                 if (point.id, metric) in CLOSED_FORM_MISSES else [])
    for point in ORACLE_POINTS for metric in ROUTES
])
def test_closed_forms_match_oracle_or_name_their_failure(p, metric):
    # absolute for the SOPs, relative to max(1, |value|) for the capacity
    stats = derive_stats(p)
    try:
        value = ROUTES[metric].closed_form(p, stats, DEFAULT_NUMERICS)
    except (ConvergenceError, UnsupportedRegimeError):
        return
    want_sop, want_asym, r_d, r_e = oracle_values(p)
    want = {"sop": want_sop, "sop_asymptotic": want_asym, "asc": r_d - r_e}[metric]
    assert abs(value - want) <= 1e-6 * (max(1.0, abs(want)) if metric == "asc" else 1.0)


KAPPA2_LEVELS = (0.0, 1e-4, 1e-2, 0.1)


@given(st.integers(min_value=1, max_value=1024),
       st.floats(min_value=-20.0, max_value=60.0),
       st.floats(min_value=-20.0, max_value=10.0),
       st.tuples(*[st.sampled_from(KAPPA2_LEVELS)] * 4),
       st.sampled_from((0.1, 1.0, 3.0)))
@settings(max_examples=10, deadline=None)
def test_references_match_oracle_over_the_box(n, gd, ge, k2s, c_th):
    # each impairment level drawn on its own, so theta2 and theta4 take both signs
    kappas = dict(zip(("kappa_d_t2", "kappa_d_r2", "kappa_e_t2", "kappa_e_r2"), k2s))
    assert_references_match_oracle(params_for(n=n, snr_d_db=gd, snr_e_db=ge, c_th=c_th, **kappas),
                                   1e-9)


@pytest.mark.parametrize("p", [
    pytest.param(params_for(n=1, snr_d_db=0.0, snr_e_db=-20.0, k2=1e-4, c_th=0.1), id="n1_0dB"),
    # high snr_d, weak eavesdropper: the outage probability given X1 falls
    # from 1 to 0 in a narrow band of amplitudes just above x_k
    pytest.param(params_for(n=2, snr_d_db=45.0, snr_e_db=-20.0, k2=1e-4, c_th=3.0), id="n2_45dB"),
])
def test_oracle_matches_model_law_monte_carlo(p):
    stats = derive_stats(p)
    mc = McConfig(trials=2_000_000, seed=1)
    est = simulate_metrics(p, mc, model_law_chunks(stats, mc), keys=("sop", "asc_eq19"))
    r_d, r_e = oracle.rates(p, stats)
    for key, want in (("sop", oracle.sop(p, stats)), ("asc_eq19", r_d - r_e)):
        assert abs(est[key].value - want) <= 3.0 * est[key].std_error


# --- average secrecy capacity ------------------------------------------------

@pytest.mark.parametrize("n,gd,ge", GRID)
def test_asc_matches_adaptive_quadrature(n, gd, ge):
    p = params_for(n=n, snr_d_db=gd, snr_e_db=ge)
    stats = derive_stats(p)
    closed = avg_secrecy_capacity(p, stats)
    ref = avg_secrecy_capacity_reference(p, stats)
    assert abs(closed.value - ref.value) < 1e-6
    assert abs(closed.r_d - ref.r_d) < 1e-6
    assert abs(closed.r_e - ref.r_e) < 1e-6


def test_destination_rate_saturation_ceiling():
    # kappa_d sum 0.02 bounds the SNDR at 50, so R_D <= log2(51)
    ceiling = math.log2(51.0)
    for gd in (0.0, 10.0, 20.0, 30.0, 60.0):
        p = params_for(snr_d_db=gd)
        stats = derive_stats(p)
        assert destination_rate(p, stats) <= ceiling + 1e-12


def _gain_clipped_rate(lam_e, ke):
    # E[log2(1 + min(rho_E, 1/k))] = (e^t E1(t) - e^-mu e^(t+mu) E1(t+mu)) / ln 2,
    # t = 1/lam, mu = 1/(k lam): an upper bound on the SNDR-map eavesdropper rate
    t, mu = 1.0 / lam_e, 1.0 / (ke * lam_e)
    return (e1_scaled(t) - math.exp(-mu) * e1_scaled(t + mu)) / math.log(2.0)


def test_eavesdropper_rates_nonnegative_and_ordered():
    for ge in (-10.0, 0.0, 10.0):
        p = params_for(snr_e_db=ge)
        stats = derive_stats(p)
        exact = eavesdropper_rate(stats, p.kappa_e_sum)
        clipped = _gain_clipped_rate(stats.lambda_e, p.kappa_e_sum)
        assert 0.0 <= exact <= clipped  # gain clipping upper-bounds the SNDR map


def test_gain_clipped_rate_matches_its_integral():
    # closed form vs adaptive quadrature of e^{-x/lam}/(1+x) on [0, 1/k]
    for lam_e in (0.25, 0.5, 1.0, 5.0, 10.0):
        for ke in (0.005, 0.02, 0.1, 0.2):
            val, _ = integrate.quad(lambda x: math.exp(-x / lam_e) / (1.0 + x),
                                    0.0, 1.0 / ke, limit=300, epsabs=1e-13, epsrel=1e-13)
            assert abs(_gain_clipped_rate(lam_e, ke) - val / math.log(2.0)) < 1e-9


def test_exact_eavesdropper_rate_matches_its_integral():
    # closed form vs quadrature of the saturated-SNDR CCDF integrand
    for lam_e in (0.25, 0.5, 1.0, 5.0, 10.0):
        for ke in (0.005, 0.02, 0.1, 0.2):
            p = params_for(snr_e_db=0.0)
            stats = derive_stats(p)
            stats = type(stats)(lambda_=stats.lambda_, sigma2=stats.sigma2, lambda_e=lam_e)
            val, _ = integrate.quad(
                lambda x: math.exp(-x / (lam_e * (1.0 - ke * x))) / (1.0 + x),
                0.0, 1.0 / ke, limit=300, epsabs=1e-13, epsrel=1e-13)
            assert abs(eavesdropper_rate(stats, ke) - val / math.log(2.0)) < 1e-9


def test_eavesdropper_rate_continuous_at_zero_impairment():
    p = params_for(snr_e_db=0.0)
    stats = derive_stats(p)
    ideal = eavesdropper_rate(stats, 0.0)
    assert eavesdropper_rate(stats, 1e-9) == pytest.approx(ideal, abs=1e-7)
    # classic Rayleigh ergodic rate e^{1/lam} E1(1/lam) / ln 2
    assert ideal == pytest.approx(e1_scaled(1.0 / stats.lambda_e) / math.log(2.0), rel=1e-12)


def test_asc_ideal_hardware_requires_fallback():
    # at kappa = 0 the destination rate has no saturation point and takes
    # the tail-truncated path, which must still match the twin
    p = params_for(k2=0.0)
    stats = derive_stats(p)
    closed = avg_secrecy_capacity(p, stats)
    ref = avg_secrecy_capacity_reference(p, stats)
    assert abs(closed.value - ref.value) < 1e-6


def test_asc_continuity_towards_ideal_hardware():
    p0 = params_for(k2=0.0)
    stats = derive_stats(p0)
    ideal = avg_secrecy_capacity(p0, stats).value
    p_eps = params_for(k2=1e-7)
    near = avg_secrecy_capacity(p_eps, derive_stats(p_eps)).value
    assert near == pytest.approx(ideal, abs=5e-4)


def test_asc_quad_order_doubling_stability():
    p = params_for(n=5, snr_d_db=10.0, snr_e_db=0.0)
    stats = derive_stats(p)
    for q in (200, 400):
        a = avg_secrecy_capacity(p, stats, NumericsConfig(quad_order=q)).value
        b = avg_secrecy_capacity(p, stats, NumericsConfig(quad_order=2 * q)).value
        assert abs(a - b) < 1e-7


def test_asc_monotone_in_destination_snr():
    vals = []
    for gd in np.arange(-10.0, 31.0, 2.0):
        p = params_for(snr_d_db=float(gd))
        vals.append(avg_secrecy_capacity(p, derive_stats(p)).value)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_numerics_config_validation():
    with pytest.raises(ValueError):
        NumericsConfig(quad_order=1)
    with pytest.raises(TypeError, match="tail_epsilon"):  # secrecy._TAIL_EPSILON, not a setting
        NumericsConfig(tail_epsilon=1e-12)
    for kw in ({"quad_order": 2.5}, {"quad_order": 100.5}, {"quad_order": True},
               {"mc_check": "false"}):
        with pytest.raises(ValueError, match=next(iter(kw))):
            NumericsConfig(**kw)
    assert NumericsConfig(quad_order=np.int64(64)).quad_order == 64


def test_chebyshev_caches_are_read_only():
    q = 37
    assert _chebyshev_rule(q) is _chebyshev_rule(q)
    for arr in _chebyshev_rule(q):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # the cached rule gives the nodes and weights of the uncached expressions
    phi = np.cos((2.0 * np.arange(1, q + 1) - 1.0) * math.pi / (2.0 * q))
    w = (math.pi / q) * np.sqrt(1.0 - phi * phi)
    t = (15.0 * phi - 10.0 * phi ** 3 + 3.0 * phi ** 5) / 8.0
    dt = 15.0 * (1.0 - phi * phi) ** 2 / 8.0
    x, wx = _chebyshev_on_interval(q, 3.7)
    assert x.tolist() == np.clip(0.5 * 3.7 * (1.0 + t), 0.0, 3.7).tolist()
    assert wx.tolist() == (0.5 * 3.7 * w * dt).tolist()


@pytest.mark.parametrize("q", [2, 3, 24, 100, 657, 999])
def test_chebyshev_nodes_are_the_clamped_map_bit_for_bit(q):
    # 1 + t rounds below 0 at q = 657 and 999, and 0.5 * upper rounds up
    # for an odd multiple of 2^-1074 and a normal upper below 2^-1021
    phi = np.cos((2.0 * np.arange(1, q + 1) - 1.0) * math.pi / (2.0 * q))
    t = (15.0 * phi - 10.0 * phi ** 3 + 3.0 * phi ** 5) / 8.0
    tiny = np.finfo(float).tiny
    for upper in (5e-324, 1.5e-323, 3.5e-323, tiny, tiny * (1.0 + 3 * 2.0 ** -52),
                  1e-200, 3.7, 1e12, np.finfo(float).max):
        x, _ = _chebyshev_on_interval(q, upper)
        want = np.minimum(np.maximum(0.5 * upper * (1.0 + t), 0.0), upper)
        assert x.tobytes() == want.tobytes(), upper


# --- the destination-law node step -----------------------------------------------

def _masked_law(x, coeffs, stats, g, upper_tail):
    """The law at the live nodes only, by each caller's expression before the node step."""
    a, b, c, d = coeffs
    denom = c - d * x
    live = denom > 0.0
    f = np.full_like(x, 0.0 if upper_tail else 1.0)
    if upper_tail:  # destination_rate's x/(1 - kappa_d x)
        f[live] = ccdf_rho_d(x[live] / denom[live], stats, g)
    else:
        f[live] = cdf_rho_d((a * x[live] + b) / denom[live], stats, g)
    return f, live


@pytest.mark.parametrize("upper_tail", [False, True], ids=["cdf", "ccdf"])
@pytest.mark.parametrize("some_dead", [False, True], ids=["all-live", "some-dead"])
def test_law_at_keeps_the_masked_bits(upper_tail, some_dead):
    p = params_for(n=10)
    stats, g = derive_stats(p), p.snr_d_linear
    if upper_tail:
        # kappa_d > 0; at 600 nodes the last one rounds onto the saturation point
        q, coeffs = (600 if some_dead else 100), (1.0, 0.0, 1.0, p.kappa_d_sum)
        x, w = _chebyshev_on_interval(q, 1.0 / p.kappa_d_sum)
    else:
        # theta2 > 0, so the CDF argument's denominator theta3 - theta2 x is
        # positive only below theta3/theta2: integrate up to there or past it
        th = theta_coefficients(p)
        q, coeffs = 100, (th.theta1, th.vartheta, th.theta3, th.theta2)
        upper = th.theta3 / th.theta2 * (3.0 if some_dead else 1.0)
        x, w = _chebyshev_on_interval(q, upper)
    want, live = _masked_law(x, coeffs, stats, g, upper_tail)
    assert live.all() != some_dead
    assert _law_at(x, *coeffs, stats, g, upper_tail).tobytes() == want.tobytes()
    # and each caller sums those bits
    numerics = NumericsConfig(quad_order=q)
    if upper_tail:
        got, want = (destination_rate(p, stats, numerics),
                     float(np.sum(w * want / (1.0 + x))) / math.log(2.0))
    else:
        got, want = (_outage_integral(*coeffs, upper, stats, g, numerics),
                     float(np.sum(w * np.exp(-x / stats.lambda_e) / stats.lambda_e * want)))
    assert got.hex() == want.hex()


def test_outage_integral_with_no_live_node_still_raises_at_large_n():
    # the domain bound is checked before any node is read, so N=256 raises
    # as it does when nodes are live
    p = params_for(n=256)
    stats = derive_stats(p)
    with pytest.raises(ConvergenceError, match="N = 245"):
        _outage_integral(1.0, 0.0, -1.0, 1.0, 10.0, stats, p.snr_d_linear, DEFAULT_NUMERICS)
