"""Special-function kernel: frozen oracle values, identities, library cross-checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as sc

from ris_secrecy.specfun import (
    ConvergenceError,
    SeriesControl,
    bessel_i,
    e1_scaled,
    exp_integral_ei,
    lower_inc_gamma,
    marcum_q_half,
    upper_inc_gamma,
)

EULER_GAMMA = 0.57721566490153286061


# --- independent oracles (kept deliberately separate from the package code) --

def oracle_lower_gamma_series(s, x, terms=500):
    # gamma(s,x) = x^s e^-x sum_m x^m / (s (s+1) ... (s+m))
    term = 1.0 / s
    total = term
    for m in range(1, terms):
        term *= x / (s + m)
        total += term
    return math.exp(s * math.log(x) - x) * total


def oracle_upper_gamma_lentz(s, x, iters=500):
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, iters):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b or tiny
        c = b + an / c or tiny
        d = 1.0 / d
        h *= d * c
    return math.exp(s * math.log(x) - x) * h


def oracle_ei_convergent(t, terms=80):
    # Ei(-t) = euler + ln t + sum_k (-t)^k / (k k!)
    total = EULER_GAMMA + math.log(t)
    term = 1.0
    for k in range(1, terms):
        term *= -t / k
        total += term / k
    return total


def oracle_ei_asymptotic(t, kmax=9):
    # Ei(-t) ~ -(e^-t / t) (1 - 1/t + 2/t^2 - 6/t^3 + ...), truncated
    total = 0.0
    fk = 1.0
    for k in range(kmax):
        if k > 0:
            fk *= -k / t
        total += fk
    return -math.exp(-t) / t * total


def noncentral_series_cdf(a, b, terms=400):
    """P(|X| <= b), X ~ N(a,1), as the mixture-of-gammas series.

    This is the series representation whose complement the Marcum
    closed form must reproduce; scipy supplies the regularised gamma.
    """
    half_delta = 0.5 * a * a
    u = 0.5 * b * b
    total = 0.0
    w = math.exp(-half_delta)
    for k in range(terms):
        total += w * sc.gammainc(k + 0.5, u)
        w *= half_delta / (k + 1)
    return total


# --- incomplete gamma pair ---------------------------------------------------

def test_lower_gamma_trivial_cases():
    assert lower_inc_gamma(1.0, 0.0) == 0.0
    assert lower_inc_gamma(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)


def test_upper_gamma_trivial_cases():
    assert upper_inc_gamma(1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert upper_inc_gamma(0.5, 0.0) == pytest.approx(math.sqrt(math.pi), rel=1e-15)


def test_lower_gamma_half_one_frozen():
    # sqrt(pi) erf(1); series oracle agrees to 14 digits
    expected = 1.4936482656248540
    assert lower_inc_gamma(0.5, 1.0) == pytest.approx(expected, rel=1e-13)
    assert oracle_lower_gamma_series(0.5, 1.0) == pytest.approx(expected, rel=1e-13)


def test_upper_gamma_continued_fraction_point():
    # Lentz oracle value, cross-checked against Gamma(s) - gamma(s,x);
    # the implementation reaches this point through the series branch.
    expected = 0.23171655200098069
    assert oracle_upper_gamma_lentz(1.5, 2.0) == pytest.approx(expected, rel=1e-12)
    assert upper_inc_gamma(1.5, 2.0) == pytest.approx(expected, rel=1e-12)
    assert math.gamma(1.5) - lower_inc_gamma(1.5, 2.0) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("s", [0.5 + k for k in range(0, 21, 4)])
def test_gamma_additivity(s):
    for x in np.linspace(0.0, 50.0, 26):
        total = lower_inc_gamma(s, float(x)) + upper_inc_gamma(s, float(x))
        assert total == pytest.approx(math.gamma(s), rel=1e-10)


def test_gamma_against_scipy():
    rng = np.random.default_rng(42)
    for _ in range(200):
        s = rng.uniform(0.1, 25.0)
        x = rng.uniform(0.0, 60.0)
        assert lower_inc_gamma(s, x) == pytest.approx(
            sc.gammainc(s, x) * math.gamma(s), rel=1e-10, abs=1e-290
        )
        assert upper_inc_gamma(s, x) == pytest.approx(
            sc.gammaincc(s, x) * math.gamma(s), rel=1e-10, abs=1e-290
        )


@given(st.floats(min_value=0.1, max_value=20.0),
       st.floats(min_value=0.0, max_value=40.0),
       st.floats(min_value=0.01, max_value=10.0))
@settings(max_examples=100, deadline=None)
def test_lower_gamma_monotone_in_x(s, x, dx):
    assert lower_inc_gamma(s, x + dx) >= lower_inc_gamma(s, x)


@pytest.mark.parametrize("fn", [lower_inc_gamma, upper_inc_gamma])
def test_gamma_domain_errors(fn):
    with pytest.raises(ValueError):
        fn(0.0, 1.0)
    with pytest.raises(ValueError):
        fn(-1.0, 1.0)
    with pytest.raises(ValueError):
        fn(1.0, -0.5)


# --- modified Bessel function ------------------------------------------------

def test_bessel_small_argument_divergence():
    # I_{-1/2}(z) ~ sqrt(2/(pi z)) as z -> 0+
    z = 1e-8
    assert bessel_i(-0.5, z) == pytest.approx(math.sqrt(2.0 / (math.pi * z)), rel=1e-8)
    assert bessel_i(-0.5, 0.0) == math.inf
    assert bessel_i(0.0, 0.0) == 1.0
    assert bessel_i(1.5, 0.0) == 0.0


def test_bessel_half_order_frozen_values():
    assert bessel_i(-0.5, 1.0) == pytest.approx(1.2312002145929675, rel=1e-13)
    assert bessel_i(0.5, 1.0) == pytest.approx(0.9376748882454876, rel=1e-13)


def test_bessel_cosh_identity_sweep():
    for z in np.geomspace(1e-3, 30.0, 40):
        z = float(z)
        closed = math.sqrt(2.0 / (math.pi * z)) * math.cosh(z)
        assert abs(bessel_i(-0.5, z) - closed) < 1e-10 * math.cosh(z)


def test_bessel_sinh_identity_sweep():
    for z in np.geomspace(1e-3, 30.0, 40):
        z = float(z)
        closed = math.sqrt(2.0 / (math.pi * z)) * math.sinh(z)
        assert bessel_i(0.5, z) == pytest.approx(closed, rel=1e-10)


@pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 1.0, 2.7])
def test_bessel_against_scipy(nu):
    for z in (0.05, 0.9, 3.3, 12.0, 28.0):
        assert bessel_i(nu, z) == pytest.approx(float(sc.iv(nu, z)), rel=1e-11)


def test_bessel_convergence_failure_reports_terms():
    with pytest.raises(ConvergenceError) as err:
        bessel_i(-0.5, 30.0, SeriesControl(max_terms=5, rel_tol=1e-12))
    assert err.value.terms == 5


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        bessel_i(-1.0, 1.0)
    with pytest.raises(ValueError):
        bessel_i(0.5, -1.0)


# --- Marcum Q of order 1/2 ---------------------------------------------------

def test_marcum_trivial_and_frozen():
    assert marcum_q_half(3.0, 0.0) == 1.0
    assert marcum_q_half(0.0, 1.0) == pytest.approx(0.31731050786291415, rel=1e-14)
    # (erfc(0) + erfc(4/sqrt2))/2
    assert marcum_q_half(2.0, 2.0) == pytest.approx(0.5000316712418331, rel=1e-14)


def test_marcum_matches_gamma_series_complement():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rng.uniform(0.0, 10.0)
        b = rng.uniform(0.0, 10.0)
        assert abs(marcum_q_half(a, b) - (1.0 - noncentral_series_cdf(a, b))) < 1e-8


@given(st.floats(min_value=0.0, max_value=20.0),
       st.floats(min_value=0.0, max_value=20.0))
@settings(max_examples=200, deadline=None)
def test_marcum_in_unit_interval_and_monotone(a, b):
    q = marcum_q_half(a, b)
    assert 0.0 <= q <= 1.0
    assert marcum_q_half(a, b + 0.5) <= q + 1e-15


def test_marcum_domain_errors():
    with pytest.raises(ValueError):
        marcum_q_half(-0.1, 1.0)
    with pytest.raises(ValueError):
        marcum_q_half(1.0, -0.1)


# --- exponential integral ----------------------------------------------------

def test_ei_frozen_against_series_oracle():
    assert exp_integral_ei(-1.0) == pytest.approx(-0.21938393439552029, rel=1e-13)
    assert oracle_ei_convergent(1.0) == pytest.approx(-0.21938393439552029, rel=1e-13)


def test_ei_frozen_against_asymptotic_oracle():
    # the truncated asymptotic series is itself only ~3e-4 accurate at t=10
    assert exp_integral_ei(-10.0) == pytest.approx(-4.1569689296853243e-06, rel=1e-12)
    assert exp_integral_ei(-10.0) == pytest.approx(oracle_ei_asymptotic(10.0), rel=5e-4)


def test_ei_far_tail_limit():
    v = exp_integral_ei(-500.0)
    assert -1e-200 < v < 0.0


def test_ei_derivative_finite_difference():
    # d/dx Ei(x) = e^x / x
    h = 1e-5
    for x in np.linspace(-20.0, -0.1, 50):
        x = float(x)
        fd = (exp_integral_ei(x + h) - exp_integral_ei(x - h)) / (2.0 * h)
        assert fd == pytest.approx(math.exp(x) / x, rel=1e-4)


def test_ei_against_scipy():
    for x in (-0.05, -0.7, -1.0, -3.0, -12.0, -50.0):
        assert exp_integral_ei(x) == pytest.approx(float(sc.expi(x)), rel=1e-11)


@given(st.floats(min_value=-30.0, max_value=-0.01),
       st.floats(min_value=0.01, max_value=5.0))
@settings(max_examples=100, deadline=None)
def test_ei_negative_and_decreasing(x, dx):
    # d/dx Ei(x) = e^x/x < 0 on the negative axis: Ei falls from 0- at
    # x -> -inf to -inf at x -> 0-.
    assert exp_integral_ei(x) < 0.0
    assert exp_integral_ei(x - dx) > exp_integral_ei(x)


def test_ei_domain_error():
    with pytest.raises(ValueError):
        exp_integral_ei(0.0)
    with pytest.raises(ValueError):
        exp_integral_ei(1.0)


def test_e1_scaled_identity_and_large_argument():
    for t in (0.1, 0.7, 1.0, 4.0, 30.0):
        assert e1_scaled(t) * math.exp(-t) == pytest.approx(-exp_integral_ei(-t), rel=1e-11)
    for t in (0.2, 2.0, 80.0, 500.0):
        assert e1_scaled(t) == pytest.approx(float(sc.exp1(t) * math.exp(t)), rel=1e-10)
    # no overflow where e^t alone would blow up; leading asymptote 1/t
    assert e1_scaled(1e6) == pytest.approx(1e-6, rel=1e-5)


# --- series control ----------------------------------------------------------

def test_series_control_validation():
    with pytest.raises(ValueError):
        SeriesControl(max_terms=0)
    with pytest.raises(ValueError):
        SeriesControl(rel_tol=0.0)
    with pytest.raises(ValueError):
        SeriesControl(rel_tol=0.1)
    for kw in ({"max_terms": 150.5}, {"max_terms": True}, {"max_terms": "200"},
               {"rel_tol": "1e-9"}, {"rel_tol": True}):
        with pytest.raises(ValueError, match=next(iter(kw))):
            SeriesControl(**kw)
    assert SeriesControl(max_terms=np.int64(300)).max_terms == 300
