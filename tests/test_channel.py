"""Channel statistics and the destination/eavesdropper distribution laws."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy import special as sc
from scipy import stats as sst

from ris_secrecy.channel import (
    ChannelStats,
    LinkGeometry,
    SystemParams,
    ccdf_rho_d,
    cdf_rho_d,
    derive_stats,
    pdf_rho_d,
)
from ris_secrecy.montecarlo import ks_distance
from ris_secrecy.secrecy import _MAX_MEAN, _chebyshev_on_interval, _law_at, theta_coefficients


def params_for(n=5, snr_d_db=10.0, snr_e_db=-10.0, k2=0.01, c_th=1.0):
    return SystemParams(n_elements=n, kappa_d_t2=k2, kappa_d_r2=k2,
                        kappa_e_t2=k2, kappa_e_r2=k2,
                        snr_d_db=snr_d_db, snr_e_db=snr_e_db, c_th=c_th)


# --- parameter validation ----------------------------------------------------

def test_params_invariants():
    with pytest.raises(ValueError):
        SystemParams(n_elements=0)
    with pytest.raises(ValueError):
        SystemParams(n_elements=5, kappa_d_t2=1.0)
    with pytest.raises(ValueError):
        SystemParams(n_elements=5, kappa_e_r2=-0.01)
    with pytest.raises(ValueError):
        SystemParams(n_elements=5, c_th=0.0)
    for kw in ({"n_elements": 5.0}, {"n_elements": True}, {"snr_d_db": "10"},
               {"snr_e_db": None}, {"kappa_d_t2": "0.01"}, {"c_th": "1"}):
        with pytest.raises(ValueError, match=next(iter(kw))):
            SystemParams(**{"n_elements": 5, **kw})
    assert SystemParams(n_elements=np.int64(5), snr_d_db=np.float64(1.0)).n_elements == 5


def test_geometry_must_match_snr_fields():
    geo = LinkGeometry(p_s=1.0, n0=1e-4, d_sr=10.0, d_rd=10.0, d_re=20.0, chi=2.0)
    p = SystemParams.from_geometry(5, geo)
    # snr_d = p_s / ((d_sr d_rd)^chi n0) = 1 / (100^2 * 1e-4) = 1 -> 0 dB
    assert p.snr_d_db == pytest.approx(0.0, abs=1e-12)
    assert p.snr_e_db == pytest.approx(10.0 * math.log10(1.0 / (200.0 ** 2 * 1e-4)), abs=1e-12)
    with pytest.raises(ValueError):
        SystemParams(n_elements=5, snr_d_db=5.0, snr_e_db=p.snr_e_db, geometry=geo)
    with pytest.raises(ValueError, match="n0"):  # how PyYAML reads `n0: 1e-4`
        LinkGeometry(p_s=1.0, n0="1e-4", d_sr=10.0, d_rd=10.0, d_re=20.0, chi=2.0)
    with pytest.raises(ValueError, match="n0"):  # a NaN geometry is rejected as it is built
        LinkGeometry(p_s=1.0, n0=math.nan, d_sr=10.0, d_rd=10.0, d_re=20.0, chi=2.0)


_GEOMETRY = dict(p_s=1.0, n0=1e-4, d_sr=10.0, d_rd=10.0, d_re=20.0, chi=2.0)


@pytest.mark.parametrize("name", ["p_s", "n0", "d_sr", "d_rd", "d_re"])
@pytest.mark.parametrize("value", [0, -1.0, math.inf, math.nan])
def test_geometry_powers_and_distances_must_be_finite_and_positive(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
        LinkGeometry(**{**_GEOMETRY, name: value})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_geometry_path_loss_exponent_must_be_finite(value):
    with pytest.raises(ValueError, match="^chi must be finite"):
        LinkGeometry(**{**_GEOMETRY, "chi": value})
    assert LinkGeometry(**{**_GEOMETRY, "chi": -2.0}).chi == -2.0  # any finite exponent


@pytest.mark.parametrize("c_th", [1024.0, 2000, math.inf])
def test_c_th_must_keep_the_threshold_finite(c_th):
    # 2.0 ** c_th overflows from 1024 on; below it the threshold is finite
    with pytest.raises(ValueError, match="^c_th must be > 0 and < 1024"):
        SystemParams(n_elements=5, c_th=c_th)
    assert math.isfinite(SystemParams(n_elements=5, c_th=math.nextafter(1024.0, 0)).gamma_th)


@pytest.mark.parametrize("name", ["snr_d_db", "snr_e_db"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 4000.0, -4000.0])
def test_snr_fields_must_be_finite(name, value):
    # 10**(4000/10) once raised a stray OverflowError in db_to_linear
    with pytest.raises(ValueError, match=f"{name} must be finite and within \\+-3000 dB"):
        SystemParams(n_elements=5, **{name: value})
    for edge in (3000.0, -3000.0):  # the linear SNR stays a positive finite float
        linear = getattr(SystemParams(n_elements=5, **{name: edge}), name.replace("db", "linear"))
        assert 0.0 < linear < math.inf


@pytest.mark.parametrize("chi", [200.0, -200.0])
def test_large_path_loss_exponent_is_a_named_snr_error(chi):
    # the SNRs are formed in the log domain: chi = +-200 over 100 m^2 is -+4000 dB,
    # where (d_sr d_rd)**chi once overflowed or divided by zero
    geo = LinkGeometry(**{**_GEOMETRY, "n0": 1.0, "chi": chi})
    assert geo.snr_d_db() == pytest.approx(-20.0 * chi, rel=1e-15)
    with pytest.raises(ValueError, match="^snr_d_db must be finite and within"):
        SystemParams.from_geometry(5, geo)


def test_derived_stats_frozen_values():
    st_ = derive_stats(params_for(n=5))
    assert st_.lambda_ == pytest.approx(15.421256876702122, rel=1e-14)  # (5 pi/4)^2
    assert st_.sigma2 == pytest.approx(1.9157486246595756, rel=1e-14)  # 5 (1 - pi^2/16)
    assert st_.lambda_e == pytest.approx(0.5, rel=1e-14)  # 0.1 * 5


def test_stats_moment_oracle():
    # mean and variance of the coherent sum match the derivation exactly,
    # independent of the Gaussian shape approximation
    rng = np.random.default_rng(11)
    n, trials = 5, 2_000_000
    x1 = (np.sqrt(rng.standard_exponential((trials, n)))
          * np.sqrt(rng.standard_exponential((trials, n)))).sum(axis=1)
    st_ = derive_stats(params_for(n=n))
    se_mean = x1.std() / math.sqrt(trials)
    assert abs(x1.mean() - n * math.pi / 4.0) < 3.0 * se_mean
    var = x1.var()
    se_var = math.sqrt(max(np.mean((x1 - x1.mean()) ** 4) - var ** 2, 0.0) / trials)
    assert abs(var - st_.sigma2) < 3.0 * se_var


# --- destination law ---------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 5, 10, 32])
def test_pdf_rho_d_normalisation(n):
    p = params_for(n=n)
    st_ = derive_stats(p)
    g = p.snr_d_linear
    # substitute x = u^2 to remove the integrable x^{-1/2} endpoint singularity
    val, _ = integrate.quad(lambda u: 2.0 * u * pdf_rho_d(u * u, st_, g),
                            0.0, math.sqrt(g) * (math.sqrt(st_.lambda_) + 12.0 * math.sqrt(st_.sigma2)),
                            limit=300)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_pdf_rho_d_scale_family():
    # rho_D = snr * X1^2, so f(x; snr) = f(x/snr; 1)/snr
    p = params_for(n=5)
    st_ = derive_stats(p)
    g = p.snr_d_linear
    for x in (0.5, 3.0, 17.0, 150.0):
        assert pdf_rho_d(x, st_, g) == pytest.approx(pdf_rho_d(x / g, st_, 1.0) / g, rel=1e-11)


def test_pdf_rho_d_origin_divergence():
    st_ = derive_stats(params_for(n=5))
    assert pdf_rho_d(0.0, st_, 10.0) == math.inf
    assert pdf_rho_d(1e-12, st_, 10.0) > 1.0


@pytest.mark.parametrize("n", [1, 5, 64, 256, 1024])
@pytest.mark.parametrize("snr_d_db", [-20.0, 0.0, 40.0])
def test_pdf_rho_d_is_the_exact_density(n, snr_d_db):
    # at the amplitudes mu + z sigma > 0 for |z| <= 30, within 1e-12
    # relative of the two-sided Gaussian density at 50 digits where it is
    # >= 1e-300, at every N (no term cap), and of scipy's noncentral
    # chi-square for |z| <= 15: past |z| = 18 at N >= 256 scipy's value
    # is 0.0 or a few percent off
    p = params_for(n=n, snr_d_db=snr_d_db)
    st_, g = derive_stats(p), p.snr_d_linear
    z = np.linspace(-30.0, 30.0, 121)
    amp = math.sqrt(st_.lambda_) + z * math.sqrt(st_.sigma2)
    z, xs = z[amp > 0.0], g * amp[amp > 0.0] ** 2
    scale = g * st_.sigma2
    ncx2 = sst.ncx2.pdf(xs / scale, 1, st_.lambda_ / st_.sigma2) / scale
    with mp.workdps(50):
        mu, sigma, g_ = mp.sqrt(mp.mpf(st_.lambda_)), mp.sqrt(mp.mpf(st_.sigma2)), mp.mpf(g)
        for zi, x, ref in zip(z, xs, ncx2):
            got = pdf_rho_d(float(x), st_, g)
            s = mp.sqrt(mp.mpf(x) / g_)
            exact = ((mp.npdf((s - mu) / sigma) + mp.npdf((s + mu) / sigma))
                     / (2 * sigma * mp.sqrt(g_ * x)))
            if exact >= 1e-300:
                assert abs(got - exact) <= 1e-12 * exact, (zi, got, exact)
            if abs(zi) <= 15.0:
                assert abs(got - ref) <= 1e-12 * ref, (zi, got, ref)


def test_cdf_pdf_consistency():
    p = params_for(n=5)
    st_ = derive_stats(p)
    g = p.snr_d_linear
    h = 1e-4
    for x in np.linspace(2.0, 400.0, 50):
        x = float(x)
        fd = (cdf_rho_d(x + h, st_, g) - cdf_rho_d(x - h, st_, g)) / (2.0 * h)
        assert fd == pytest.approx(pdf_rho_d(x, st_, g), rel=1e-4)


def test_cdf_rho_d_limits_and_array_input():
    p = params_for(n=5)
    st_ = derive_stats(p)
    g = p.snr_d_linear
    assert cdf_rho_d(0.0, st_, g) == 0.0
    assert ccdf_rho_d(0.0, st_, g) == 1.0
    assert cdf_rho_d(1e6, st_, g) == pytest.approx(1.0, abs=1e-12)
    assert cdf_rho_d(math.inf, st_, g) == 1.0
    assert ccdf_rho_d(math.inf, st_, g) == 0.0
    xs = np.array([0.0, 1.0, 10.0, 100.0])
    cdf = cdf_rho_d(xs, st_, g)
    ccdf = ccdf_rho_d(xs, st_, g)
    assert cdf.shape == ccdf.shape == xs.shape
    assert np.all(np.diff(cdf) > 0.0)
    assert np.all(np.diff(ccdf) < 0.0)
    # an array is evaluated exactly as each of its elements
    grid = xs.reshape(2, 2)
    for fn in (cdf_rho_d, ccdf_rho_d):
        out = fn(grid, st_, g)
        assert out.shape == grid.shape
        assert out.tolist() == [[fn(float(v), st_, g) for v in row] for row in grid]
    for bad in (np.array([1.0, -1.0]), math.nan, np.array([1.0, math.nan])):
        for fn in (cdf_rho_d, ccdf_rho_d):
            with pytest.raises(ValueError, match="requires x >= 0"):
                fn(bad, st_, g)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="requires x >= 0"):
            pdf_rho_d(bad, st_, g)


def test_ccdf_complements_cdf():
    p = params_for(n=5)
    st_ = derive_stats(p)
    g = p.snr_d_linear
    for x in (0.0, 0.5, 20.0, 300.0):
        assert cdf_rho_d(x, st_, g) + ccdf_rho_d(x, st_, g) == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("n", [1, 5, 64, 1024])
@pytest.mark.parametrize("snr_d_db", [-20.0, 0.0, 40.0])
def test_erfc_route_keeps_both_tails(n, snr_d_db):
    # each tail is formed directly: against mpmath at 50 digits, at the
    # amplitudes mu + z sigma > 0 for |z| <= 30, the CDF is within 1e-13
    # relative where F >= 1e-7, and the CCDF within 1e-12 relative where
    # 1 - F >= 1e-300 (1 - F formed as 1 - CDF misses the lower tail by 1.6e-10)
    p = params_for(n=n, snr_d_db=snr_d_db)
    st_, g = derive_stats(p), p.snr_d_linear
    amp = math.sqrt(st_.lambda_) + np.linspace(-30.0, 30.0, 241) * math.sqrt(st_.sigma2)
    xs = g * amp[amp > 0.0] ** 2
    cdf, ccdf = cdf_rho_d(xs, st_, g), ccdf_rho_d(xs, st_, g)
    with mp.workdps(50):
        a = mp.sqrt(mp.mpf(st_.lambda_) / st_.sigma2)
        for x, got_f, got_q in zip(xs, cdf, ccdf):
            b = mp.sqrt(mp.mpf(x) / (mp.mpf(g) * st_.sigma2))
            q = (mp.erfc((b - a) / mp.sqrt(2)) + mp.erfc((b + a) / mp.sqrt(2))) / 2
            if 1 - q >= 1e-7:
                assert abs(got_f - (1 - q)) <= 1e-13 * (1 - q), x
            if q >= 1e-300:
                assert abs(got_q - q) <= 1e-12 * q, x


def _two_where_law(x, stats, g, upper):
    """rho_D's law by the two-``np.where`` expression of the erfc route, the bit reference."""
    xs = np.asarray(x, dtype=float)
    a = math.sqrt(stats.lambda_ / stats.sigma2)
    b = np.sqrt(xs / (g * stats.sigma2))
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    e_minus = sc.erfc(np.abs(b - a) * inv_sqrt2)
    e_plus = sc.erfc((b + a) * inv_sqrt2)
    below = b < a
    tail = 0.5 * np.where(below, e_minus - e_plus, e_minus + e_plus)
    out = np.where(below == upper, 1.0 - tail, tail)
    return float(out) if np.ndim(x) == 0 else out


def _two_where_law_at(x, a, b, c, d, stats, g, upper_tail):
    """``_law_at`` by its masked expression over :func:`_two_where_law`."""
    denom = c - d * x
    live = denom > 0.0
    f = np.full_like(x, 0.0 if upper_tail else 1.0)
    f[live] = _two_where_law((a * x[live] + b) / denom[live], stats, g, upper_tail)
    return f


def _bits(v):
    return np.asarray(v, dtype=float).view(np.uint64)


@pytest.mark.parametrize("n", [1, 10, 64, 1024])
def test_rho_d_law_is_bitwise_the_two_where_form(n):
    # the in-place kernel gives the bits of the expression it replaced, on
    # nodes on both sides of the mean amplitude (within a few ulps of it
    # too), at 0 and +inf, for 0-d, 2-D and empty input, and leaves the
    # caller's array as it was
    p = params_for(n=n)
    st_, g = derive_stats(p), p.snr_d_linear
    amp = math.sqrt(st_.lambda_) + np.linspace(-12.0, 12.0, 97) * math.sqrt(st_.sigma2)
    at_mean = g * st_.sigma2 * (st_.lambda_ / st_.sigma2) * (1.0 + np.arange(-4, 5) * 2.0 ** -52)
    xs = np.concatenate([[0.0, math.inf], at_mean, g * amp[amp > 0.0] ** 2])
    below = np.sqrt(xs / (g * st_.sigma2)) < math.sqrt(st_.lambda_ / st_.sigma2)
    assert below.any() and not below.all()
    for law, upper in ((cdf_rho_d, False), (ccdf_rho_d, True)):
        for x in (xs, np.stack([xs, xs[::-1]]), np.empty(0), np.empty((0, 3))):
            before = x.copy()
            got, want = law(x, st_, g), _two_where_law(x, st_, g, upper)
            assert got.shape == x.shape
            assert np.array_equal(_bits(got), _bits(want))
            assert x.tobytes() == before.tobytes()
        for x in (0.0, math.inf, float(at_mean[4]), np.float64(xs[-1]), np.array(xs[20])):
            got = law(x, st_, g)
            assert type(got) is float
            assert _bits(got) == _bits(_two_where_law(x, st_, g, upper))
    if st_.lambda_ / (2.0 * st_.sigma2) > _MAX_MEAN:  # past the closed forms' domain
        return
    # _law_at's masked branch: the nodes run to three times the saturation
    # point c/d, so two thirds of them have c - d x <= 0
    th = theta_coefficients(p)
    for coeffs, upper_tail in (((th.theta1, th.vartheta, th.theta3, th.theta2), False),
                               ((th.gamma_th, 0.0, 1.0, th.theta4), False),
                               ((1.0, 0.0, 1.0, p.kappa_d_sum), True)):
        a, b, c, d = coeffs
        x, _ = _chebyshev_on_interval(100, 3.0 * c / d)
        before = x.copy()
        assert (c - d * x <= 0.0).any()
        got = _law_at(x, *coeffs, st_, g, upper_tail)
        assert np.array_equal(_bits(got), _bits(_two_where_law_at(x, *coeffs, st_, g, upper_tail)))
        assert x.tobytes() == before.tobytes()


def test_cdf_against_model_law_samples():
    # implementation check against samples drawn from the modelled law
    # itself (Gaussian sum, squared and scaled)
    p = params_for(n=5)
    st_ = derive_stats(p)
    rng = np.random.default_rng(5)
    n_samp = 200_000
    x1 = rng.normal(math.sqrt(st_.lambda_), math.sqrt(st_.sigma2), n_samp)
    rho = np.sort(p.snr_d_linear * x1 ** 2)
    ks = ks_distance(rho, lambda xs: cdf_rho_d(xs, st_, p.snr_d_linear))
    assert ks < 1.628 / math.sqrt(n_samp)  # 1% significance


@given(st.floats(min_value=0.0, max_value=500.0),
       st.floats(min_value=0.1, max_value=300.0))
@settings(max_examples=100, deadline=None)
def test_cdf_rho_d_monotone(x, dx):
    st_ = derive_stats(params_for(n=5))
    assert cdf_rho_d(x + dx, st_, 10.0) >= cdf_rho_d(x, st_, 10.0)


def test_channel_stats_validation():
    with pytest.raises(ValueError):
        ChannelStats(lambda_=0.0, sigma2=1.0, lambda_e=1.0)
    with pytest.raises(ValueError):
        ChannelStats(lambda_=1.0, sigma2=-1.0, lambda_e=1.0)
