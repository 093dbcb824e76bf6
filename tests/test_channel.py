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
    ConvergenceError,
    LinkGeometry,
    SystemParams,
    _poisson_window,
    ccdf_rho_d,
    cdf_rho_d,
    derive_stats,
    pdf_rho_d,
)
from ris_secrecy.montecarlo import ks_distance


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
    # >= 1e-300, at every N (no window cap), and of scipy's noncentral
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


def test_cdf_methods_agree_on_random_triples():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(1, 33))
        p = params_for(n=n, snr_d_db=float(rng.uniform(-10.0, 30.0)))
        st_ = derive_stats(p)
        x = float(rng.uniform(0.0, 3.0) * p.snr_d_linear * (st_.lambda_ + 5 * st_.sigma2))
        a = cdf_rho_d(x, st_, p.snr_d_linear, method="marcum")
        b = cdf_rho_d(x, st_, p.snr_d_linear, method="series")
        assert abs(a - b) < 1e-8


def test_cdf_rho_d_limits_and_array_input():
    p = params_for(n=5)
    st_ = derive_stats(p)
    g = p.snr_d_linear
    assert cdf_rho_d(0.0, st_, g, method="series") == 0.0
    assert cdf_rho_d(0.0, st_, g, method="marcum") == pytest.approx(0.0, abs=1e-15)
    assert cdf_rho_d(1e6, st_, g) == pytest.approx(1.0, abs=1e-12)
    assert ccdf_rho_d(0.0, st_, g, method="series") == 1.0
    xs = np.array([0.0, 1.0, 10.0, 100.0])
    for method in ("marcum", "series"):
        cdf = cdf_rho_d(xs, st_, g, method=method)
        ccdf = ccdf_rho_d(xs, st_, g, method=method)
        assert cdf.shape == ccdf.shape == xs.shape
        assert np.all(np.diff(cdf) > 0.0)
        assert np.all(np.diff(ccdf) < 0.0)
    # the series kernel evaluates an array exactly as it does each element
    grid = xs.reshape(2, 2)
    for fn in (cdf_rho_d, ccdf_rho_d):
        out = fn(grid, st_, g, method="series")
        assert out.shape == grid.shape
        assert out.tolist() == [[fn(float(v), st_, g, method="series") for v in row]
                                for row in grid]
    with pytest.raises(ValueError):
        cdf_rho_d(1.0, st_, g, method="simpson")
    for method in ("marcum", "series"):
        for bad in (np.array([1.0, -1.0]), math.nan, np.array([1.0, math.nan])):
            for fn in (cdf_rho_d, ccdf_rho_d):
                with pytest.raises(ValueError, match="requires x >= 0"):
                    fn(bad, st_, g, method=method)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="requires x >= 0"):
            pdf_rho_d(bad, st_, g)


def _incomplete_gamma_matrix(x, st_, g, upper):
    """Reference: the mixture summed term by term, one incomplete gamma per (x, k)."""
    win = _poisson_window(st_.lambda_ / (2.0 * st_.sigma2))
    xs = np.asarray(x)
    terms = (sc.gammaincc if upper else sc.gammainc)(win.k + 0.5,
                                                     xs[..., None] / (2.0 * g * st_.sigma2))
    out = np.minimum((terms * win.w).sum(axis=-1), 1.0)
    return np.where(xs > 0.0, out, 1.0) if upper else out


@pytest.mark.parametrize("n", [1, 5, 64, 128])
def test_series_recurrence_matches_incomplete_gamma_matrix(n):
    p = params_for(n=n)
    st_ = derive_stats(p)
    g = p.snr_d_linear
    mean = g * (st_.lambda_ + st_.sigma2)
    # out to 40 sigma of X1, where the upper tail is below 1e-290
    far = g * (math.sqrt(st_.lambda_) + 40.0 * math.sqrt(st_.sigma2)) ** 2
    xs = np.concatenate([[0.0], np.geomspace(1e-12 * mean, far, 600), [math.inf]])
    for upper, fn in ((False, cdf_rho_d), (True, ccdf_rho_d)):
        ref = _incomplete_gamma_matrix(xs, st_, g, upper)
        got = fn(xs, st_, g, method="series")
        # relative where the reference is > 1e-290, absolute 1e-302 below
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(ref, 1e-290)), (upper, n)
    assert ccdf_rho_d(math.inf, st_, g, method="series") == 0.0


def _series_as_written(x, st_, g, upper, floor=-math.inf):
    """The series route as one expression, with every term whose exponent is <= ``floor`` at 0.0."""
    win = _poisson_window(st_.lambda_ / (2.0 * st_.sigma2))
    xs = np.asarray(x, dtype=float)
    u = np.minimum(xs / (2.0 * g * st_.sigma2), np.finfo(float).max)
    with np.errstate(divide="ignore"):
        log_u = np.log(u)[..., None]
    power = win.a * log_u - u[..., None] - win.log_gamma
    t = np.where(power > floor, np.exp(power), 0.0)
    if upper:
        end, coeff = sc.gammaincc(win.k[0] + 0.5, u), win.suffix
    else:
        end, coeff = sc.gammainc(win.k[-1] + 0.5, u), win.prefix
    out = np.minimum(end * win.total + (t * coeff).sum(axis=-1), 1.0)
    return np.where(xs > 0.0, out, 1.0) if upper else out


@pytest.mark.parametrize("n", [1, 5, 10, 64, 128])
def test_series_skips_only_terms_that_underflow_to_zero(n):
    # the kernel takes exp of every term, so the only terms it drops are
    # those exp itself gives as 0.0: its values are the written-out
    # expression's bits, and within 2^-1022 per window term (each scaled
    # by a prefix or suffix sum <= 1 + 3e-14), plus 4 ulps of the value,
    # of the expression that sets every term below 2^-1022 to 0.0
    p = params_for(n=n)
    st_ = derive_stats(p)
    g = p.snr_d_linear
    win = _poisson_window(st_.lambda_ / (2.0 * st_.sigma2))
    mean = g * (st_.lambda_ + st_.sigma2)
    far = g * (math.sqrt(st_.lambda_) + 40.0 * math.sqrt(st_.sigma2)) ** 2
    xs = np.concatenate([[0.0], np.geomspace(1e-12 * mean, 4.0 * far, 400), [math.inf]])
    u = xs[1:-1] / (2.0 * g * st_.sigma2)
    power = np.log(u)[:, None] * win.a - u[:, None] - win.log_gamma
    normal_floor = math.log(np.finfo(float).tiny)
    assert ((power > -746.0) & (power <= normal_floor)).any()  # terms exp gives as subnormals
    bound = win.k.size * 2.0 ** -1022 * (1.0 + 3e-14)

    def near_exact(got, exact):
        return np.all(np.abs(got - exact) <= bound + 4.0 * np.spacing(np.abs(exact)))

    for upper, fn in ((False, cdf_rho_d), (True, ccdf_rho_d)):
        grid = xs[:400].reshape(20, 20)
        for x in (xs, grid):
            got = fn(x, st_, g, "series")
            assert got.tobytes() == _series_as_written(x, st_, g, upper).tobytes()
            assert near_exact(got, _series_as_written(x, st_, g, upper, normal_floor)), (upper, n)
        for v in xs[::20].tolist() + [math.inf]:
            got = fn(v, st_, g, "series")
            assert type(got) is float
            assert got.hex() == float(_series_as_written(v, st_, g, upper)).hex(), (upper, v)
            assert near_exact(got, _series_as_written(v, st_, g, upper, normal_floor)), (upper, v)


# (N, snr_d dB) -> (x, cdf, ccdf) of the series route, x = g (mu + z sigma)^2
# for z in -12, -2, 0, 3, 10, 25 where mu + z sigma > 0
SERIES_PINS = {
    (1, -20.0): [
        (0.006168502750680849, 0.49442038625868073, 0.5055796137410556),
        (0.06982123659979457, 0.9986500866424892, 0.0013499133572497984),
        (0.48654908970006716, 0.99999999999974, 7.60972729955999e-24),
        (2.6439314386188286, 0.99999999999974, 4.032457791364236e-139),
    ],
    (1, 0.0): [
        (0.6168502750680849, 0.49442038625868073, 0.5055796137410556),
        (6.9821236599794565, 0.9986500866424892, 0.0013499133572497984),
        (48.654908970006716, 0.99999999999974, 7.60972729955999e-24),
        (264.39314386188283, 0.99999999999974, 4.0324577913644654e-139),
    ],
    (1, 40.0): [
        (6168.502750680849, 0.49442038625868073, 0.5055796137410556),
        (69821.23659979456, 0.998650086642491, 0.0013499133572498008),
        (486549.0897000672, 0.99999999999974, 7.609727299559954e-24),
        (2643931.438618828, 0.99999999999974, 4.0324577913644654e-139),
    ],
    (10, -20.0): [
        (0.1551681993673244, 0.022750131101720313, 0.9772498688978349),
        (0.6168502750680849, 0.49999999999999867, 0.4999999999995559),
        (1.8840979760170988, 0.9986501019683632, 0.0013498980311919889),
        (7.5230573527548685, 0.9999999999995551, 7.380442131882752e-24),
        (32.25048265423187, 0.9999999999995551, 8.475222956137434e-144),
    ],
    (10, 0.0): [
        (15.51681993673244, 0.022750131101720313, 0.9772498688978349),
        (61.68502750680849, 0.49999999999999867, 0.4999999999995559),
        (188.40979760170987, 0.9986501019683641, 0.0013498980311919936),
        (752.3057352754869, 0.9999999999995551, 7.380442131882752e-24),
        (3225.048265423187, 0.9999999999995551, 8.475222956137434e-144),
    ],
    (10, 40.0): [
        (155168.1993673244, 0.022750131101720313, 0.9772498688978349),
        (616850.2750680848, 0.49999999999999867, 0.4999999999995559),
        (1884097.9760170984, 0.9986501019683608, 0.0013498980311919904),
        (7523057.352754868, 0.9999999999995551, 7.380442131882857e-24),
        (32250482.654231865, 0.9999999999995551, 8.4752229561379e-144),
    ],
    (128, -20.0): [
        (2.7205120031094814, 9.787011921225805e-45, 0.9999999999991045),
        (74.86540993155708, 0.022750131947731348, 0.9772498680513987),
        (101.06474906715503, 0.49999999999954453, 0.499999999999553),
        (147.7202324892447, 0.9986501019678722, 0.00134989803119071),
        (290.913242494687, 0.9999999999991045, 6.119482225266833e-24),
        (759.5978506033042, 0.9999999999991045, 7.18010246148146e-157),
    ],
    (128, 0.0): [
        (272.0512003109481, 9.787011921225805e-45, 0.9999999999991045),
        (7486.540993155708, 0.022750131947731348, 0.9772498680513987),
        (10106.474906715503, 0.49999999999954453, 0.499999999999553),
        (14772.02324892447, 0.9986501019678722, 0.00134989803119071),
        (29091.324249468697, 0.9999999999991045, 6.119482225266833e-24),
        (75959.78506033043, 0.9999999999991045, 7.180102461480645e-157),
    ],
    (128, 40.0): [
        (2720512.003109481, 9.787011921225805e-45, 0.9999999999991045),
        (74865409.93155709, 0.022750131947731348, 0.9772498680513985),
        (101064749.06715503, 0.49999999999954453, 0.499999999999553),
        (147720232.4892447, 0.9986501019678722, 0.00134989803119071),
        (290913242.49468696, 0.9999999999991045, 6.119482225266833e-24),
        (759597850.6033041, 0.9999999999991045, 7.18010246148146e-157),
    ],
}


def test_series_route_pinned_values():
    # the series route's values at both tails, to 1e-14 relative
    for (n, snr_d_db), rows in SERIES_PINS.items():
        p = SystemParams(n_elements=n, snr_d_db=snr_d_db)
        st_, g = derive_stats(p), p.snr_d_linear
        for x, cdf, ccdf in rows:
            assert cdf_rho_d(x, st_, g, method="series") == pytest.approx(cdf, rel=1e-14, abs=0.0)
            assert ccdf_rho_d(x, st_, g, method="series") == pytest.approx(ccdf, rel=1e-14, abs=0.0)


def test_poisson_window_is_cached_and_read_only():
    mean = 7.3
    win = _poisson_window(mean)
    assert _poisson_window(mean) is win
    arrays = [v for v in win if isinstance(v, np.ndarray)]
    assert len(arrays) == 6
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_ccdf_complements_cdf():
    p = params_for(n=5)
    st_ = derive_stats(p)
    g = p.snr_d_linear
    for x in (0.0, 0.5, 20.0, 300.0):
        for method in ("marcum", "series"):
            total = cdf_rho_d(x, st_, g, method=method) + ccdf_rho_d(x, st_, g, method=method)
            assert total == pytest.approx(1.0, rel=1e-10)


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


def test_cdf_against_model_law_samples():
    # implementation check against samples drawn from the modelled law
    # itself (Gaussian sum, squared and scaled)
    p = params_for(n=5)
    st_ = derive_stats(p)
    rng = np.random.default_rng(5)
    n_samp = 200_000
    x1 = rng.normal(math.sqrt(st_.lambda_), math.sqrt(st_.sigma2), n_samp)
    rho = np.sort(p.snr_d_linear * x1 ** 2)
    ks = ks_distance(rho, lambda xs: cdf_rho_d(xs, st_, p.snr_d_linear, method="marcum"))
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


def test_series_convergence_failure_surfaces():
    # N=256 needs more than the 200 terms the window allows; the window
    # cache holds no failures, so every call raises (the pdf is elementary
    # and has no window: test_pdf_rho_d_is_the_exact_density takes N=256)
    p = params_for(n=256)
    st_ = derive_stats(p)
    for _ in range(2):
        with pytest.raises(ConvergenceError, match="no convergence after 200 terms"):
            cdf_rho_d(10.0, st_, p.snr_d_linear, method="series")
    with pytest.raises(ConvergenceError):
        ccdf_rho_d(10.0, st_, p.snr_d_linear, method="series")
