"""Simulator contracts: determinism, trial invariants, moment oracles."""

import collections
import contextlib
import dataclasses
import hashlib
import math
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from ris_secrecy import montecarlo
from ris_secrecy.channel import SystemParams, derive_stats
from ris_secrecy.montecarlo import (
    _BLOCK,
    _CHUNK,
    ESTIMATES,
    DrawSets,
    EstimateWithCI,
    LinkMemo,
    McConfig,
    _chunk_spans,
    _critical_snrs,
    draw_chunks,
    ks_distance,
    model_law_chunks,
    sample_quantity,
    simulate_metrics,
    simulate_points,
)


def params_for(n=5, snr_d_db=10.0, snr_e_db=-10.0, k2=0.01, c_th=1.0):
    return SystemParams(n_elements=n, kappa_d_t2=k2, kappa_d_r2=k2,
                        kappa_e_t2=k2, kappa_e_r2=k2,
                        snr_d_db=snr_d_db, snr_e_db=snr_e_db, c_th=c_th)


def test_mcconfig_validation():
    with pytest.raises(ValueError):
        McConfig(trials=999)
    with pytest.raises(ValueError):
        McConfig(stream_count=0)
    with pytest.raises(ValueError):
        McConfig(eav_mode="gaussian")
    with pytest.raises(ValueError):
        McConfig(seed=-1)
    # more streams than trials would only build empty streams
    with pytest.raises(ValueError, match="stream_count"):
        McConfig(trials=1000, stream_count=1001)
    assert McConfig(trials=1000, stream_count=1000).stream_count == 1000
    for kw in ({"trials": 2000.0}, {"trials": "1e5"}, {"seed": 1.0}, {"stream_count": "4"}):
        with pytest.raises(ValueError, match=next(iter(kw))):
            McConfig(**kw)
    assert McConfig(trials=np.int64(2000), seed=np.uint64(2 ** 63)).trials == 2000


def test_bitwise_determinism():
    p = params_for(snr_d_db=0.0, snr_e_db=0.0)
    mc = McConfig(trials=50_000, seed=123, stream_count=4)
    a = simulate_metrics(p, mc)
    b = simulate_metrics(p, mc)
    assert a == b  # exact equality, field by field
    c = simulate_metrics(p, McConfig(trials=50_000, seed=124, stream_count=4))
    assert c["asc_eq19"].value != a["asc_eq19"].value


def test_simulate_metrics_scores_a_given_draw_set_of_the_right_size():
    p = params_for()
    mc = McConfig(trials=3000, seed=4, stream_count=2)
    draws = list(draw_chunks(p.n_elements, mc))
    assert simulate_metrics(p, mc, draws) == simulate_metrics(p, mc)
    with pytest.raises(ValueError, match="trials"):
        simulate_metrics(p, mc, draws[:-1])
    with pytest.raises(ValueError, match="trials"):
        simulate_metrics(p, McConfig(trials=4000, seed=4, stream_count=2), draws)
    with pytest.raises(ValueError, match="eav_mode"):
        model_law_chunks(derive_stats(p), McConfig(trials=3000, eav_mode="phase_sum"))


def test_link_memo_serves_its_own_draw_set_only():
    # at 0 dB on both links about a third of the trials are outages
    p = params_for(snr_d_db=0.0, snr_e_db=0.0)
    mc = McConfig(trials=3000, seed=4, stream_count=2)
    draws = list(draw_chunks(p.n_elements, mc))
    memo = LinkMemo(draws)
    # a point whose eavesdropper SNR, threshold or estimates differ from
    # the previous point's replaces the memo's entry
    for q, keys in ((p, ESTIMATES), (params_for(snr_d_db=5.0, snr_e_db=0.0), ESTIMATES),
                    (params_for(snr_d_db=0.0, snr_e_db=0.0, c_th=2.0), ESTIMATES),
                    (p, ESTIMATES), (params_for(snr_d_db=0.0, snr_e_db=5.0), ESTIMATES),
                    (p, ("sop",)), (p, ("asc_eq6",)), (p, ESTIMATES)):
        assert (simulate_metrics(q, mc, draws, keys=keys, memo=memo)
                == simulate_metrics(q, mc, keys=keys))
    for other in (list(draws), None):
        with pytest.raises(ValueError, match="another draw set"):
            simulate_metrics(p, mc, other, memo=memo)


_DBL_MAX = sys.float_info.max
# One trial per special case of the outage rule (see _critical_snrs) as
# (params changed, X1^2, e, outage). Unless changed, N = 1, both links
# are at 0 dB, c_th = 1, kappa_d = 0.02 and kappa_e = 0, so T = 2 (1 + e)
# and kappa_d (T - 1) = 1 at e = 24.5.
_RULE_CASES = {
    "x1_sq-0": ({}, 0.0, 1.0, True),
    "x1_sq-least": ({}, 2.0 ** -1074, 1.0, True),
    "x1_sq-largest": ({}, _DBL_MAX, 1.0, False),
    # X1^2 (1/(T - 1) - kappa_d) overflows to -inf, and c to -0
    "x1_sq-largest-past-ridge": ({"kappa_d_t2": 0.9, "kappa_d_r2": 0.9}, _DBL_MAX, 1.0, True),
    "ridge-below": ({}, 1e20, 24.5 * (1.0 - 2.0 ** -40), False),
    "ridge-at": ({}, 1e20, 24.5, True),
    "ridge-past": ({}, 1e20, 25.0, True),
    "T-1": ({"c_th": 1e-17}, 1.0, 0.0, False),  # 2^c_th rounds to 1
    "T-inf": ({}, 1.0, _DBL_MAX, True),
    "kappa_d-0": ({"kappa_d_t2": 0.0, "kappa_d_r2": 0.0}, 4.0, 1.0, False),
}


def test_outage_rule_decides_each_special_case():
    base = SystemParams(n_elements=1, kappa_d_t2=0.01, kappa_d_r2=0.01)
    mc = McConfig(trials=1000, seed=0, stream_count=1)
    for name, (changes, x1_sq, e, outage) in _RULE_CASES.items():
        params = dataclasses.replace(base, **changes)
        draws = [(np.full(1000, x1_sq), np.full(1000, e))]
        for memo in (None, LinkMemo(draws)):
            with warnings.catch_warnings(record=True) as warned:
                warnings.simplefilter("always")
                est = simulate_metrics(params, mc, draws, keys=("sop",), memo=memo)
            assert est["sop"].value == outage, (name, memo)
            # only T's own product overflows, where T = inf
            assert ({str(w.message) for w in warned}
                    == ({"overflow encountered in multiply"} if name == "T-inf" else set())), name
        # counting on c raises no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            c = _critical_snrs(np.array([params.gamma_th * (1.0 + e)]), np.array([x1_sq]),
                               params.kappa_d_sum)
            assert np.count_nonzero(c > params.snr_d_linear) == outage, name


_KAPPA2 = st.sampled_from([0.0, 1e-300, 1e-4, 0.01, 0.1, 0.45, 0.999])
_SNR_DB = st.one_of(st.sampled_from([-3000.0, -10.0, 0.0, 10.0, 30.0, 3000.0]),
                    st.floats(-3000.0, 3000.0))
# gamma_th = 1 + 2^-52 at 3.3e-16; 2^1023.9 times 1 + gamma_E overflows
_C_TH = st.one_of(st.sampled_from([1e-17, 3.3e-16, 1e-9, 0.1, 1.0, 3.0, 1023.9]),
                  st.floats(1e-3, 30.0))
_E = st.one_of(st.sampled_from([0.0, 1e-300, 0.3, 1.0, 36.7]), st.floats(0.0, 40.0))
# relative distances of c from a sweep SNR s: at s, a few ulps away, inside
# the counted band, at its edges and past them
_OFFSETS = st.sampled_from([0.0] + [sign * d for sign in (1.0, -1.0) for d in (
    2.0 ** -52, 2.0 ** -40, 2.0 ** -25, 2.0 ** -24, 2.0 ** -23, 2.0 ** -20, 2.0 ** -19, 0.5)])
# relative distances of kappa_d (T - 1) from 1
_RIDGE = st.sampled_from([0.0] + [sign * 2.0 ** -k for sign in (1.0, -1.0)
                                  for k in (52, 44, 36, 28, 20)])


def _nudged(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.copysign(math.inf, ulps)))
    return x


@st.composite
def _outage_sweeps(draw):
    """Operating points and one chunk of trials whose critical SNRs c lie near their SNRs.

    The points sit at a few destination SNRs, then change each of the
    other parts of the threshold in turn: kappa_d, the eavesdropper SNR,
    c_th and kappa_e. Each trial puts c within a few ulps of a relative
    offset from one of those SNRs, puts kappa_d (T - 1) near 1, has s X1^2
    near the largest double, or is drawn at random.
    """
    base = SystemParams(n_elements=draw(st.sampled_from([1, 5])),
                        kappa_d_t2=draw(_KAPPA2), kappa_d_r2=draw(_KAPPA2),
                        kappa_e_t2=draw(_KAPPA2), kappa_e_r2=draw(_KAPPA2),
                        snr_e_db=draw(_SNR_DB), c_th=draw(_C_TH))
    snrs = draw(st.lists(_SNR_DB, min_size=1, max_size=4))
    d_scales = [dataclasses.replace(base, snr_d_db=v).snr_d_linear for v in snrs]
    e_scale, kappa = montecarlo._scales(base, "rayleigh")[1], base.kappa_d_sum
    x1_sq, e = [], []
    with np.errstate(all="ignore"):
        for _ in range(draw(st.integers(1, 20))):
            kind = draw(st.sampled_from(["near", "ridge", "raw", "overflow"]))
            s, e_i = draw(st.sampled_from(d_scales)), draw(_E)
            if kind == "ridge" and kappa > 0.0:
                # e that puts kappa_d (T - 1) at 1 + r: T, then gamma_E, then rho_E
                gamma_e = np.float64((1.0 + (1.0 + draw(_RIDGE)) / kappa) / base.gamma_th - 1.0)
                rho_e = gamma_e / (1.0 - base.kappa_e_sum * gamma_e)
                e_i = rho_e / e_scale if 0.0 <= rho_e / e_scale < math.inf else e_i
            threshold = montecarlo._one_plus_sndr(np.array([e_i]), e_scale,
                                                  base.kappa_e_sum)[0] * base.gamma_th
            x = draw(st.floats(0.0, 1e6) | st.floats(0.0, _DBL_MAX))
            if kind == "overflow":
                x = min(_DBL_MAX / s * (1.0 + draw(_OFFSETS)), _DBL_MAX)
            elif kind != "raw":
                # c = 1 / (X1^2 v) at s (1 + offset), give or take a few ulps
                v = 1.0 / (threshold - 1.0) - kappa
                near = 1.0 / (s * (1.0 + draw(_OFFSETS)) * v)
                if 0.0 <= near < math.inf:
                    x = max(_nudged(float(near), draw(st.integers(-3, 3))), 0.0)
            x1_sq.append(x)
            e.append(e_i)
    points = [dataclasses.replace(base, snr_d_db=v) for v in snrs]
    points += [dataclasses.replace(points[0], **{name: draw(values)}) for name, values in (
        ("kappa_d_t2", _KAPPA2), ("snr_e_db", _SNR_DB), ("c_th", _C_TH), ("kappa_e_t2", _KAPPA2))]
    return points, np.array(x1_sq), np.array(e)


@settings(max_examples=150, deadline=None)
@given(_outage_sweeps())
def test_outage_rule_agrees_with_the_direct_test_away_from_ties(case):
    # each trial's decision c > s against the direct test 1 + gamma_D < T,
    # another rounding of the same exact event, where c lies more than a
    # relative 2^-20 from s and both roundings are good to about 2^-23 in
    # s: the direct test meets no inf or NaN, and u (1/t + 7) / |w| <
    # 2^-23 for t = T - 1 and w = 1 - kappa_d t (to first order; Higham,
    # Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3)
    points, x1_sq, e = case
    for params in points:
        s, e_scale = montecarlo._scales(params, "rayleigh")
        kappa = params.kappa_d_sum
        with np.errstate(all="ignore"):
            threshold = montecarlo._one_plus_sndr(e, e_scale, params.kappa_e_sum) * params.gamma_th
            rho = s * x1_sq
            direct = 1.0 + rho / (kappa * rho + 1.0) < threshold
            t = threshold - 1.0
            sound = (np.isfinite(kappa * rho) & np.isfinite(rho)
                     & (1.0 / t + 7.0 < 2.0 ** 30 * np.abs(1.0 - kappa * t)))
            c = _critical_snrs(threshold, x1_sq, kappa)
        compared = sound & ~(np.abs(c - s) <= 2.0 ** -20 * s)
        np.testing.assert_array_equal((c > s)[compared], direct[compared], err_msg=repr(params))


# sha256 of every (X1^2, e) chunk of draw_chunks (numpy 2.4.6, x86-64),
# first with numpy's AVX512F float64 log loop and then with its plain one
# (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR AVX512_SKX
# AVX512_CLX AVX512_CNL AVX512F AVX512CD AVX512VL AVX512BW AVX512DQ"),
# which differ by one ulp in about 3.5 log values in 10^3. Keys: (N,
# stream_count, trials, eav_mode); seed 2024 + N. With blocks of 2^16
# amplitudes, N=300 at 1000 trials in one stream spans ten blocks and
# ends on a ragged one, and the _CHUNK + 1000 stream spans two chunks.
DRAW_DIGESTS = {
    (1, 1, 1000, "rayleigh"): (
        "c1123e53fd92ef9b20be5d992ea70b2e7ba2fcf72a042d6f7b21d208e112951a",
        "33f1146bc3263648f4c4e0fa2926b3e7f4a8204b9b233d4ca1efcdccdbffb85d"),
    (1, 3, 1000, "rayleigh"): (
        "69690ece6638039f052625e93c4657cfa41ae492218ee4e1973410ad227f6a97",
        "1851884aed1e707cb164c2d06b82cc2b126b577364fb674105facbf674588d7b"),
    (5, 1, 1000, "rayleigh"): (
        "e1b8e1cdfe180522402b59d903704f4197a370b58e543ec187035793d49e628b",
        "c1fda00ac0a0d54d39f484393dd4b5cb6e2ffc0fde76df311ce9d02219106df0"),
    (5, 3, 1000, "rayleigh"): (
        "e09b92b7f338ed4b4bb002abfd9b9124bb0aebc319fd90f5443949c7eb367c02",
        "b94b4a2f80f30cb92872666d6f72e3868391bfaaf8b840abda9c8f0426e3123e"),
    (300, 1, 1000, "rayleigh"): (
        "3271c3d9bf86427b0546299fc895bddc2d9c240f34a031be61b5e8336bce96a0",
        "e049cc4b2ca80e177cc97b99d06743b7f3f04c6e87f93c7345e4fb6d6aca3928"),
    (300, 3, 1000, "rayleigh"): (
        "04a85c2f94fab238f17cebaaf482402afec013ea5b21e44090f4b050a7329638",
        "69e7e66c05e148510388ae06da34d556a93e7cd37bdd62ac506e8fb28dc74351"),
    (5, 1, _CHUNK + 1000, "rayleigh"): (
        "48e0c74d9d4ba13cd38fff7ed403d46b1d50c3b9815d18d68c0832d578f8c0d6",
        "70eeac18e460dad81f4d813cf41d139787b474149d3da12213669f780a9bf5ce"),
    (1, 1, 1000, "phase_sum"): (
        "d898311623bc060d22eea3ea50b0c53b723d6887695a485d6f2809245ebfc8f0",
        "562b583672eafaf14edaf98f662b2755895871867fc1ca31747dbac04ab8083e"),
    (1, 3, 1000, "phase_sum"): (
        "9fc6bb15141e68a3484870dcb8c4ffed93a48b5094cc2efad986825f17e5ace6",
        "dc444b3d139e980ae3c571722dcad4510e03e1ee9f151b4d205527c21ba926d0"),
    (5, 1, 1000, "phase_sum"): (
        "11d2f7b01a2a88fa99be667e6dc79032c3e2e5f9cd62a66d206742108168ef02",
        "4ece4ffc54b750433d113b45a8019f52039d8de8e84cc9ee3accd8335b88878b"),
    (5, 3, 1000, "phase_sum"): (
        "4ed8399d533d34ea9e495441460d833d88ab748a2fb36c4cdb0853d879e1f6dd",
        "0e31b5ea9b6196b8bb2ac6f0226815505633a826128949ffd82d26e4ea03c986"),
    (300, 1, 1000, "phase_sum"): (
        "a600a4469cffeb71f51141c7297e652139e8121cad912ddbcf9c15b4d172f0c3",
        "9990dfe99f63bb0584ca9c10769213765b486a07471021178049a835a454e72a"),
    (300, 3, 1000, "phase_sum"): (
        "a3b052bd70ecc9f71893cd1a0ab040b03513ded93e344c7c48b6883532b52e23",
        "b2183aa5b34887b0646eb14ece1389854f78d6b81d8722fca2549956a8f81b31"),
    (5, 1, _CHUNK + 1000, "phase_sum"): (
        "1aa888f7e7faabacb7bc92124813e8d6bb94963043d2b2a41d8e94df55a7c901",
        "0e8ac7c7ca83edb4326248854656df5b44eaa6a05cdceda3aabfb7adc6629013"),
}


@pytest.mark.parametrize("key", list(DRAW_DIGESTS), ids=lambda k: "-".join(map(str, k)))
def test_draw_chunks_golden_digest(key):
    n, stream_count, trials, eav_mode = key
    mc = McConfig(trials=trials, seed=2024 + n, stream_count=stream_count, eav_mode=eav_mode)
    h = hashlib.sha256()
    for x1_sq, e in draw_chunks(n, mc):
        for a in (x1_sq, e):
            h.update(np.int64(a.size).tobytes())
            h.update(a.tobytes())
    assert h.hexdigest() in DRAW_DIGESTS[key]


# sha256 of every (X1^2, e) chunk of model_law_chunks at params_for(5)
# (numpy 2.4.6, x86-64; the same without numpy's AVX512 loops, since
# numpy's normal and exponential samplers do not go through its log
# ufunc). The model law keeps its Philox streams, so these bits are
# the ones ``selftest --strict-mc`` and
# test_oracle_matches_model_law_monte_carlo read. Keys: (seed,
# stream_count, trials); the last config's streams each span two chunks.
MODEL_LAW_DIGESTS = {
    (101, 1, 3000): "f94128666a555aa93fa732e61bee351432ecf80d0d90f4d8a87f4a8fe3138a69",
    (102, 3, 3000): "07e3656cf3eecc80e6fccb7117906cfd8b110ecec6a2c0b86d9b06c008959dd6",
    (3005, 4, 4 * _CHUNK + 1000): "2e80b5aeba823f025765c12b2e3d3fe7c2df23e3881d4f60f96608b98078eb8d",
}


@pytest.mark.parametrize("key", list(MODEL_LAW_DIGESTS), ids=lambda k: "-".join(map(str, k)))
def test_model_law_chunks_golden_digest(key):
    seed, stream_count, trials = key
    mc = McConfig(trials=trials, seed=seed, stream_count=stream_count)
    h = hashlib.sha256()
    for x1_sq, e in model_law_chunks(derive_stats(params_for(5)), mc):
        for a in (x1_sq, e):
            h.update(np.int64(a.size).tobytes())
            h.update(a.tobytes())
    assert h.hexdigest() == MODEL_LAW_DIGESTS[key]


# (value, std_error) of every simulate_metrics estimate. The asc values go
# through np.log2, whose float64 result may differ by 1 ULP between
# numpy's AVX512_SKX loop and its plain one (about 2 elements in 10^4),
# and the draws through np.log (see DRAW_DIGESTS); these sums came out the
# same on both loops (numpy 2.4.6, x86-64). Another numpy release may
# need new pins.
# Keys: (eav_mode, kappa^2, trials, stream_count); N=5, snr_d 5 dB,
# snr_e 0 dB, c_th 1, seed 31. The _CHUNK + 1000 stream spans two chunks.
SIMULATE_GOLDEN = {
    ("rayleigh", 0.0, 3000, 3): {
        "sop": (0.07066666666666667, 0.00467877793477773),
        "asc_eq19": (3.288488575983125, 0.027419326930114146),
        "asc_eq6": (3.2963486185204243, 0.02706540142089658)},
    ("rayleigh", 0.0, _CHUNK + 1000, 1): {
        "sop": (0.06567126744292098, 0.0004828817759206859),
        "asc_eq19": (3.3117774170409904, 0.0029386637865468886),
        "asc_eq6": (3.319536118067217, 0.002900387848895309)},
    ("rayleigh", 0.01, 3000, 3): {
        "sop": (0.10633333333333334, 0.00562810079143209),
        "asc_eq19": (2.4578865169798894, 0.021110734719540697),
        "asc_eq6": (2.463895141989817, 0.02084764546920196)},
    ("rayleigh", 0.01, _CHUNK + 1000, 1): {
        "sop": (0.10368467455081629, 0.0005942797876325705),
        "asc_eq19": (2.469807355914025, 0.002257757731300387),
        "asc_eq6": (2.475966714898441, 0.002227922413343286)},
    ("phase_sum", 0.0, 3000, 3): {
        "sop": (0.043666666666666666, 0.0037309466577482666),
        "asc_eq19": (3.347975608909561, 0.024740344591676497),
        "asc_eq6": (3.350859066985189, 0.024593987210981407)},
    ("phase_sum", 0.0, _CHUNK + 1000, 1): {
        "sop": (0.039210470312832514, 0.00037837150337769013),
        "asc_eq19": (3.3919584920366472, 0.0026438124979835547),
        "asc_eq6": (3.3944673275960326, 0.002630096493258284)},
    ("phase_sum", 0.01, 3000, 3): {
        "sop": (0.07866666666666666, 0.0049152220099815845),
        "asc_eq19": (2.5179339115773463, 0.0197359066323676),
        "asc_eq6": (2.5201459274734384, 0.019628790645790376)},
    ("phase_sum", 0.01, _CHUNK + 1000, 1): {
        "sop": (0.07658544371142796, 0.0005184116331835419),
        "asc_eq19": (2.5484356007183777, 0.0021083649287264553),
        "asc_eq6": (2.55035763103422, 0.0020984168509997556)},
}


@pytest.mark.parametrize("key", list(SIMULATE_GOLDEN), ids=lambda k: "-".join(map(str, k)))
def test_simulate_metrics_golden_estimates(key):
    eav_mode, k2, trials, stream_count = key
    p = params_for(n=5, snr_d_db=5.0, snr_e_db=0.0, k2=k2)
    mc = McConfig(trials=trials, seed=31, stream_count=stream_count, eav_mode=eav_mode)
    out = simulate_metrics(p, mc)
    got = {k: (est.value, est.std_error) for k, est in out.items()}
    assert got == SIMULATE_GOLDEN[key]
    assert all((est.trials, est.seed) == (trials, 31) for est in out.values())


def test_simulate_metrics_computes_only_the_requested_estimates():
    p = params_for()
    mc = McConfig(trials=3000, seed=4, stream_count=2)
    full = simulate_metrics(p, mc)
    for keys in (("sop",), ("asc_eq19",), ("asc_eq6",), ("asc_eq19", "sop")):
        assert simulate_metrics(p, mc, keys=keys) == {k: full[k] for k in keys}
    with pytest.raises(ValueError, match="estimates"):
        simulate_metrics(p, mc, keys=("sop", "ber"))


def _region_uniforms(seed, stream, region, first, m):
    """m uniforms on [0, 1) from words ``first`` on of one region, one raw 64-bit word each."""
    bit_gen = np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(stream, region)))
    bit_gen.advance(first)
    return (bit_gen.random_raw(m) >> np.uint64(11)) * 2.0 ** -53


def _reference_sums(n, seed, span, eav_mode):
    # the region table spelled out: every column from the raw words of its
    # region's generator, whole arrays, summed over the elements in order,
    # each product of two amplitudes formed under one root as the draw
    # forms it: f_R f_D = sqrt(log(1 - u_R) log(1 - u_D)). Returns the
    # running sum X1 and e (rayleigh) or X2 (phase_sum)
    stream, size, start, m = span

    def uniforms(region, first):
        return _region_uniforms(seed, stream, region, start + first, m)

    def logs(region, first):
        return np.log(1.0 - uniforms(region, first))

    x1, x2 = np.zeros(m), np.zeros(m, dtype=complex)
    for i in range(n):
        log_r = logs(0, 2 * i * size)
        x1 = x1 + np.sqrt(logs(0, (2 * i + 1) * size) * log_r)
        if eav_mode == "phase_sum":
            delta = uniforms(3, i * size) * (2.0 * math.pi) - math.pi
            x2 = x2 + np.exp(delta * 1j) * np.sqrt(logs(2, i * size) * log_r)
    if eav_mode == "rayleigh":
        return x1, -np.log(1.0 - uniforms(1, 0))
    return x1, x2


def _reference_draw_chunk(n, seed, span, eav_mode):
    x1, eav = _reference_sums(n, seed, span, eav_mode)
    return x1 ** 2, eav if eav_mode == "rayleigh" else np.abs(eav) ** 2


def _drawn(group, key, span, eav_mode, n0=0, sums=None):
    """The pairs of one chunk's draw, its arrays allocated as every draw allocates them."""
    return montecarlo._chunk_task(group, key, span, eav_mode, n0, sums)()


def _assert_same_pairs(got, want):
    assert len(got) == len(want)
    for pair, other in zip(got, want):
        for a, b in zip(pair, other):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("eav_mode", ["rayleigh", "phase_sum"])
@pytest.mark.parametrize("n, m", [(1, 7), (7, 9367), (300, 1), (300, 250), (1024, 65)])
def test_draw_chunk_equals_whole_array_reference(n, m, eav_mode):
    # blocked draws must read the layout's words: a stream that is one
    # chunk, where one generator reads a block's columns in a run, and a
    # chunk from the middle of a longer stream, where each column starts
    # at its own word
    for span in ((1, m, 0, m), (2, 3 * m + 5, m, m)):
        _assert_same_pairs(_drawn((n,), n + m, span, eav_mode),
                           [_reference_draw_chunk(n, n + m, span, eav_mode)])


@pytest.mark.parametrize("eav_mode", ["rayleigh", "phase_sum"])
def test_element_terms_are_the_inversion_product_to_two_ulps(eav_mode):
    # every f_R f_D (and f_R f_E) term of one block of 64 elements,
    # against the product of the two inversion amplitudes
    # sqrt(-log(1 - u)) from the regions' raw words: one root in place of
    # two moves a term by at most 2 ulp
    n, m = 64, 4000
    span = (2, 3 * m + 5, m, m)
    stream, size, start, _ = span
    buf = np.empty(montecarlo._block_floats(eav_mode, n, m))
    regions = montecarlo._chunk_regions(17, span, eav_mode, 0)
    x1_terms, _ = montecarlo._block_terms(regions, span, eav_mode, (0, n), buf)
    got = {"f_D": x1_terms}
    if eav_mode == "phase_sum":
        got["f_E"] = buf[4 * n * m:5 * n * m].reshape(n, m)  # the f_R f_E rows, after the phase

    def amplitudes(region, first):
        u = _region_uniforms(17, stream, region, start + first, m)
        return np.sqrt(-np.log(1.0 - u))

    for i in range(n):
        f_r = amplitudes(0, 2 * i * size)
        want = {"f_D": amplitudes(0, (2 * i + 1) * size) * f_r}
        if eav_mode == "phase_sum":
            want["f_E"] = amplitudes(2, i * size) * f_r
        for name, terms in got.items():
            row = terms[i]
            assert not np.isnan(row).any() and (row >= 0.0).all(), (name, i)
            assert (np.abs(row - want[name]) <= 2.0 ** -51 * want[name]).all(), (name, i)


GROUPS = [  # (group, m)
    ((1, 2), 7),
    ((3, 7), 9367),
    ((8, 16, 32, 64, 96, 128, 256, 512, 1024), 3000),
    ((1, 2, 4, 9, 18), 1),
    ((5, 10), 250),
    ((4, 512, 1024), 2101),
]


@pytest.mark.parametrize("group, m",
                         [pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in GROUPS])
def test_group_draw_equals_each_n_on_a_fresh_stream(group, m):
    span = (3, m, 0, m)
    _assert_same_pairs(_drawn(group, 3, span, "rayleigh"),
                       [_reference_draw_chunk(n, 3, span, "rayleigh") for n in group])


@pytest.mark.parametrize("eav_mode", ["rayleigh", "phase_sum"])
def test_group_draw_equals_each_n_alone_across_chunks(eav_mode):
    group = (1, 3, 5, 8, 13)
    mc = McConfig(trials=_CHUNK + 1000, seed=12, stream_count=1, eav_mode=eav_mode)
    alone = [list(draw_chunks(n, mc)) for n in group]
    spans = list(_chunk_spans(mc))
    assert len(spans) == 2
    for chunk, span in enumerate(spans):
        _assert_same_pairs(_drawn(group, mc.seed, span, eav_mode),
                           [chunks[chunk] for chunks in alone])


GROWN_ORDERS = {  # order: element columns each call draws per chunk, by eav_mode
    (5, 10, 15): {"rayleigh": [5, 5, 5], "phase_sum": [5, 10, 15]},
    (10, 5): {"rayleigh": [10, 5], "phase_sum": [10, 5]},
    (5, 10, 5): {"rayleigh": [5, 5, 5], "phase_sum": [5, 10, 5]},
    (5, 5, 10): {"rayleigh": [5, 0, 5], "phase_sum": [5, 0, 10]},
    (10, 10, 5): {"rayleigh": [10, 0, 5], "phase_sum": [10, 0, 5]},
}


@pytest.mark.parametrize("eav_mode", ["rayleigh", "phase_sum"])
@pytest.mark.parametrize("order", list(GROWN_ORDERS),
                         ids=["ascending", "descending", "5-10-5", "5-5-10", "10-10-5"])
def test_grown_sets_equal_fresh_draws(monkeypatch, order, eav_mode):
    # callers ask for the N of `order` in turn, as run_sweeps' curves do.
    # Two chunks in one stream; with two CPUs an extension by 5 columns
    # reads 10 (_CHUNK + 1000) >= _POOL_MIN words, so its chunks run on
    # workers
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    mc = McConfig(trials=_CHUNK + 1000, seed=8, stream_count=1, eav_mode=eav_mode)
    caller, draw_chunk, calls = threading.current_thread(), montecarlo._draw_chunk, []

    def recording(group, key, span, eav_mode, n0, *args):
        calls.append((group[-1] - n0, n0 if threading.current_thread() is not caller else 0))
        return draw_chunk(group, key, span, eav_mode, n0, *args)

    store, kept, columns, split_extensions = DrawSets(), None, [], []
    for n in order:
        monkeypatch.setattr(montecarlo, "_draw_chunk", recording)
        got = store.get(n, mc)
        monkeypatch.setattr(montecarlo, "_draw_chunk", draw_chunk)
        columns.append(sum(c for c, _ in calls))
        split_extensions += sorted({n0 for _, n0 in calls if n0})
        calls.clear()
        _assert_same_pairs(got, list(draw_chunks(n, mc)))
        # the kept list is handed out again for its N and, in rayleigh
        # mode, grown in place for a larger one
        if kept is not None and (kept[0] == n or (kept[0] < n and eav_mode == "rayleigh")):
            assert got is kept[1]
        # one set at a time: the last one handed out
        kept = (n, got)
        assert store.kept[0] == (mc, n) and store.kept[1] is got
    assert columns == [2 * c for c in GROWN_ORDERS[order][eav_mode]]
    # the first column of each extension that ran on workers
    assert split_extensions == ({(5, 10, 15): [5, 10], (10, 5): [], (5, 10, 5): [5],
                                 (5, 5, 10): [5], (10, 10, 5): []}[order]
                                if eav_mode == "rayleigh" else [])


# DrawSets grows a kept set by taking each chunk's running sum X1 back
# from its X1^2, so that sqrt must return X1 bit for bit
@pytest.mark.parametrize("eav_mode", ["rayleigh", "phase_sum"])
@pytest.mark.parametrize("n", [1, 5, 1024])
def test_sqrt_of_the_squared_running_sum_is_exact(n, eav_mode):
    m = 4000
    span = (1, 3 * m, m, m)
    sums = montecarlo._new_sums(span, eav_mode)
    [(x1_sq, _)] = _drawn((n,), n, span, eav_mode, 0, sums)
    assert x1_sq is sums[0]  # the running sum, squared in place
    x1 = _reference_sums(n, n, span, eav_mode)[0]
    assert x1_sq.tobytes() == np.square(x1).tobytes()
    assert np.sqrt(x1_sq).tobytes() == x1.tobytes()


# binary64 magnitudes whose rounded square is a finite normal number
_NORMAL_SQUARE = st.floats(min_value=2.0 ** -511, max_value=math.sqrt(sys.float_info.max))


@settings(max_examples=300, deadline=None)
@given(st.lists(_NORMAL_SQUARE, min_size=1, max_size=256), st.booleans())
def test_sqrt_of_a_rounded_square_is_exact(magnitudes, negate):
    x = np.array(magnitudes)
    if negate:
        x = -x
    assert np.sqrt(np.square(x)).tobytes() == np.abs(x).tobytes()


def _copied(chunks):
    return [tuple(a.copy() for a in pair) for pair in chunks]


@pytest.mark.parametrize("eav_mode", ["rayleigh", "phase_sum"])
def test_draws_do_not_depend_on_the_worker_count(monkeypatch, eav_mode):
    # five streams of 1000 trials, each in chunks of 700 and 300, so that
    # a chunk's columns are strided in its stream; every draw of the
    # three callers of the chunk map runs on as many workers as there
    # are usable CPUs: a fresh set, a set of 8 columns grown to 64 (drawn
    # afresh in phase_sum mode) and one grouped pass
    monkeypatch.setattr(montecarlo, "_POOL_MIN", 0)
    monkeypatch.setattr(montecarlo, "_CHUNK", 700)
    mc = McConfig(trials=5000, seed=4, stream_count=5, eav_mode=eav_mode)
    points = [params_for(n) for n in (1, 64, 8, 8)]
    ran_on, in_order = [], montecarlo._in_order

    def recording(tasks, workers):
        ran_on.append(workers)
        return in_order(tasks, workers)

    monkeypatch.setattr(montecarlo, "_in_order", recording)
    got = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda workers=workers: workers)
        store = DrawSets()
        got[workers] = (list(draw_chunks(64, mc)), _copied(store.get(8, mc)),
                        store.get(64, mc), simulate_points(points, mc))
        assert ran_on == [workers] * 4
        ran_on.clear()
    for workers in (2, 3):
        for drawn, want in zip(got[workers][:3], got[1][:3]):
            assert len(drawn) == 10
            _assert_same_pairs(drawn, want)
        assert got[workers][3] == got[1][3]
    _assert_same_pairs(got[1][2], got[1][0])
    assert got[1][3] == [simulate_metrics(p, mc) for p in points]


_PCG_MULTIPLIER = 0xDA942042E4DD58B5  # the 64-bit multiplier of PCG64DXSM's LCG step


def _steps(state: int, later: int, inc: int) -> int:
    """LCG steps, so words, from PCG64DXSM state ``state`` to ``later``.

    O'Neill's distance algorithm (the PCG C++ library's
    ``pcg_extras::distance``): fix the steps one bit at a time, from the
    lowest; 2^k steps are the LCG map squared k times.
    """
    mask, mult, plus, bit, steps = (1 << 128) - 1, _PCG_MULTIPLIER, inc, 1, 0
    while state != later:
        if (state ^ later) & bit:
            state = (state * mult + plus) & mask
            steps |= bit
        bit <<= 1
        plus = (mult + 1) * plus & mask
        mult = mult * mult & mask
    return steps


def _merged(runs):
    """Sorted ``(stream, region, lo, hi)`` word ranges with adjacent ones of a region joined."""
    out = []
    for stream, region, lo, hi in sorted(runs):
        if out and out[-1][:2] == (stream, region) and out[-1][3] == lo:
            out[-1] = (stream, region, out[-1][2], hi)
        else:
            out.append((stream, region, lo, hi))
    return out


class _Recording(np.random.PCG64DXSM):
    """A region's generator that logs its LCG state before and after each ``advance``."""

    def advance(self, delta):
        self.log.append(self.state["state"]["state"])
        super().advance(delta)
        self.log.append(self.state["state"]["state"])
        return self


@pytest.mark.parametrize("eav_mode", ["rayleigh", "phase_sum"])
@pytest.mark.parametrize("span", [(1, 250, 0, 250), (2, 700, 300, 250)], ids=["run", "strided"])
def test_draw_reads_one_word_per_value_at_its_layout_position(monkeypatch, eav_mode, span):
    # the runs of words each generator read, from its LCG states: the
    # seeded state, the state as the draw gets it, the states around each
    # advance past a gap, and the state the draw leaves
    made, region_at = [], montecarlo._region_at

    def recording(region, position):
        bit_gen = _Recording()
        bit_gen.state = {**region_at(region, position).state, "bit_generator": "_Recording"}
        bit_gen.log = [bit_gen.state["state"]["state"]]
        made.append((region, bit_gen))
        return bit_gen

    monkeypatch.setattr(montecarlo, "_region_at", recording)
    n, (stream, size, start, m) = 5, span
    _drawn((n,), 9, span, eav_mode)
    read = []
    for (seed, stream_i, region), bit_gen in made:
        assert seed == 9
        seeded = np.random.PCG64DXSM(np.random.SeedSequence(9, spawn_key=(stream_i, region)))
        inc = seeded.state["state"]["inc"]
        states = [*bit_gen.log, bit_gen.state["state"]["state"]]
        words = [_steps(seeded.state["state"]["state"], s, inc) for s in states]
        read += [(stream_i, region, lo, hi) for lo, hi in zip(words[::2], words[1::2]) if hi > lo]
    want = [(stream, 0, start + j * size) for j in range(2 * n)]  # f_R, f_D of each element
    if eav_mode == "rayleigh":
        want.append((stream, 1, start))
    else:
        want += [(stream, region, start + i * size) for region in (2, 3) for i in range(n)]
    assert _merged(read) == _merged((*w, w[2] + m) for w in want)


@pytest.mark.parametrize("eav_mode, arrays", [("rayleigh", 1.25), ("phase_sum", 2.25)])
def test_draw_chunk_peak_memory(eav_mode, arrays):
    # tracemalloc sees numpy's data buffers. One N alone never holds more
    # than `arrays` m x N float64 arrays; test_group_draw_peak_memory
    # holds a chunk's draw to the tighter block bound
    n, m = 1024, 4000
    tracemalloc.start()
    try:
        _drawn((n,), 0, (0, m, 0, m), eav_mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= arrays * m * n * 8


# bytes of the thread pool's threads, futures and deque that tracemalloc
# counts in a draw: _in_order over 33 tasks on two workers, each drawing
# nothing, peaked at 13.4-16.4 kB in 80 runs, on one CPU and on two
POOL_OBJECTS = 32 * 1024
# bytes of the Python objects of one chunk's draw on the calling thread:
# its generators, lists and tuples
DRAW_OBJECTS = 4 * 1024


@pytest.mark.parametrize("group", [(1024,), (512, 1024), (8, 16, 32, 64, 96, 128, 256, 512, 1024)],
                         ids=["1024", "512-1024", "large_n-grid"])
def test_group_draw_peak_memory(group):
    # tracemalloc sees numpy's data buffers. One chunk's draw holds each
    # N's X1^2 and e (2 m floats each, at most), its running sums (m
    # floats, 3 m in phase_sum mode) and its one block buffer: _BLOCK
    # floats, 2.5 _BLOCK in phase_sum mode. Nothing else: the products
    # with the strided f_R rows take no numpy iterator buffer, which a
    # whole-block product would take in phase_sum mode at 4000 trials (8
    # elements a block) and in both modes at 1000 (32 elements)
    for m in (4000, 1000):
        for eav_mode, sums, block in (("rayleigh", 1, _BLOCK), ("phase_sum", 3, 2.5 * _BLOCK)):
            tracemalloc.start()
            try:
                _drawn(group, 0, (0, m, 0, m), eav_mode)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= ((2 * len(group) + sums) * m + block) * 8 + DRAW_OBJECTS, \
                (m, eav_mode)


@pytest.mark.parametrize("eav_mode", ["rayleigh", "phase_sum"])
def test_block_terms_are_views_of_the_buffer_they_are_given(eav_mode):
    # a whole block and a last, shorter one, each from a stream that is
    # one chunk and from the middle of a longer one
    m, step = 300, 4
    for span in ((1, m, 0, m), (2, 3 * m + 5, m, m)):
        for block in ((0, step), (8, 11)):
            buf = np.empty(montecarlo._block_floats(eav_mode, step, m))
            regions = montecarlo._chunk_regions(7, span, eav_mode, block[0])
            rows = [r for r in montecarlo._block_terms(regions, span, eav_mode, block, buf)
                    if r is not None]
            assert len(rows) == (1 if eav_mode == "rayleigh" else 2)
            for r in rows:
                assert r.shape == (block[1] - block[0], m)
                assert np.shares_memory(r, buf)


@pytest.mark.parametrize("eav_mode", ["rayleigh", "phase_sum"])
@pytest.mark.parametrize("cpus", [2, 1], ids=["two-workers", "caller"])
def test_group_draw_reuses_one_buffer_per_block_in_flight(monkeypatch, eav_mode, cpus):
    # four chunks of 32 blocks of 8 elements. Each chunk draws every
    # block into the one buffer made for it on the calling thread, and
    # drops it before its result is taken; at most `cpus` chunks are in
    # flight, so at most that many buffers live at once
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
    caller = threading.current_thread()
    chunk_task, block_terms, in_order = (montecarlo._chunk_task, montecarlo._block_terms,
                                         montecarlo._in_order)
    made_on, buffers, taken = [], collections.defaultdict(list), []

    def recording_task(*args):
        made_on.append(threading.current_thread())
        return chunk_task(*args)

    def recording_terms(key, span, eav_mode, block, buf):
        buffers[span].append((id(buf), weakref.ref(buf)))
        return block_terms(key, span, eav_mode, block, buf)

    def recording_order(tasks, workers):
        pulled = []

        def counted():
            for task in tasks:
                pulled.append(None)
                yield task

        for k, result in enumerate(in_order(counted(), workers)):
            taken.append((len(pulled) - (k + 1), buffers[spans[k]][0][1]() is None))
            yield result

    monkeypatch.setattr(montecarlo, "_chunk_task", recording_task)
    monkeypatch.setattr(montecarlo, "_block_terms", recording_terms)
    monkeypatch.setattr(montecarlo, "_in_order", recording_order)
    m, n = 4000, 256
    mc = McConfig(trials=4 * m, seed=5, stream_count=4, eav_mode=eav_mode)
    spans = list(_chunk_spans(mc))
    pairs = list(draw_chunks(n, mc))
    assert made_on == [caller] * 4
    for span in spans:
        assert len(buffers[span]) == n // montecarlo._block_step(m) == 32
        assert len({buf_id for buf_id, _ in buffers[span]}) == 1
    # (chunks in flight, buffer dropped) as each result is taken
    assert [in_flight <= cpus and dropped for in_flight, dropped in taken] == [True] * 4
    _assert_same_pairs(pairs, [_reference_draw_chunk(n, 5, span, eav_mode) for span in spans])


@pytest.mark.parametrize("eav_mode", ["rayleigh", "phase_sum"])
def test_simulate_points_peak_memory(monkeypatch, eav_mode):
    # tracemalloc sees numpy's data buffers. Two chunks over the large_n
    # grid, on two workers at once. Each task holds its running sums (2 m
    # floats, 4 m in phase_sum mode), the pair of the N just reached (m
    # floats, 2 m in phase_sum mode; rayleigh mode's e is the sums' own),
    # the arrays that scoring it takes (three in PointAccumulator.update,
    # plus one of slack) and its block buffer. The traced window also
    # holds the pool's Python objects. A worker allocates nothing else: a
    # ufunc that mixed float and complex operands there would cast
    # through a 128 KiB buffer, counted or not as the scheduler overlaps
    # it with the other worker's scoring
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    m = 20_000
    mc = McConfig(trials=2 * m, seed=0, stream_count=2, eav_mode=eav_mode)
    points = [params_for(n) for n in (8, 16, 32, 64, 96, 128, 256, 512, 1024)]
    step = max(1, _BLOCK // (2 * m))
    sums, pair = (2, 1) if eav_mode == "rayleigh" else (4, 2)
    task = (sums + pair + 4) * m + montecarlo._block_floats(eav_mode, step, m)
    tracemalloc.start()
    try:
        simulate_points(points, mc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * task * 8 + POOL_OBJECTS


# a DrawSets that keeps an X1^2 array a worker allocated keeps it in that
# worker's malloc arena, which raised the figures workload's peak RSS by
# 2.2-2.6 MiB on two CPUs
@pytest.mark.parametrize("eav_mode", ["rayleigh", "phase_sum"])
def test_kept_draws_are_arrays_the_caller_allocated(monkeypatch, eav_mode):
    monkeypatch.setattr(montecarlo, "_POOL_MIN", 0)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    caller, new_sums, allocated, drawn_on = threading.current_thread(), montecarlo._new_sums, [], []

    def recording_sums(span, eav_mode):
        sums = new_sums(span, eav_mode)
        allocated.append((threading.current_thread(), sums))
        return sums

    draw_chunk = montecarlo._draw_chunk

    def recording_draw(*args):
        drawn_on.append(threading.current_thread())
        return draw_chunk(*args)

    monkeypatch.setattr(montecarlo, "_new_sums", recording_sums)
    monkeypatch.setattr(montecarlo, "_draw_chunk", recording_draw)
    mc = McConfig(trials=4000, seed=2, stream_count=4, eav_mode=eav_mode)
    store = DrawSets()
    for n in (5, 10):  # a fresh set, then one grown (rayleigh) or drawn afresh (phase_sum)
        chunks = store.get(n, mc)
        assert len(chunks) == 4 and caller not in drawn_on
        assert {thread for thread, _ in allocated} == {caller}
        for x1_sq, e in chunks:
            assert sum(np.shares_memory(x1_sq, sums[0]) and np.shares_memory(e, sums[1])
                       for _, sums in allocated) == 1


def _draw_through(caller: str, mc: McConfig) -> None:
    """Draw on ``mc`` through one caller of the chunk map; raise what the draw met."""
    if caller == "DrawSets":
        drawn = DrawSets().get(64, mc)
        if isinstance(drawn, Exception):
            raise drawn
    elif caller == "draw_chunks":
        with contextlib.closing(draw_chunks(64, mc)) as chunks:
            for _ in chunks:
                pass
    else:
        simulate_points([params_for(8), params_for(64)], mc)


CALLERS = ("DrawSets", "draw_chunks", "simulate_points")


def test_concurrent_split_fills_keep_their_own_streams(monkeypatch):
    # four callers, each with two workers of its own, on two or fewer
    # cores and with a short switch interval: no chunk may read another
    # draw's words or reach another caller
    monkeypatch.setattr(montecarlo, "_POOL_MIN", 0)
    mcs = [McConfig(trials=4 * 2101, seed=seed, stream_count=4) for seed in range(4)]
    points = [params_for(n) for n in (64, 256)]

    def draw(mc):
        return list(draw_chunks(256, mc)), simulate_points(points, mc)

    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
    want = {mc.seed: draw(mc) for mc in mcs}
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    got = {}

    def run(mc):
        got[mc.seed] = draw(mc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=run, args=(mc,)) for mc in mcs]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for mc in mcs:
        _assert_same_pairs(got[mc.seed][0], want[mc.seed][0])
        assert got[mc.seed][1] == want[mc.seed][1]


class _Interrupted(Exception):
    """Raised on purpose in the middle of a draw on workers."""


def _assert_draw_raises_and_leaves_no_thread(monkeypatch, caller, raised_on, on_caller):
    monkeypatch.setattr(montecarlo, "_POOL_MIN", 0)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    mc = McConfig(trials=5 * 2000, seed=5, stream_count=5)  # five chunks
    before = set(threading.enumerate())
    with pytest.raises(_Interrupted):
        _draw_through(caller, mc)
    assert raised_on, caller
    assert (raised_on[0] is threading.current_thread()) == on_caller, caller
    started = [t for t in threading.enumerate() if t not in before]
    for thread in started:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in started), caller


@pytest.mark.parametrize("where", ["worker"])
def test_draw_error_reaches_the_caller_and_leaves_no_thread(monkeypatch, where):
    # the chunks after the first stream's raise on their worker threads,
    # in each caller of the chunk map
    block_terms = montecarlo._block_terms
    for caller in CALLERS:
        raised_on = []

        def failing(key, span, eav_mode, block, buf):
            if span[0] > 0:
                raised_on.append(threading.current_thread())
                raise _Interrupted
            return block_terms(key, span, eav_mode, block, buf)

        monkeypatch.setattr(montecarlo, "_block_terms", failing)
        _assert_draw_raises_and_leaves_no_thread(monkeypatch, caller, raised_on, on_caller=False)


@pytest.mark.parametrize("where", ["rows", "bridge"])
def test_f_d_split_stops_its_worker_when_the_caller_raises(monkeypatch, where):
    # the caller raises while it takes a chunk's result: in "rows" the
    # first chunk's, while chunks are still to be submitted; in "bridge"
    # the last one's, after every chunk was submitted. simulate_points
    # merges each chunk's accumulators there, and a consumer of
    # draw_chunks that stops closes it
    chunks, in_order = 5, montecarlo._in_order
    for caller in ("draw_chunks", "simulate_points"):
        raised_on, taken = [], []

        def interrupted(tasks, workers):
            for result in in_order(tasks, workers):
                taken.append(result)
                if len(taken) == (1 if where == "rows" else chunks):
                    raised_on.append(threading.current_thread())
                    raise _Interrupted
                yield result

        monkeypatch.setattr(montecarlo, "_in_order", interrupted)
        _assert_draw_raises_and_leaves_no_thread(monkeypatch, caller, raised_on, on_caller=True)


def test_scoring_error_leaves_no_thread_while_it_is_kept(monkeypatch):
    # simulate_metrics draws its own chunks on workers; the error of a
    # point it could not score is kept with its traceback, as a sweep
    # keeps a row's error, and must not keep the pool's threads alive
    monkeypatch.setattr(montecarlo, "_POOL_MIN", 0)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)

    def failing(self, x1_sq, e):
        raise _Interrupted

    monkeypatch.setattr(montecarlo.PointAccumulator, "update", failing)
    before = set(threading.enumerate())
    with pytest.raises(_Interrupted) as kept:
        simulate_metrics(params_for(8), McConfig(trials=4000, stream_count=4))
    assert kept.value.__traceback__ is not None
    started = [t for t in threading.enumerate() if t not in before]
    for thread in started:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in started)


def test_draw_stays_on_the_caller_below_the_threshold_or_on_one_cpu(monkeypatch):
    caller, drawn_on, draw_chunk = threading.current_thread(), [], montecarlo._draw_chunk

    def recording(*args):
        drawn_on.append(threading.current_thread())
        return draw_chunk(*args)

    monkeypatch.setattr(montecarlo, "_draw_chunk", recording)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    # X1 reads 2 N trials words over the four chunks: just below the threshold
    trials = montecarlo._POOL_MIN // (2 * 64) - 1
    list(draw_chunks(64, McConfig(trials=trials, stream_count=4)))
    assert drawn_on == [caller] * 4
    # one chunk, however large
    list(draw_chunks(1024, McConfig(trials=4096, stream_count=1)))
    assert drawn_on == [caller] * 5
    # one CPU
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
    list(draw_chunks(1024, McConfig(trials=4096, stream_count=4)))
    assert drawn_on == [caller] * 9
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    list(draw_chunks(1024, McConfig(trials=4096, stream_count=4)))
    assert caller not in drawn_on[9:]


def test_extension_splits_on_the_words_it_draws(monkeypatch):
    # 64 columns read _POOL_MIN words over the four chunks, so a fresh
    # draw splits; growing a set of one column draws 63, below the threshold
    caller, drawn_on, draw_chunk = threading.current_thread(), [], montecarlo._draw_chunk

    def recording(*args):
        drawn_on.append(threading.current_thread())
        return draw_chunk(*args)

    monkeypatch.setattr(montecarlo, "_draw_chunk", recording)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    mc = McConfig(trials=-(-montecarlo._POOL_MIN // (2 * 64)), seed=1, stream_count=4)
    store = DrawSets()
    first = _copied(store.get(1, mc))
    drawn_on.clear()
    extended = store.get(64, mc)
    assert drawn_on == [caller] * 4
    fresh = list(draw_chunks(64, mc))
    assert caller not in drawn_on[4:]
    _assert_same_pairs(first, list(draw_chunks(1, mc)))
    _assert_same_pairs(extended, fresh)


def test_stream_count_changes_partition_not_contract():
    p = params_for()
    a = simulate_metrics(p, McConfig(trials=40_000, seed=9, stream_count=1), keys=("sop",))["sop"]
    b = simulate_metrics(p, McConfig(trials=40_000, seed=9, stream_count=8), keys=("sop",))["sop"]
    # different partitions draw different numbers, but stay statistically
    # compatible
    assert abs(a.value - b.value) < 5.0 * math.hypot(a.std_error, b.std_error)


def test_sample_quantity_sndr_map_and_reproducibility():
    p = params_for()
    mc = McConfig(trials=2000, seed=77)
    rho_d = sample_quantity("rho_d", p, mc)
    assert np.array_equal(rho_d, sample_quantity("rho_d", p, mc))
    assert rho_d.min() >= 0.0
    np.testing.assert_allclose(sample_quantity("gamma_d", p, mc),
                               rho_d / (0.02 * rho_d + 1.0), rtol=1e-14, atol=0.0)


def test_sampled_x1_does_not_depend_on_the_snr():
    # X1 is the sqrt of the drawn X1^2, whatever snr_d scales it by
    mc = McConfig(trials=2000, seed=3)
    x1 = np.sqrt(np.concatenate([x1_sq for x1_sq, _ in draw_chunks(5, mc)]))
    for snr_d_db in (0.0, 60.0, 3000.0, -3000.0):
        assert sample_quantity("x1", params_for(snr_d_db=snr_d_db), mc).tobytes() == x1.tobytes()


def test_eavesdropper_model_moves_the_single_element_sop():
    # at N = 1, phase_sum's X2^2 = E_R E_E is not exponential, and its
    # mc_sop stands 9.1 SE from rayleigh's (0.2528 against 0.2653 at
    # 2e5 trials, seed 5), so the mode still measures the exponential
    # eavesdropper model's error
    p = params_for(n=1)
    a, b = (simulate_metrics(p, McConfig(trials=200_000, seed=5, eav_mode=mode),
                             keys=("sop",))["sop"]
            for mode in ("rayleigh", "phase_sum"))
    assert abs(a.value - b.value) > 5.0 * math.hypot(a.std_error, b.std_error)


def test_zero_impairment_sndr_equals_gain():
    p = params_for(k2=0.0)
    mc = McConfig(trials=2000, seed=5)
    for link in ("d", "e"):
        assert np.array_equal(sample_quantity("gamma_" + link, p, mc),
                              sample_quantity("rho_" + link, p, mc))


def test_saturation_bound_holds_every_trial():
    p = params_for(k2=0.01)
    mc = McConfig(trials=100_000, seed=2)
    gd = sample_quantity("gamma_d", p, mc)
    ge = sample_quantity("gamma_e", p, mc)
    assert gd.max() < 1.0 / 0.02
    assert ge.max() < 1.0 / 0.02


def test_single_element_product_law():
    # N=1: X1^2 = E_R E_D with unit exponentials; CDF at 1 from the
    # deterministic double-integral oracle int_0^inf e^-t (1-e^{-1/t}) dt
    oracle, err = integrate.quad(
        lambda t: math.exp(-t) * -math.expm1(-1.0 / t), 0.0, math.inf, limit=400
    )
    assert err < 1e-8
    p = params_for(n=1, snr_d_db=0.0, k2=0.0)
    mc = McConfig(trials=1_000_000, seed=31)
    x = sample_quantity("rho_d", p, mc)
    p_hat = float((x <= 1.0).mean())
    se = math.sqrt(p_hat * (1.0 - p_hat) / mc.trials)
    assert abs(p_hat - oracle) < 3.0 * se


def test_moment_oracles_at_ten_million_trials():
    n = 5
    p = params_for(n=n)
    stats = derive_stats(p)
    mc = McConfig(trials=10_000_000, seed=17)
    x1 = sample_quantity("x1", p, mc)
    se_mean = x1.std() / math.sqrt(mc.trials)
    assert abs(x1.mean() - n * math.pi / 4.0) < 3.0 * se_mean
    var = x1.var()
    m4 = np.mean((x1 - x1.mean()) ** 4)
    se_var = math.sqrt(max(m4 - var ** 2, 0.0) / mc.trials)
    assert abs(var - stats.sigma2) < 3.0 * se_var
    # incoherent-sum power: E[X2^2] = N in phase-sum mode as well
    mc_ps = McConfig(trials=2_000_000, seed=18, eav_mode="phase_sum")
    x2sq = sample_quantity("rho_e", p, mc_ps) / p.snr_e_linear
    se2 = x2sq.std() / math.sqrt(mc_ps.trials)
    assert abs(x2sq.mean() - n) < 3.0 * se2


def test_rho_e_mean_and_exact_exponential_law():
    p = params_for(n=5, snr_e_db=-10.0)
    stats = derive_stats(p)
    mc = McConfig(trials=1_000_000, seed=23)
    x = np.sort(sample_quantity("rho_e", p, mc))
    se = x.std() / math.sqrt(mc.trials)
    assert abs(x.mean() - stats.lambda_e) < 3.0 * se
    ks = ks_distance(x, lambda xs: -np.expm1(-xs / stats.lambda_e))
    assert ks < 1.628 / math.sqrt(mc.trials)  # 1% significance


def test_estimate_sop_certain_outage_and_determinism():
    p = params_for(c_th=50.0)  # unreachable target rate
    est = simulate_metrics(p, McConfig(trials=10_000, seed=1), keys=("sop",))["sop"]
    assert est.value == 1.0
    p2 = params_for(n=5, snr_d_db=0.0, snr_e_db=0.0)
    a = simulate_metrics(p2, McConfig(trials=20_000, seed=40), keys=("sop",))["sop"]
    b = simulate_metrics(p2, McConfig(trials=20_000, seed=40), keys=("sop",))["sop"]
    assert a == b
    assert 0.0 < a.value < 1.0
    assert a.std_error == pytest.approx(
        math.sqrt(a.value * (1.0 - a.value) / a.trials), rel=1e-12
    )


def test_asc_definitions_dominance():
    p = params_for(n=5, snr_d_db=0.0, snr_e_db=0.0)
    mc = McConfig(trials=100_000, seed=8)
    est = simulate_metrics(p, mc, keys=("asc_eq19", "asc_eq6"))
    eq19, eq6 = est["asc_eq19"], est["asc_eq6"]
    assert eq6.value >= eq19.value  # max(v,0) >= v trial by trial
    with pytest.raises(ValueError):
        simulate_metrics(p, mc, keys=("asc_eq13",))


def test_asc_vanishing_eavesdropper():
    # same seed -> identical destination draws, so the eq19 estimate
    # differs from E[log2(1+gamma_D)] only by the negligible E-link term
    p = params_for(k2=0.0, snr_e_db=-100.0)
    mc = McConfig(trials=100_000, seed=12)
    est = simulate_metrics(p, mc, keys=("asc_eq19",))["asc_eq19"]
    gd = sample_quantity("gamma_d", p, mc)
    direct = float(np.log2(1.0 + gd).mean())
    assert abs(est.value - direct) < 1e-8


def test_standard_error_scaling():
    p = params_for(n=5, snr_d_db=0.0, snr_e_db=0.0)
    a = simulate_metrics(p, McConfig(trials=50_000, seed=3), keys=("sop",))["sop"]
    b = simulate_metrics(p, McConfig(trials=200_000, seed=3), keys=("sop",))["sop"]
    ratio = b.std_error / a.std_error
    assert 0.4 <= ratio <= 0.6  # quadrupling trials halves the SE within 20%


def test_empirical_cdf_shape():
    # the empirical CDF is the sorted draws against step heights i/n
    p = params_for()
    x = np.sort(sample_quantity("rho_d", p, McConfig(trials=10_000, seed=6)))
    f = np.arange(1, x.size + 1, dtype=float) / x.size
    assert x.shape == (10_000,) and np.all(x > 0.0)
    assert np.all(np.diff(x) >= 0.0)
    assert np.all(np.diff(f) > 0.0)
    assert f[-1] == 1.0
    with pytest.raises(ValueError):
        sample_quantity("rho_q", p, McConfig(trials=10_000, seed=6))


def test_ks_distance_discriminates():
    rng = np.random.default_rng(0)
    x = np.sort(rng.standard_exponential(100_000))
    good = ks_distance(x, lambda xs: -np.expm1(-xs))
    bad = ks_distance(x, lambda xs: -np.expm1(-xs / 1.2))
    assert good < 0.006
    assert bad > 0.05


def _folded_and_sampled_sndr(p, mc, link, n_symbols=256):
    """Per-trial SNDR of one link, with the distortion noise folded and sampled.

    The folded SNDR is ``sample_quantity``'s rho/(kappa rho + 1). The
    sampled one sends unit-power symbols through channel power rho
    (noise-normalised), so the per-symbol disturbance h eta_t + eta_r + n
    is CN(0, rho (kappa_t2 + kappa_r2) + 1). It is drawn from a Philox key
    of its own, and rho is divided by its mean power over ``n_symbols``
    symbols times n/(n - 1), which makes the sampled SNDR unbiased for the
    folded one at any n >= 2 (the mean of an inverse gamma). Both see the
    same channel draws, so their difference isolates the fold.
    """
    rho = sample_quantity("rho_" + link, p, mc)
    kappa = p.kappa_d_sum if link == "d" else p.kappa_e_sum
    rng = np.random.Generator(np.random.Philox(key=[mc.seed, 1]))
    sampled = np.empty_like(rho)
    for lo in range(0, rho.size, 2048):
        r = rho[lo:lo + 2048]
        w = rng.standard_normal((r.size, n_symbols)) ** 2
        w += rng.standard_normal((r.size, n_symbols)) ** 2
        w_bar = 0.5 * (kappa * r + 1.0) * w.mean(axis=1) * (n_symbols / (n_symbols - 1.0))
        sampled[lo:lo + r.size] = r / w_bar
    return sample_quantity("gamma_" + link, p, mc), sampled


def _assert_means_agree(folded, sampled):
    se = [x.std() / math.sqrt(x.size) for x in (folded, sampled)]
    assert abs(folded.mean() - sampled.mean()) < 3.0 * math.hypot(*se)


def test_sampled_distortion_noise_agrees_with_folded_sndr():
    p = params_for(n=5, snr_d_db=10.0)
    _assert_means_agree(*_folded_and_sampled_sndr(p, McConfig(trials=20_000, seed=19), "d"))


def test_sampled_distortion_noise_eavesdropper_link():
    p = params_for(n=5, snr_e_db=0.0)
    _assert_means_agree(*_folded_and_sampled_sndr(p, McConfig(trials=20_000, seed=21), "e"))
