"""Simulator contracts: determinism, trial invariants, moment oracles."""

import math

import numpy as np
import pytest
from scipy import integrate

from ris_secrecy.channel import SystemParams, derive_stats
from ris_secrecy.montecarlo import (
    EstimateWithCI,
    McConfig,
    TrialOutcome,
    draw_chunks,
    empirical_cdf,
    estimate_asc,
    estimate_mean_sndr,
    estimate_sop,
    ks_distance,
    model_law_chunks,
    sample_quantity,
    sample_trial,
    simulate_metrics,
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


def test_stream_count_changes_partition_not_contract():
    p = params_for()
    a = estimate_sop(p, McConfig(trials=40_000, seed=9, stream_count=1))
    b = estimate_sop(p, McConfig(trials=40_000, seed=9, stream_count=8))
    # different partitions draw different numbers, but stay statistically
    # compatible
    assert abs(a.value - b.value) < 5.0 * math.hypot(a.std_error, b.std_error)


def test_sample_trial_fields_and_reproducibility():
    p = params_for()
    out1 = sample_trial(p, np.random.Generator(np.random.Philox(key=77)))
    out2 = sample_trial(p, np.random.Generator(np.random.Philox(key=77)))
    assert out1 == out2
    assert isinstance(out1, TrialOutcome)
    assert out1.rho_d >= 0.0 and out1.rho_e >= 0.0
    assert out1.r_s >= 0.0
    assert out1.gamma_d == pytest.approx(out1.rho_d / (0.02 * out1.rho_d + 1.0), rel=1e-14)


def test_zero_impairment_sndr_equals_gain():
    p = params_for(k2=0.0)
    out = sample_trial(p, np.random.Generator(np.random.Philox(key=5)))
    assert out.gamma_d == out.rho_d
    assert out.gamma_e == out.rho_e


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
    est = estimate_sop(p, McConfig(trials=10_000, seed=1))
    assert est.value == 1.0
    p2 = params_for(n=5, snr_d_db=0.0, snr_e_db=0.0)
    a = estimate_sop(p2, McConfig(trials=20_000, seed=40))
    b = estimate_sop(p2, McConfig(trials=20_000, seed=40))
    assert a == b
    assert 0.0 < a.value < 1.0
    assert a.std_error == pytest.approx(
        math.sqrt(a.value * (1.0 - a.value) / a.trials), rel=1e-12
    )


def test_asc_definitions_dominance():
    p = params_for(n=5, snr_d_db=0.0, snr_e_db=0.0)
    mc = McConfig(trials=100_000, seed=8)
    eq19 = estimate_asc(p, mc, definition="eq19")
    eq6 = estimate_asc(p, mc, definition="eq6")
    assert eq6.value >= eq19.value  # max(v,0) >= v trial by trial
    with pytest.raises(ValueError):
        estimate_asc(p, mc, definition="eq13")


def test_asc_vanishing_eavesdropper():
    # same seed -> identical destination draws, so the eq19 estimate
    # differs from E[log2(1+gamma_D)] only by the negligible E-link term
    p = params_for(k2=0.0, snr_e_db=-100.0)
    mc = McConfig(trials=100_000, seed=12)
    est = estimate_asc(p, mc, definition="eq19")
    gd = sample_quantity("gamma_d", p, mc)
    direct = float(np.log2(1.0 + gd).mean())
    assert abs(est.value - direct) < 1e-8


def test_standard_error_scaling():
    p = params_for(n=5, snr_d_db=0.0, snr_e_db=0.0)
    a = estimate_sop(p, McConfig(trials=50_000, seed=3))
    b = estimate_sop(p, McConfig(trials=200_000, seed=3))
    ratio = b.std_error / a.std_error
    assert 0.4 <= ratio <= 0.6  # quadrupling trials halves the SE within 20%


def test_empirical_cdf_shape():
    p = params_for()
    x, f = empirical_cdf("rho_d", p, McConfig(trials=10_000, seed=6))
    assert np.all(np.diff(x) >= 0.0)
    assert np.all(np.diff(f) > 0.0)
    assert f[-1] == 1.0
    with pytest.raises(ValueError):
        empirical_cdf("rho_q", p, McConfig(trials=10_000, seed=6))


def test_ks_distance_discriminates():
    rng = np.random.default_rng(0)
    x = np.sort(rng.standard_exponential(100_000))
    good = ks_distance(x, lambda xs: -np.expm1(-xs))
    bad = ks_distance(x, lambda xs: -np.expm1(-xs / 1.2))
    assert good < 0.006
    assert bad > 0.05


def test_sampled_distortion_noise_agrees_with_folded_sndr():
    # identical channel streams in both modes; the difference isolates
    # the distortion-noise folding step
    p = params_for(n=5, snr_d_db=10.0)
    mc = McConfig(trials=20_000, seed=19)
    folded = estimate_mean_sndr(p, mc, link="d", mode="folded")
    sampled = estimate_mean_sndr(p, mc, link="d", mode="sampled", n_symbols=4096)
    tol = 3.0 * math.hypot(folded.std_error, sampled.std_error)
    assert abs(folded.value - sampled.value) < tol


def test_sampled_distortion_noise_eavesdropper_link():
    p = params_for(n=5, snr_e_db=0.0)
    mc = McConfig(trials=20_000, seed=21)
    folded = estimate_mean_sndr(p, mc, link="e", mode="folded")
    sampled = estimate_mean_sndr(p, mc, link="e", mode="sampled", n_symbols=4096)
    tol = 3.0 * math.hypot(folded.std_error, sampled.std_error)
    assert abs(folded.value - sampled.value) < tol


def test_estimate_mean_sndr_validation():
    p = params_for()
    mc = McConfig(trials=1000, seed=0)
    with pytest.raises(ValueError):
        estimate_mean_sndr(p, mc, link="x")
    with pytest.raises(ValueError):
        estimate_mean_sndr(p, mc, mode="analytic")
