"""Sweep configs, the run driver, table I/O and the command-line interface."""

import collections
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from ris_secrecy import cli, montecarlo, sweeps
from ris_secrecy.channel import ConvergenceError, LinkGeometry, SystemParams, derive_stats
from ris_secrecy.montecarlo import _CHUNK, McConfig, simulate_metrics
from ris_secrecy.secrecy import NumericsConfig
from ris_secrecy.sweeps import (
    CSV_COLUMNS,
    METRICS,
    ConfigError,
    PRESET_NAMES,
    Row,
    SweepSpec,
    _params_at,
    emit,
    load_config,
    load_preset,
    load_table,
    mc_gap,
    run_sweep,
    run_sweeps,
    save_config,
)


def base_params(**kw):
    defaults = dict(n_elements=5, kappa_d_t2=0.01, kappa_d_r2=0.01,
                    kappa_e_t2=0.01, kappa_e_r2=0.01,
                    snr_d_db=10.0, snr_e_db=-10.0, c_th=1.0)
    defaults.update(kw)
    return SystemParams(**defaults)


def small_spec(**kw):
    defaults = dict(
        axis="snr_d_db",
        values=(0.0, 10.0, 20.0),
        base=base_params(),
        outputs=("sop", "mc_sop"),
        numerics=NumericsConfig(quad_order=50),
        mc=McConfig(trials=2000, seed=11, stream_count=2),
    )
    defaults.update(kw)
    return SweepSpec(**defaults)


# --- spec validation ---------------------------------------------------------

def test_spec_validation_errors_name_the_field():
    with pytest.raises(ConfigError, match="values"):
        small_spec(values=())
    with pytest.raises(ConfigError, match="values"):
        small_spec(values=(0.0, 2.0, 1.0))
    with pytest.raises(ConfigError, match="axis"):
        small_spec(axis="bandwidth")
    with pytest.raises(ConfigError, match="outputs"):
        small_spec(outputs=())
    with pytest.raises(ConfigError, match="outputs"):
        small_spec(outputs=("sop", "ber"))
    with pytest.raises(ConfigError, match="kappa_convention"):
        small_spec(kappa_convention="db")


@pytest.mark.parametrize("values", [(5.0, 5.5, 6.0), (4, 5.0), (5, 6.5), (True, 2)])
def test_n_elements_axis_rejects_non_integer_values(values):
    # int(5.5) would silently score the 5.5 point as N=5
    with pytest.raises(ConfigError, match="values"):
        small_spec(axis="n_elements", values=values)


@pytest.mark.parametrize("values", [(0, True), ("0", "10"), (0.0, math.nan), (-math.inf, 0.0)],
                         ids=["bool", "strings", "nan", "inf"])
def test_other_axes_take_finite_real_values_only(values):
    # True once ran as an axis_value; strings failed on the monotone check
    with pytest.raises(ConfigError, match="^values: snr_d_db must be finite numbers"):
        small_spec(values=values)
    assert small_spec(values=(np.float32(0.0), 5, 10.0)).values[1] == 5


def test_n_elements_axis_accepts_numpy_integers():
    spec = small_spec(axis="n_elements", values=(np.int64(2), np.int32(5)), outputs=("sop",))
    assert [_params_at(spec, v).n_elements for v in spec.values] == [2, 5]


def test_descending_grid_is_allowed():
    spec = small_spec(values=(20.0, 10.0, 0.0), outputs=("sop",))
    assert [r.axis_value for r in run_sweep(spec)] == [20.0, 10.0, 0.0]


# --- axis application --------------------------------------------------------

def test_kappa2_axis_sets_all_four_levels():
    spec = small_spec(axis="kappa2", values=(0.0, 0.01, 0.1), outputs=("sop",))
    from ris_secrecy.sweeps import _params_at

    p = _params_at(spec, 0.1)
    assert (p.kappa_d_t2, p.kappa_d_r2, p.kappa_e_t2, p.kappa_e_r2) == (0.1,) * 4


def test_kappa_amplitude_convention_squares():
    spec = small_spec(axis="kappa2", values=(0.1,), outputs=("sop",),
                      kappa_convention="amplitude")
    from ris_secrecy.sweeps import _params_at

    p = _params_at(spec, 0.1)
    assert p.kappa_d_t2 == pytest.approx(0.01, rel=1e-14)


# --- run_sweep ---------------------------------------------------------------

def test_routes_cover_the_metrics_and_every_twin_takes_its_closed_form_arguments():
    mc_metrics = [f"mc_{m}" for m, route in sweeps.ROUTES.items() if route.mc]
    assert (*sweeps.ROUTES, *mc_metrics) == METRICS
    spec = load_preset("fig2")["n5"]  # at its base point
    stats = derive_stats(spec.base)
    for metric, route in sweeps.ROUTES.items():
        value = route.closed_form(spec.base, stats, spec.numerics)
        assert abs(route.twin(spec.base, stats, spec.numerics) - value) < 1e-6, metric


def test_run_sweep_row_layout_and_determinism():
    spec = small_spec()
    rows = run_sweep(spec)
    assert len(rows) == 6  # 3 points x 2 metrics
    # canonical metric order within each point
    assert [(r.axis_value, r.metric) for r in rows] == [
        (0.0, "sop"), (0.0, "mc_sop"),
        (10.0, "sop"), (10.0, "mc_sop"),
        (20.0, "sop"), (20.0, "mc_sop"),
    ]
    for r in rows:
        if r.metric == "sop":
            assert r.std_error is None and r.trials is None and r.error is None
        else:
            assert r.trials == 2000 and r.seed == 11 and r.std_error is not None
    assert rows == run_sweep(spec)


def test_run_sweep_records_per_point_errors():
    # theta4 < 0 breaks only the asymptotic metric; the sweep continues
    base = base_params(kappa_e_t2=0.05, kappa_e_r2=0.05,
                       kappa_d_t2=0.005, kappa_d_r2=0.005)
    spec = small_spec(base=base, outputs=("sop", "sop_asymptotic"))
    rows = run_sweep(spec)
    by_metric = {}
    for r in rows:
        by_metric.setdefault(r.metric, []).append(r)
    assert all(r.error is None and r.value is not None for r in by_metric["sop"])
    assert all(r.value is None and "theta4" in r.error for r in by_metric["sop_asymptotic"])


def test_c_th_past_1024_is_a_named_error_row():
    # 2.0 ** 2000 once surfaced as "(34, 'Numerical result out of range')"
    spec = small_spec(axis="c_th", values=(1000.0, 2000.0), outputs=("sop",))
    low, high = run_sweep(spec)
    assert low.error is None and low.value == 1.0
    assert high.value is None
    assert high.error.startswith("c_th must be > 0 and < 1024"), high.error


@pytest.mark.parametrize("axis", ["snr_d_db", "snr_e_db"])
def test_snr_past_3000_db_is_a_named_error_row(axis):
    # 10 ** 400 once surfaced as "(34, 'Numerical result out of range')" on
    # snr_d_db, and on snr_e_db made run_sweep itself raise OverflowError
    spec = small_spec(axis=axis, values=(0.0, 4000.0), outputs=("sop", "mc_sop"),
                      mc=McConfig(trials=2000, seed=1))
    rows = run_sweep(spec)
    assert [r.error is None for r in rows] == [True, True, False, False]
    assert all(r.error.startswith(f"{axis} must be finite and within") for r in rows[2:])


def test_run_sweep_mc_check_annotates_model_gaps():
    spec = small_spec(
        values=(10.0,),
        outputs=("sop",),
        numerics=NumericsConfig(quad_order=50, mc_check=True),
        mc=McConfig(trials=200_000, seed=3, stream_count=2),
    )
    rows = run_sweep(spec)
    # at this operating point the Gaussian-sum model gap far exceeds 3 SE
    assert rows[0].error is not None and "mc-gap" in rows[0].error


def _wilson_interval(outages, trials, z=3.0):
    p, z2 = outages / trials, z * z
    centre = (p + z2 / (2 * trials)) / (1 + z2 / trials)
    half = z / (1 + z2 / trials) * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    return centre - half, centre + half


@pytest.mark.parametrize("outages, trials", [(0, 100_000), (0, 2000), (37, 2000)])
def test_mc_gap_accepts_an_outage_probability_inside_the_wilson_interval(outages, trials):
    est = montecarlo.EstimateWithCI(outages / trials, 0.0, trials, 1)  # SE unused for the SOP
    lo, hi = _wilson_interval(outages, trials)
    cases = [(hi * (1 - 1e-9), True), (hi * (1 + 1e-9), False)]
    if outages:  # at 0 outages the interval starts at 0
        cases += [(lo * (1 + 1e-9), True), (lo * (1 - 1e-9), False)]
    for value, within in cases:
        assert mc_gap(value, est, outage=True)[2] is within, value
        note = sweeps._annotate_mc_gap(Row("snr_d_db", 0.0, "sop", value), {"sop": est}).error
        assert (note is None) is within
    # a rate keeps its estimate's own standard error
    rate = montecarlo.EstimateWithCI(2.0, 0.1, trials, 1)
    assert [mc_gap(v, rate, outage=False)[2] for v in (2.29, 2.31, 1.71, 1.69)] == [
        True, False, True, False]


def test_mc_check_at_zero_outages_passes_a_correct_sop_and_flags_a_model_gap():
    # 0 outages in 1e5 trials: the estimate's own SE is 0, but the Wilson
    # interval reaches 9.0e-5, so the channel's 2.7e-6 at fig2 n5, 12 dB
    # passes and the closed form's model-gapped 3.97e-3 there is flagged
    est = {"sop": montecarlo.EstimateWithCI(0.0, 0.0, 100_000, 1)}
    assert _wilson_interval(0, 100_000)[1] == pytest.approx(9.0e-5, rel=1e-3)
    assert sweeps._annotate_mc_gap(Row("snr_d_db", 20.0, "sop", 2.7e-6), est).error is None
    note = sweeps._annotate_mc_gap(Row("snr_d_db", 20.0, "sop", 3.97e-3), est).error
    assert note is not None and note.startswith("mc-gap 3.970e-03")


MC_AXES = (
    ("snr_d_db", (0.0, 10.0, 20.0)),
    ("snr_e_db", (-10.0, 0.0)),
    ("c_th", (0.5, 1.0, 2.0)),
    ("kappa2", (0.0, 0.01, 0.1)),
    ("n_elements", (2, 5)),
)


def assert_mc_rows_equal_direct_simulation(spec):
    rows = run_sweep(spec)
    assert len(rows) == len(spec.outputs) * len(spec.values)
    for r in rows:
        try:
            params = _params_at(spec, r.axis_value)
        except ValueError as exc:  # an invalid point keeps its error rows
            assert (r.value, r.error) == (None, str(exc))
            continue
        # all three estimates, drawn per point, with no memo
        direct = simulate_metrics(params, spec.mc)
        if r.metric in ("mc_sop", "mc_asc"):
            est = direct["sop" if r.metric == "mc_sop" else "asc_eq19"]
            assert (r.value, r.std_error, r.trials, r.seed, r.error) == (
                est.value, est.std_error, est.trials, est.seed, None)
        else:  # the mc-gap note is made from the same estimates
            assert r == sweeps._annotate_mc_gap(dataclasses.replace(r, error=None), direct)


@pytest.mark.parametrize("eav_mode", ["rayleigh", "phase_sum"])
@pytest.mark.parametrize("axis, values", MC_AXES)
def test_run_sweep_mc_rows_equal_per_point_simulation(axis, values, eav_mode):
    # one draw set per sweep, and on snr_d_db the eavesdropper's memo, must score
    # every point exactly as a per-point simulation with the same seed
    # does: on both grid directions, and with mc_check computing both
    # estimates (the sop row's mc-gap note reads the one not emitted)
    mc = McConfig(trials=3000, seed=11, stream_count=2, eav_mode=eav_mode)
    for grid in (values, values[::-1]):
        assert_mc_rows_equal_direct_simulation(
            small_spec(axis=axis, values=grid, outputs=("mc_sop", "mc_asc"), mc=mc))
        assert_mc_rows_equal_direct_simulation(
            small_spec(axis=axis, values=grid, outputs=("sop", "mc_asc"), mc=mc,
                       numerics=NumericsConfig(quad_order=50, mc_check=True)))


def test_run_sweep_mc_rows_equal_per_point_simulation_across_chunks():
    spec = small_spec(base=base_params(n_elements=2), values=(0.0, 10.0),
                      outputs=("mc_sop", "mc_asc"),
                      mc=McConfig(trials=_CHUNK + 1000, seed=11, stream_count=1))
    assert_mc_rows_equal_direct_simulation(spec)


@pytest.mark.parametrize("n_mc", [
    (3, 4, McConfig(trials=3000, seed=11, stream_count=2)),
    # N = 0 is an error point, which the grouped pass draws nothing for
    (0, 2, 4, McConfig(trials=3000, seed=11, stream_count=2)),
    (2, 5, McConfig(trials=_CHUNK + 1000, seed=11, stream_count=1)),  # two chunks per stream
], ids=["3-4", "0-2-4", "multi-chunk"])
def test_n_elements_sweep_mc_rows_equal_per_point_simulation(n_mc):
    # the grouped pass must score every point as a per-point simulation
    # does, on both grid directions and with mc_check computing both
    # estimates; MC_AXES holds the grouped (2, 5) grid in both modes
    *values, mc = n_mc
    for grid in (tuple(values), tuple(values[::-1])):
        spec = small_spec(axis="n_elements", values=grid, mc=mc)
        assert_mc_rows_equal_direct_simulation(
            dataclasses.replace(spec, outputs=("mc_sop", "mc_asc")))
        assert_mc_rows_equal_direct_simulation(
            dataclasses.replace(spec, outputs=("sop", "mc_asc"),
                                numerics=NumericsConfig(quad_order=50, mc_check=True)))


@pytest.mark.parametrize("axis, values", MC_AXES)
def test_run_sweep_draws_once_per_sweep_except_on_n_elements(monkeypatch, axis, values):
    drawn = []
    original = montecarlo._draw_chunk

    def counting(group, *args, **kwargs):
        drawn.append(group)
        return original(group, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "_draw_chunk", counting)
    spec = small_spec(axis=axis, values=values, outputs=("mc_sop",),
                      mc=McConfig(trials=2000, seed=11, stream_count=2))
    run_sweep(spec)
    # two streams of one chunk each per draw set; an n_elements sweep
    # draws each stream once for all its N
    if axis == "n_elements":
        assert drawn == [tuple(sorted(values))] * 2
    else:
        assert drawn == [(spec.base.n_elements,)] * 2

    # a draw that raises is tried once, and its error fills every mc row
    def failing(group, *args, **kwargs):
        drawn.append(group)
        raise MemoryError("no room for the draw")

    monkeypatch.setattr(montecarlo, "_draw_chunk", failing)
    drawn.clear()
    rows = run_sweep(spec)
    assert len(drawn) == 1
    assert [(r.metric, r.error) for r in rows] == [("mc_sop", "no room for the draw")] * len(values)


@pytest.mark.parametrize("axis, values", MC_AXES)
def test_run_sweep_scores_the_unswept_link_once_per_chunk(monkeypatch, axis, values):
    # every link is scored per chunk and point, save the eavesdropper's on
    # snr_d_db sweeps, which the sweep's memo scores once per chunk
    spec = small_spec(axis=axis, values=values, outputs=("mc_sop", "mc_asc"),
                      mc=McConfig(trials=2000, seed=11, stream_count=2))
    points = [_params_at(spec, v) for v in values]
    d_scales = {montecarlo._scales(p, "rayleigh")[0] for p in points}
    assert not d_scales & {montecarlo._scales(p, "rayleigh")[1] for p in points}
    scored = collections.Counter()
    original = montecarlo._one_plus_sndr

    def counting(unit, scale, kappa_sum):
        scored["d" if scale in d_scales else "e"] += 1
        return original(unit, scale, kappa_sum)

    monkeypatch.setattr(montecarlo, "_one_plus_sndr", counting)
    run_sweep(spec)
    chunks = 2  # two streams of one chunk each
    assert scored == {"d": chunks * len(values),
                      "e": chunks if axis == "snr_d_db" else chunks * len(values)}


@pytest.mark.parametrize("outputs, mc_check, bytes_per_trial", [
    (("mc_sop",), False, 28.0),
    (("mc_asc",), False, 28.0),
    (("mc_sop", "mc_asc"), False, 36.0),
    (("sop", "mc_asc"), True, 36.0),
], ids=["mc_sop", "mc_asc", "mc_sop_and_mc_asc", "mc_check"])
def test_run_sweep_peak_memory_per_trial(outputs, mc_check, bytes_per_trial):
    # tracemalloc sees numpy's data buffers. A stored draw set holds 16 B
    # per trial and the eavesdropper's memo 8 B for each of the critical
    # SNRs and the rates, so 16 B at most (the mc_check case computes
    # all three estimates); the rest is one chunk's scoring arrays (a
    # quarter of the trials per stream).
    trials = 1_000_000
    spec = small_spec(values=(0.0, 10.0, 20.0), outputs=outputs,
                      mc=McConfig(trials=trials, seed=11),
                      numerics=NumericsConfig(quad_order=50, mc_check=mc_check))
    tracemalloc.start()
    try:
        run_sweep(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / trials <= bytes_per_trial + 0.5


# sha256 of the Monte Carlo rows (axis value, metric, value, std_error,
# trials, seed) of each bundled preset curve at its own 1e5 trials. Like
# SIMULATE_GOLDEN in test_montecarlo.py, they hold with numpy 2.4.6 on
# x86-64 with and without its AVX512 log and log2 loops, but for fig6's
# kappa2_0p05 curve: the std_error of its mc_asc row at -4 dB differs by
# 2 ulp between the loops, so its pin is a pair, the AVX512F loop's first
# and the plain one's second (as in DRAW_DIGESTS).
PRESET_MC_DIGESTS = {
    ("fig2", "n5"): "8f48436c36c482a9076b464b89ee9e912844b8200c00ad84571799fe9cb1d28c",
    ("fig2", "n10"): "e9118cb510c644dd2ecf4d98877e26e1954a6655b296d9b76cb699afd0ce96e6",
    ("fig3", "snr_e_m10db"): "8f48436c36c482a9076b464b89ee9e912844b8200c00ad84571799fe9cb1d28c",
    ("fig3", "snr_e_0db"): "35bbf48f654d084457ba38de0757c7a7b543744e311d98956a19729c1b621c06",
    ("fig3", "snr_e_10db"): "b1ae21e15eff3c05c3b1f9b441d5ba784e757eef74787357139894dbd8d80399",
    ("fig4", "kappa2_0"): "d562d9914ac47815b4b12b69453534ec75c319972df0f109afe66ff38c89f48c",
    ("fig4", "kappa2_0p01"): "8f48436c36c482a9076b464b89ee9e912844b8200c00ad84571799fe9cb1d28c",
    ("fig4", "kappa2_0p1"): "43276543e3683dec44c7c64dd09956be06bbbaa65286df02cd4254d27b0a83d1",
    ("fig5", "n5"): "d7123e480dd08bcc8c78dc9960919045342b68a52c90dba0ba237a8d693b8630",
    ("fig5", "n10"): "dec86aff0fc0c3e68749fe354d813939397e340580b087627815ec8c8ac5fa62",
    ("fig5", "n15"): "8ed82d213bf7e732761a46555b153c8ec11daf52d6740f457173cfe27ad31cc8",
    ("fig6", "kappa2_0p01"): "d7123e480dd08bcc8c78dc9960919045342b68a52c90dba0ba237a8d693b8630",
    ("fig6", "kappa2_0p05"): (
        "f1f3492ef1f722d2c5d8eaa1ebec08a4316ef85057136ccca1f69af6b75a541e",
        "a4ba94ff23fe974b4fed87b6a4c8dcef09b0255280ec990b7fb28f09b05cf2a4"),
    ("fig6", "kappa2_0p1"): "c86a74a4dfd538ebedffca61e1663ee35b1285a347b999ed226476ac50d42e57",
}


def _pinned_digests(name: str, label: str) -> tuple:
    """The digests PRESET_MC_DIGESTS accepts for one preset curve."""
    pin = PRESET_MC_DIGESTS[name, label]
    return pin if isinstance(pin, tuple) else (pin,)


def _mc_digest(table) -> str:
    h = hashlib.sha256()
    for r in table:
        if r.metric in ("mc_sop", "mc_asc"):
            h.update(f"{float(r.axis_value)!r},{r.metric},{float(r.value).hex()},"
                     f"{float(r.std_error).hex()},{r.trials},{r.seed}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_mc_rows_golden_digest(name):
    curves = load_preset(name)
    assert {(name, label) for label in curves} == {k for k in PRESET_MC_DIGESTS if k[0] == name}
    for label, spec in curves.items():
        table = run_sweep(spec)
        assert sum(r.metric in ("mc_sop", "mc_asc") for r in table) == len(spec.values)
        assert _mc_digest(table) in _pinned_digests(name, label), label


# --- run_sweeps: one draw store, grown across N -------------------------------

@pytest.mark.parametrize("name", PRESET_NAMES)
def test_run_sweeps_tables_equal_per_curve_run_sweep(name):
    curves = load_preset(name)
    tables = list(run_sweeps(curves.values()))
    assert tables == [run_sweep(spec) for spec in curves.values()]
    for label, table in zip(curves, tables):
        assert _mc_digest(table) in _pinned_digests(name, label), label


def count_draws(monkeypatch) -> collections.Counter:
    """Patch the draw to count, per (seed, stream), element columns, N sets and e draws."""
    counts, draw_chunk = collections.Counter(), montecarlo._draw_chunk

    def counting_draw(group, key, span, eav_mode, n0, *args):
        counts[key, span[0], "columns"] += group[-1] - n0
        counts[key, span[0], "sets"] += len(group)
        counts[key, span[0], "e"] += n0 == 0 and eav_mode == "rayleigh"
        return draw_chunk(group, key, span, eav_mode, n0, *args)

    monkeypatch.setattr(montecarlo, "_draw_chunk", counting_draw)
    return counts


def per_stream(seeds, streams, columns, sets, e=1) -> dict:
    """The counts of :func:`count_draws` when each stream is one chunk and draws e ``e`` times."""
    return {(seed, stream, what): count for seed in seeds for stream in range(streams)
            for what, count in (("columns", columns), ("sets", sets), ("e", e))}


@pytest.mark.parametrize("name, sets", [("fig2", 2), ("fig3", 1), ("fig4", 1),
                                        ("fig5", 3), ("fig6", 1)])
def test_cli_preset_makes_one_draw_set_per_n_and_mc_config(tmp_path, monkeypatch, name, sets):
    # one McConfig per preset, whose set is grown across N: each stream
    # draws the element columns of the largest N once, and e once
    columns = {"fig2": 10, "fig3": 5, "fig4": 5, "fig5": 15, "fig6": 5}[name]
    counts = count_draws(monkeypatch)
    assert cli.main(["preset", name, "--out-dir", str(tmp_path), "--trials", "1000"]) == 0
    seeds = {spec.mc.seed for spec in load_preset(name).values()}
    assert counts == per_stream(seeds, 4, columns, sets)


def test_run_sweeps_holds_at_most_one_draw_set(monkeypatch):
    specs = [small_spec(base=base_params(n_elements=n)) for n in (5, 10, 5)]
    stores, original = [], sweeps.run_sweep

    def spy(spec, store=None):
        stores.append(store)
        return original(spec, store)

    monkeypatch.setattr(sweeps, "run_sweep", spy)
    counts = count_draws(monkeypatch)
    held = []
    for _ in run_sweeps(specs):
        (mc, n), chunks = stores[0].kept
        held.append((mc == specs[0].mc, n, len(chunks)))
    assert all(store is stores[0] for store in stores)
    # one store, which holds the last set it handed out and nothing else:
    # the N=5 set, grown in place to N=10, then a fresh N=5 set
    assert vars(stores[0]).keys() == {"kept", "failed"} and not stores[0].failed
    assert held == [(True, 5, 2), (True, 10, 2), (True, 5, 2)]
    # N=10 drew its last 5 columns only, and the smaller N=5 after it is
    # drawn afresh, e included
    assert counts == per_stream({11}, 2, 15, 3, e=2)


def test_run_sweeps_tries_a_failed_draw_once_per_key(monkeypatch):
    drawn, draw_chunk = [], montecarlo._draw_chunk

    def failing(group, key, span, *args):  # only seed 12 draws
        if span[0] == 0:  # a set's draw starts with stream 0, on any worker count
            drawn.append((key, group))
        if key != 12:
            raise MemoryError("no room for the draw")
        return draw_chunk(group, key, span, *args)

    monkeypatch.setattr(montecarlo, "_draw_chunk", failing)
    curves = load_preset("fig3")  # three curves on one (N, McConfig)
    tables = list(run_sweeps(curves.values()))
    assert len(tables) == 3 and len(drawn) == 1
    for table in tables:
        mc_rows = [r for r in table if r.metric.startswith("mc_")]
        assert len(mc_rows) == 21
        assert all(r.value is None and r.error == "no room for the draw" for r in mc_rows)
    # McConfig A fails, B draws, and A's second curve gets A's error untried
    drawn.clear()
    specs = [small_spec(mc=McConfig(trials=2000, seed=seed, stream_count=2))
             for seed in (11, 12, 11)]
    tables = list(run_sweeps(specs))
    assert drawn == [(11, (5,)), (12, (5,))]
    for seed, table in zip((11, 12, 11), tables):
        mc_rows = [(r.value is None, r.error) for r in table if r.metric == "mc_sop"]
        assert mc_rows == [(seed == 11, "no room for the draw" if seed == 11 else None)] * 3
    assert tables[1] == run_sweep(specs[1])


def test_run_sweeps_failed_extension_leaves_no_partial_sums(monkeypatch):
    # the first extension, from N=5 to 10, raises on the second of its two
    # chunks, after the first chunk's running sums took their new columns
    specs = [small_spec(base=base_params(n_elements=n)) for n in (5, 10, 10, 5, 15)]
    want = [run_sweep(spec) for spec in specs]
    failed, extensions, draw_chunk = [], [], montecarlo._draw_chunk

    def failing(group, key, span, eav_mode, n0, *args):
        pairs = draw_chunk(group, key, span, eav_mode, n0, *args)
        if n0 > 0:
            extensions.append((n0, group))
            if span[0] == 1 and not failed:
                failed.append(group)
                raise MemoryError("no room for the draw")
        return pairs

    monkeypatch.setattr(montecarlo, "_draw_chunk", failing)
    tables = list(run_sweeps(specs))
    # tried once, for both N=10 curves
    assert failed == [(10,)]
    for table in tables[1:3]:
        assert [(r.metric, r.value, r.error) for r in table if r.metric == "mc_sop"] == \
            [("mc_sop", None, "no room for the draw")] * 3
    # the second N=5 curve draws afresh and keeps new sums, which N=15
    # extends, not the half-extended ones
    assert extensions == [(5, (10,))] * 2 + [(5, (15,))] * 2
    assert tables[0] == want[0] and tables[3] == want[3] and tables[4] == want[4]


def test_run_sweeps_does_not_share_across_seeds(monkeypatch):
    specs = [small_spec(mc=McConfig(trials=2000, seed=seed, stream_count=2)) for seed in (11, 12)]
    counts = count_draws(monkeypatch)
    tables = list(run_sweeps(specs))
    assert counts == per_stream({11, 12}, 2, 5, 1)
    assert tables == [run_sweep(spec) for spec in specs]


def test_run_sweeps_peak_memory_per_trial():
    # tracemalloc sees numpy's data buffers. Curves at N = 5, 10, 15 grow
    # one set in place: while a curve scores, the store holds its set (16 B
    # per trial) and the curve's memo 8 B, and the rest is one chunk's
    # scoring arrays, test_run_sweep_peak_memory_per_trial's 28 B. Growth
    # turns a chunk's X1^2 back into X1 in place, so it holds no more
    trials = 1_000_000
    specs = [small_spec(base=base_params(n_elements=n), outputs=("mc_sop",),
                        mc=McConfig(trials=trials, seed=11)) for n in (5, 10, 15)]
    tracemalloc.start()
    try:
        list(run_sweeps(specs))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / trials <= 28.0 + 0.5


@pytest.mark.parametrize("order", [(5, 5, 5), (15, 10, 5), (5, 10, 5)],
                         ids=["5-5-5", "15-10-5", "5-10-5"])
def test_run_sweeps_peak_memory_holds_one_n(order):
    # tracemalloc sees numpy's data buffers. The store holds one set at a
    # time: the N=5 set for the next N=5 curve (5-5-5) or for the N=10
    # curve that grows it (5-10-5), and it drops a set before it draws a
    # smaller N (15-10-5), within the scoring curve's 28 B of
    # test_run_sweep_peak_memory_per_trial
    trials = 1_000_000
    specs = [small_spec(base=base_params(n_elements=n), outputs=("mc_sop",),
                        mc=McConfig(trials=trials, seed=11)) for n in order]
    tracemalloc.start()
    try:
        list(run_sweeps(specs))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / trials <= 28.0 + 0.5


def test_run_sweeps_peak_memory_holds_one_mc_config(monkeypatch):
    # tracemalloc sees numpy's data buffers. Curves of McConfigs A, B, A:
    # the store drops A's set before it draws B's, and redraws A's for the
    # third curve, so it never holds two sets
    trials = 1_000_000
    specs = [small_spec(outputs=("mc_sop",), mc=McConfig(trials=trials, seed=seed))
             for seed in (11, 12, 11)]
    counts = count_draws(monkeypatch)
    tracemalloc.start()
    try:
        list(run_sweeps(specs))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / trials <= 28.0 + 0.5
    assert counts == {**per_stream({11}, 4, 10, 2, e=2), **per_stream({12}, 4, 5, 1)}


def test_run_sweeps_peak_memory_holds_no_set_through_an_n_elements_curve():
    # tracemalloc sees numpy's data buffers. The snr_d_db curve's N=5 set
    # is dropped before the n_elements curve's grouped pass draws
    trials = 1_000_000
    mc = McConfig(trials=trials, seed=11)
    specs = [small_spec(outputs=("mc_sop",), mc=mc),
             small_spec(axis="n_elements", values=(5, 10), outputs=("mc_sop",), mc=mc)]
    tracemalloc.start()
    try:
        list(run_sweeps(specs))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / trials <= 28.0 + 0.5


@pytest.mark.parametrize("eav_mode", ["rayleigh", "phase_sum"])
@pytest.mark.parametrize("order", [(15, 10, 5), (5, 10, 5), (10, 5, 10), (5, 5, 10), (10, 10, 5)],
                         ids=lambda order: "-".join(map(str, order)))
def test_run_sweeps_tables_equal_per_curve_run_sweep_in_any_n_order(order, eav_mode):
    # curves of two McConfigs interleaved; the one store redraws each
    # curve's set, since the curve before it has the other McConfig
    mcs = [McConfig(trials=3000, seed=seed, stream_count=2, eav_mode=eav_mode)
           for seed in (11, 12)]
    specs = [small_spec(base=base_params(n_elements=n), outputs=("sop", "mc_sop", "mc_asc"), mc=mc)
             for n in order for mc in mcs]
    assert list(run_sweeps(specs)) == [run_sweep(spec) for spec in specs]


# --- table I/O ---------------------------------------------------------------

def test_emit_and_reload_round_trip(tmp_path):
    rows = [
        Row("snr_d_db", 0.0, "sop", 0.1234567890123),
        Row("snr_d_db", 0.0, "mc_sop", 0.12, 0.001, 2000, 11),
        Row("snr_d_db", 2.0, "sop_asymptotic", None, error="theta4 <= 0"),
    ]
    for fmt in ("csv", "json"):
        path = tmp_path / f"t.{fmt}"
        emit(rows, fmt, path)
        assert load_table(path, fmt) == rows


_HEADER = ",".join(CSV_COLUMNS)


@pytest.mark.parametrize("lines, match", [
    ([_HEADER, "snr_d_db,0.0,sop,0.5,,,,,extra"], r"row 1: 9 cells, expected 8"),
    ([_HEADER, "snr_d_db,0.0,sop,0.5,,,,", "snr_d_db,2.0,sop"], r"row 2: 3 cells, expected 8"),
    ([_HEADER, "snr_d_db,0.0,sop,0.5,,,"], r"row 1: 7 cells, expected 8"),
    ([_HEADER, "snr_d_db,zero,sop,0.5,,,,"], r"row 1: could not convert"),
    (["axis,axis_value,metric,value"], r"unexpected CSV header"),
    ([], r"unexpected CSV header None"),
], ids=["long-row", "short-row", "one-cell-short", "bad-cell", "header", "empty"])
def test_load_table_rejects_a_malformed_csv_naming_path_and_row(tmp_path, lines, match):
    path = tmp_path / "t.csv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(ConfigError, match=match) as info:
        load_table(path, "csv")
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("entry, match", [
    ({"axis": "snr_d_db", "axis_value": 0.0, "metric": "sop", "value": 0.5, "note": 1},
     "unexpected keyword argument 'note'"),
    ({"axis": "snr_d_db", "axis_value": 0.0, "metric": "sop"}, "missing 1 required"),
    (["snr_d_db", 0.0, "sop", 0.5], "must be a mapping"),
    ({"axis": "snr_d_db", "axis_value": "zero", "metric": "sop", "value": "abc"},
     "axis_value must be float, got 'zero'"),
], ids=["unknown-key", "missing-key", "not-a-mapping", "string-values"])
def test_load_table_rejects_a_malformed_json_entry_naming_path_and_row(tmp_path, entry, match):
    path = tmp_path / "t.json"
    good = dataclasses.asdict(Row("snr_d_db", 0.0, "sop", 0.5))
    path.write_text(json.dumps([good, entry]), encoding="utf-8")
    with pytest.raises(ConfigError, match=match) as info:
        load_table(path, "json")
    assert str(info.value).startswith(f"{path}: row 2: ")


def test_emit_csv_schema_and_determinism(tmp_path):
    spec = small_spec(values=(0.0, 10.0))
    a = emit(run_sweep(spec), "csv")
    b = emit(run_sweep(spec), "csv")
    assert a == b
    header = a.splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    with pytest.raises(ConfigError, match="format"):
        emit([], "xml")


def test_run_sweep_output_survives_serialisation(tmp_path):
    # the real driver output (not hand-built rows) must round-trip; numpy
    # scalar reprs leaking into cells would break reloading
    spec = small_spec(values=(0.0, 10.0),
                      outputs=("sop", "sop_asymptotic", "asc", "mc_sop", "mc_asc"))
    rows = run_sweep(spec)
    for fmt in ("csv", "json"):
        path = tmp_path / f"out.{fmt}"
        text = emit(rows, fmt, path)
        assert "np.float64" not in text
        reloaded = load_table(path, fmt)
        assert len(reloaded) == len(rows)
        for got, want in zip(reloaded, rows):
            assert got.metric == want.metric
            assert got.value == pytest.approx(want.value, rel=1e-15)


# --- config I/O --------------------------------------------------------------

def _round_trip_specs():
    geo = LinkGeometry(p_s=2.0, n0=1e-6, d_sr=40.0, d_rd=5.0, d_re=8.0, chi=2.5)
    yield pytest.param(small_spec(
        base=SystemParams.from_geometry(7, geo, c_th=1.5, kappa_d_t2=0.02,
                                        kappa_d_r2=0.01, kappa_e_t2=0.03,
                                        kappa_e_r2=0.04),
        numerics=NumericsConfig(quad_order=64, mc_check=True),
        mc=McConfig(trials=5000, seed=99, stream_count=3, eav_mode="phase_sum"),
        kappa_convention="amplitude",
    ), id="geometry_phase_sum")
    for name in PRESET_NAMES:
        for label, spec in load_preset(name).items():
            yield pytest.param(spec, id=f"{name}_{label}")


@pytest.mark.parametrize("spec", _round_trip_specs())
def test_config_round_trip(tmp_path, spec):
    path = tmp_path / "sweep.yaml"
    save_config(spec, path)
    assert load_config(path) == spec


def test_readme_sample_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    sample = readme.split("A sweep config is YAML:", 1)[1].split("```yaml\n", 1)[1]
    path = tmp_path / "sample.yaml"
    path.write_text(sample.split("```", 1)[0])
    spec = load_config(path)
    assert spec.axis == "snr_d_db" and spec.mc.trials == 100_000
    saved = tmp_path / "saved.yaml"
    save_config(spec, saved)
    assert load_config(saved) == spec


def test_config_validation_messages(tmp_path):
    cfg = {
        "axis": "snr_d_db",
        "values": [0.0, 1.0],
        "outputs": ["sop"],
        "base": {"n_elements": 0, "snr_d_db": 0.0, "snr_e_db": 0.0, "c_th": 1.0},
    }
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    with pytest.raises(ConfigError, match="n_elements"):
        load_config(path)

    cfg["base"]["n_elements"] = 5
    cfg["base"]["bandwidth"] = 1.0
    path.write_text(yaml.safe_dump(cfg))
    with pytest.raises(ConfigError, match="bandwidth"):
        load_config(path)

    cfg["base"].pop("bandwidth")
    cfg.pop("outputs")
    path.write_text(yaml.safe_dump(cfg))
    with pytest.raises(ConfigError, match="outputs"):
        load_config(path)

    path.write_text("axis: [unterminated")
    with pytest.raises(ConfigError, match="YAML"):
        load_config(path)


_GOOD_CONFIG = """\
axis: snr_d_db
values: [0.0, 10.0]
outputs: [sop, mc_sop]
base:
  n_elements: 5
  snr_d_db: 10.0
  snr_e_db: -10.0
numerics:
  quad_order: 50
mc: {trials: 2000, seed: 1}
"""


@pytest.mark.parametrize("old, new, section", [
    ("  n_elements: 5\n", "", "base"),
    ("  snr_e_db: -10.0\n",
     "  snr_e_db: -10.0\n  geometry: {p_s: 1.0, d_sr: 1.0, d_rd: 1.0, d_re: 1.0, chi: 2.0}\n",
     "base.geometry"),
    # n0: 0 once ended in a ZeroDivisionError, n0: -1 in "math domain error"
    ("  snr_e_db: -10.0\n",
     "  snr_e_db: -10.0\n  geometry: {p_s: 1.0, n0: 0, d_sr: 1.0, d_rd: 1.0, d_re: 1.0, chi: 2.0}\n",
     "base.geometry"),
    ("  snr_e_db: -10.0\n",
     "  snr_e_db: -10.0\n  geometry: {p_s: 1.0, n0: -1, d_sr: 1.0, d_rd: 1.0, d_re: 1.0, chi: 2.0}\n",
     "base.geometry"),
    ("trials: 2000", "trials: 1e5", "mc"),  # PyYAML reads 1e5 as a string
    ("trials: 2000", "trials: 2000.0", "mc"),
    ("seed: 1}", "seed: 1, stream_count: 2001}", "mc"),
    ("n_elements: 5", "n_elements: 5.0", "base"),
    ("snr_e_db: -10.0", 'snr_e_db: "-10"', "base"),
    ("quad_order: 50", "quad_order: '50'", "numerics"),
    ("quad_order: 50", "quad_order: 2.5", "numerics"),
    ("quad_order: 50", "quad_order: 50\n  series: {max_terms: 200}",
     "numerics: unknown field(s) ['series']"),
    ("quad_order: 50", "quad_order: 50\n  tail_epsilon: 1.0e-12",
     "numerics: unknown field(s) ['tail_epsilon']"),
    ("snr_d_db: 10.0", "snr_d_db: .nan", "base"),
    ("quad_order: 50", "quad_order: 50\n  mc_check: 'false'", "numerics"),
    ("quad_order: 50", "quad_order: 50\n  mc_check: 2", "numerics"),
    ("snr_d_db: 10.0", "snr_d_db: 4000.0", "base"),
    # chi = +-200 puts the geometry's SNRs at -+4000 dB, where (d_sr d_rd)**chi
    # once ended in a numerical failure (exit 2)
    ("  snr_e_db: -10.0\n",
     "  snr_e_db: -10.0\n  geometry: {p_s: 1.0, n0: 1.0, d_sr: 10.0, d_rd: 10.0, d_re: 10.0, "
     "chi: 200.0}\n", "base"),
    ("  snr_e_db: -10.0\n",
     "  snr_e_db: -10.0\n  geometry: {p_s: 1.0, n0: 1.0, d_sr: 10.0, d_rd: 10.0, d_re: 10.0, "
     "chi: -200.0}\n", "base"),
], ids=["missing_n_elements", "geometry_missing_n0", "geometry_n0_zero",
        "geometry_n0_negative", "trials_1e5", "trials_float", "stream_count_above_trials",
        "n_elements_float", "snr_e_db_string", "quad_order_string",
        "quad_order_float", "series_removed", "tail_epsilon_removed", "snr_d_db_nan", "mc_check_string",
        "mc_check_int", "snr_d_db_4000", "geometry_chi_200", "geometry_chi_minus_200"])
def test_malformed_config_is_a_named_config_error(tmp_path, capsys, old, new, section):
    assert old in _GOOD_CONFIG
    path = tmp_path / "bad.yaml"
    path.write_text(_GOOD_CONFIG.replace(old, new))
    # the section the message names, or the whole message
    with pytest.raises(ConfigError, match=rf"^{re.escape(f'{path}.{section}')}(: |$)"):
        load_config(path)
    assert cli.main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err


# --- presets -----------------------------------------------------------------

@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_parse_alike_with_and_without_libyaml(monkeypatch, name):
    text = (Path(sweeps.__file__).parent / "presets" / f"{name}.yaml").read_text("utf-8")
    # repr tells 1 from 1.0, which == does not
    assert repr(yaml.load(text, Loader=yaml.CSafeLoader)) == repr(yaml.safe_load(text))
    assert sweeps._YAML_LOADER is yaml.CSafeLoader
    fast = load_preset(name)
    monkeypatch.setattr(sweeps, "_YAML_LOADER", yaml.SafeLoader)
    assert load_preset(name) == fast

@pytest.mark.parametrize("name", PRESET_NAMES)
def test_bundled_presets_load_with_expected_defaults(name):
    curves = load_preset(name)
    assert len(curves) >= 2
    for spec in curves.values():
        assert spec.axis == "snr_d_db"
        assert spec.values[0] == -10.0 and spec.values[-1] == 30.0
        assert len(spec.values) == 21  # 2 dB steps
        assert spec.base.c_th == 1.0
        assert spec.mc.trials == 100_000
    if name in ("fig2", "fig3"):
        assert all(s.base.kappa_d_t2 == 0.01 for s in curves.values())


def test_load_preset_reads_its_own_tree(tmp_path, monkeypatch):
    # a copy of the package loaded under another name reads its own
    # presets, not those of the installed ris_secrecy
    pkg = tmp_path / "ris_secrecy_copy"
    shutil.copytree(Path(sweeps.__file__).parent, pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    preset = pkg / "presets" / "fig3.yaml"
    text = preset.read_text("utf-8")
    assert text.count("seed: 20250810") == 3
    preset.write_text(text.replace("seed: 20250810", "seed: 7", 1), "utf-8")
    spec = importlib.util.spec_from_file_location(
        pkg.name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, pkg.name, module)
    try:
        spec.loader.exec_module(module)
        curves = importlib.import_module(f"{pkg.name}.sweeps").load_preset("fig3")
    finally:
        for name in [m for m in sys.modules if m.startswith(f"{pkg.name}.")]:
            del sys.modules[name]
    assert [c.mc.seed for c in curves.values()] == [7, 20250810, 20250810]
    assert [c.mc.seed for c in load_preset("fig3").values()] == [20250810] * 3


def test_fig_presets_vary_the_documented_parameter():
    assert sorted(s.base.n_elements for s in load_preset("fig2").values()) == [5, 10]
    assert sorted(s.base.snr_e_db for s in load_preset("fig3").values()) == [-10.0, 0.0, 10.0]
    assert sorted(s.base.kappa_d_t2 for s in load_preset("fig4").values()) == [0.0, 0.01, 0.1]
    assert sorted(s.base.n_elements for s in load_preset("fig5").values()) == [5, 10, 15]
    assert sorted(s.base.kappa_d_t2 for s in load_preset("fig6").values()) == [0.01, 0.05, 0.1]
    with pytest.raises(ConfigError):
        load_preset("fig9")


# --- command line ------------------------------------------------------------

def write_config(tmp_path, **kw):
    spec = small_spec(**kw)
    path = tmp_path / "cfg.yaml"
    save_config(spec, path)
    return path


def test_cli_run_writes_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, values=(0.0, 4.0), mc=McConfig(trials=1500, seed=5))
    out = tmp_path / "res.csv"
    code = cli.main(["run", str(cfg), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 2 * 2


def test_cli_run_stdout_and_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, values=(0.0,), outputs=("mc_sop",))
    code = cli.main(["run", str(cfg), "--trials", "1200", "--seed", "77"])
    assert code == 0
    text = capsys.readouterr().out
    assert ",1200,77," in text


def test_cli_exit_code_config_error(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("axis: nonsense\nvalues: [1]\noutputs: [sop]\nbase: {n_elements: 5}\n")
    assert cli.main(["run", str(bad)]) == 1


@pytest.mark.parametrize("argv, flag", [
    (["preset", "fig2", "--trials", "10"], "--trials"),
    (["run", "{cfg}", "--quad-order", "1"], "--quad-order"),
    (["selftest", "--trials", "10"], "--trials"),
    (["selftest", "--trials", "0"], "--trials"),
    (["selftest", "--seed", "3"], "--seed"),
    (["selftest", "--strict-mc"], "--strict-mc"),
    (["run", "{cfg}", "--trials", "1000"], "--trials"),  # fewer trials than the file's streams
], ids=["preset_trials", "run_quad_order", "selftest_trials", "selftest_trials_zero",
        "selftest_seed_without_trials", "selftest_strict_mc_without_trials",
        "run_trials_below_stream_count"])
def test_cli_rejected_flag_is_a_named_config_error(tmp_path, capsys, argv, flag):
    cfg = write_config(tmp_path, values=(0.0,), outputs=("sop",),
                       mc=McConfig(trials=2000, seed=11, stream_count=1500))
    argv = [a.format(cfg=cfg) for a in argv]
    if argv[0] == "preset":
        argv += ["--out-dir", str(tmp_path)]
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.err.startswith(f"config error: {flag}: ") and out.err.count("\n") == 1
    assert out.out == ""


def test_cli_exit_code_io_error(tmp_path):
    cfg = write_config(tmp_path, values=(0.0,), outputs=("sop",))
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert cli.main(["run", str(cfg), "--out", str(missing_dir)]) == 3


def test_cli_exit_code_numerical_failure(tmp_path, monkeypatch):
    import ris_secrecy.sweeps as sweeps_mod

    cfg = write_config(tmp_path, values=(0.0,), outputs=("sop",))

    def boom(spec, store=None):
        raise ConvergenceError("series", 10, 1.0)

    monkeypatch.setattr(sweeps_mod, "run_sweep", boom)
    assert cli.main(["run", str(cfg)]) == 2


def test_cli_import_leaves_scipy_integrate_unloaded():
    # only the *_reference twins need scipy.integrate; they import it on use
    code = ("import sys, ris_secrecy.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
    src = str(Path(cli.__file__).resolve().parents[1])  # the package under test
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_cli_preset_writes_one_file_per_curve(tmp_path):
    code = cli.main(["preset", "fig4", "--out-dir", str(tmp_path),
                     "--trials", "1000", "--seed", "4"])
    assert code == 0
    names = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert names == ["fig4_kappa2_0.csv", "fig4_kappa2_0p01.csv", "fig4_kappa2_0p1.csv"]


def test_cli_selftest_quadrature_gate(capsys):
    code = cli.main(["selftest", "--quad-order", "100"])
    out = capsys.readouterr().out
    assert code == 0
    assert "selftest: PASS" in out
    assert "FAIL" not in out


def test_cli_selftest_strict_mc_gates_against_the_model_law(capsys):
    code = cli.main(["selftest", "--strict-mc", "--trials", "200000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "selftest: PASS" in out
    assert "FAIL" not in out


def test_cli_selftest_strict_mc_passes_where_the_short_run_sees_no_outage(capsys):
    # 2000 trials expect 0.05 outages at N=10, 20/-10 dB (SOP 2.3e-5)
    code = cli.main(["selftest", "--strict-mc", "--trials", "2000"])
    out = capsys.readouterr().out
    assert "[PASS] N=10 snr_d= 20.0dB snr_e=-10.0dB sop vs Gaussian-sum model" in out
    assert (code, out.count("FAIL")) == (0, 0)


@pytest.mark.parametrize("name", ["fig2", "fig4"])
def test_bundled_preset_runtime_budget(name):
    # CI profile: a preset at its bundled 1e5 trials finishes inside 60 s
    import time

    t0 = time.monotonic()
    for spec in load_preset(name).values():
        rows = run_sweep(spec)
        assert all(r.error is None for r in rows)
    assert time.monotonic() - t0 < 60.0
