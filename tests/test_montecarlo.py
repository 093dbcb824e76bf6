"""Simulator contracts: determinism, trial invariants, moment oracles."""

import hashlib
import math
import sys
import threading
import tracemalloc

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
    EstimateWithCI,
    LinkMemo,
    McConfig,
    _draw_chunk,
    _fill_exponential,
    _n_groups,
    draw_chunks,
    ks_distance,
    model_law_chunks,
    sample_quantity,
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


# sha256 of every (X1^2, e) chunk of draw_chunks, computed before the
# kernel drew in row blocks (numpy 2.4, x86-64). Keys: (N, stream_count,
# trials, eav_mode); seed 2024 + N. With row blocks of 2^15 elements,
# N=1 and N=5 at 1000 trials have fewer rows than one block, N=300 ends
# on a ragged block, and the _CHUNK + 1000 stream spans two chunks.
DRAW_DIGESTS = {
    (1, 1, 1000, "rayleigh"): "da8ea0a62ca3c9d01e9f2681a028cdd73913e180e69a5241e37f646fbc951cf1",
    (1, 3, 1000, "rayleigh"): "98612c9b57028325fd8e8d055d03cb23ffec69486df2720314cd32d168a548ae",
    (5, 1, 1000, "rayleigh"): "2c619606ec89bd9797155fd528a15bf510f78a3dac42c8f337957ca395ef735e",
    (5, 3, 1000, "rayleigh"): "612e7cfdb868f63b902aa7c21d858cceb8ae8f2c997d48dbada8f83d1f3e4ea6",
    (300, 1, 1000, "rayleigh"): "327164d0ce05e0d8f6af3578565d2eeaa3c05254c10d94db2fdc6656db90f602",
    (300, 3, 1000, "rayleigh"): "ce9b3d5e67ec09ba89eb6a078a20d2c386b41837333ecaf43a0675fc32bb0184",
    (5, 1, _CHUNK + 1000, "rayleigh"): "72fbc0469e4e702309ab450e418b6c9dda65dcbb2e2dcd7bcdeb6e765f6aaf28",
    (1, 1, 1000, "phase_sum"): "c08f1365418fcc4bcec71373d12efc789e4e0fe70a7b4216565b2f134cc49e6d",
    (1, 3, 1000, "phase_sum"): "4016abfa4852cc915765e8f271301c2c5a6c10d4a3fc7a692bb7c59d87d9af4a",
    (5, 1, 1000, "phase_sum"): "c05dd32c0cb0dc6a7fd382085ab716418330db48046be82147c18ee2da347b0f",
    (5, 3, 1000, "phase_sum"): "37e021bea85c6b9d00fcb8ca5a059913d1d952014acf51eec565df67d6b87377",
    (300, 1, 1000, "phase_sum"): "1bda8cdad72480aae8cdc61c034a0ef11ac469fd20d31756d8eddd38aa3c14fb",
    (300, 3, 1000, "phase_sum"): "142a35dbd3384f1baac25f97593bf4b9834ebca206c74aac5733a1a215e2092a",
    (5, 1, _CHUNK + 1000, "phase_sum"): "593fa287104866404546ad0704fae1c86be167ba4be8eb3d29fd5d84db1baa8e",
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
    assert h.hexdigest() == DRAW_DIGESTS[key]


# (value, std_error) of every simulate_metrics estimate, computed before
# the sums went through a per-point accumulator. The asc values go
# through np.log2, whose float64 result may differ by 1 ULP between
# numpy's AVX512_SKX loop and its plain one (about 2 elements in 10^4);
# these sums came out the same on both (numpy 2.4.6, x86-64, checked
# with NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"). Another
# numpy release may need new pins.
# Keys: (eav_mode, kappa^2, trials, stream_count); N=5, snr_d 5 dB,
# snr_e 0 dB, c_th 1, seed 31. The _CHUNK + 1000 stream spans two chunks.
SIMULATE_GOLDEN = {
    ("rayleigh", 0.0, 3000, 3): {
        "sop": (0.06466666666666666, 0.00449017033414431),
        "asc_eq19": (3.284510475582647, 0.027203296016950117),
        "asc_eq6": (3.292526383138069, 0.026834598101647074)},
    ("rayleigh", 0.0, _CHUNK + 1000, 1): {
        "sop": (0.06537105159152404, 0.00048185416119978213),
        "asc_eq19": (3.318834221527933, 0.0029409721272908055),
        "asc_eq6": (3.3267593218365223, 0.0029017558343368078)},
    ("rayleigh", 0.01, 3000, 3): {
        "sop": (0.106, 0.005620320275571491),
        "asc_eq19": (2.45009934586721, 0.02093431753845483),
        "asc_eq6": (2.456443415949899, 0.020648014974738345)},
    ("rayleigh", 0.01, _CHUNK + 1000, 1): {
        "sop": (0.1028030279998784, 0.0005920387280992061),
        "asc_eq19": (2.474659197935418, 0.0022583949940410174),
        "asc_eq6": (2.4809545974343954, 0.002227804308014845)},
    ("phase_sum", 0.0, 3000, 3): {
        "sop": (0.03933333333333333, 0.003549000902705916),
        "asc_eq19": (3.351676877224095, 0.024553913603631093),
        "asc_eq6": (3.3534407203051106, 0.02446503580319138)},
    ("phase_sum", 0.0, _CHUNK + 1000, 1): {
        "sop": (0.037633387042835864, 0.00037098828125868214),
        "asc_eq19": (3.3918221253459744, 0.002632750873600841),
        "asc_eq6": (3.394179428982543, 0.002619816330871575)},
    ("phase_sum", 0.01, 3000, 3): {
        "sop": (0.08133333333333333, 0.004990598568716389),
        "asc_eq19": (2.518487941074655, 0.019686439648845245),
        "asc_eq6": (2.5198041657654398, 0.019624101490036693)},
    ("phase_sum", 0.01, _CHUNK + 1000, 1): {
        "sop": (0.07507676405314201, 0.0005136991908942955),
        "asc_eq19": (2.546754580474383, 0.0020997938379573263),
        "asc_eq6": (2.548556653886113, 0.002090433105579066)},
}


@pytest.mark.parametrize("key", list(SIMULATE_GOLDEN), ids=lambda k: "-".join(map(str, k)))
def test_simulate_metrics_golden_estimates(key):
    eav_mode, k2, trials, stream_count = key
    p = params_for(n=5, snr_d_db=5.0, snr_e_db=0.0, k2=k2)
    mc = McConfig(trials=trials, seed=31, stream_count=stream_count, eav_mode=eav_mode)
    out = simulate_metrics(p, mc)
    assert {k: (est.value, est.std_error) for k, est in out.items()} == SIMULATE_GOLDEN[key]
    assert all((est.trials, est.seed) == (trials, 31) for est in out.values())


def test_simulate_metrics_computes_only_the_requested_estimates():
    p = params_for()
    mc = McConfig(trials=3000, seed=4, stream_count=2)
    full = simulate_metrics(p, mc)
    for keys in (("sop",), ("asc_eq19",), ("asc_eq6",), ("asc_eq19", "sop")):
        assert simulate_metrics(p, mc, keys=keys) == {k: full[k] for k in keys}
    with pytest.raises(ValueError, match="estimates"):
        simulate_metrics(p, mc, keys=("sop", "ber"))


def _reference_draw_chunk(n, rng, m, eav_mode):
    # the whole-array form: every (m x N) draw at once, then the row sums
    f_r = np.sqrt(rng.standard_exponential((m, n)))
    f_d = np.sqrt(rng.standard_exponential((m, n)))
    x1_sq = (f_r * f_d).sum(axis=1) ** 2
    if eav_mode == "rayleigh":
        return x1_sq, rng.standard_exponential(m)
    f_e = np.sqrt(rng.standard_exponential((m, n)))
    delta = rng.uniform(-math.pi, math.pi, (m, n))
    return x1_sq, np.abs((f_r * f_e * np.exp(1j * delta)).sum(axis=1)) ** 2


@pytest.mark.parametrize("eav_mode", ["rayleigh", "phase_sum"])
@pytest.mark.parametrize("n, m", [(1, 7), (7, 9367), (300, 1), (300, 250), (1024, 65)])
def test_draw_chunk_equals_whole_array_reference(n, m, eav_mode):
    # blocked draws must consume the stream exactly as whole-array draws
    rng_a, rng_b = (np.random.Generator(np.random.Philox(key=n + m)) for _ in range(2))
    got = _draw_chunk((n,), rng_a, m, eav_mode)[0]
    want = _reference_draw_chunk(n, rng_b, m, eav_mode)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("eav_mode, arrays", [("rayleigh", 1.25), ("phase_sum", 2.25)])
def test_draw_chunk_peak_memory(eav_mode, arrays):
    # tracemalloc sees numpy's data buffers; one m x N float64 array is
    # the f_R amplitudes, which the stream order forces to be held whole.
    n, m = 1024, 4000
    rng = np.random.Generator(np.random.Philox(key=0))
    tracemalloc.start()
    try:
        _draw_chunk((n,), rng, m, eav_mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= arrays * m * n * 8


GROUPS = [  # (group, m, whether f_D's second half is large enough to split)
    ((1, 2), 7, False),
    ((3, 7), 9367, False),
    ((8, 16, 32, 64, 96, 128, 256, 512, 1024), 3000, True),
    ((1, 2, 4, 9, 18), 1, False),
    ((5, 10), 250, False),  # N = N_max / 2: the prefix runs one row of m past f_R
    ((4, 512, 1024), 2101, True),  # odd m, and the prefix runs one row past f_R
]


def _assert_each_n_drawn_alone(got, rng, group, m, fresh_streams):
    # every N's pair must be what the stream draws for that N alone, and
    # the stream must end where the largest N's draw ends
    assert len(got) == len(group)
    for n, pair, fresh in zip(group, got, fresh_streams):
        for a, b in zip(pair, _reference_draw_chunk(n, fresh, m, "rayleigh")):
            assert a.tobytes() == b.tobytes(), n
    _assert_same_state(rng, fresh)  # fresh drew the largest N


@pytest.mark.parametrize("group, m, splits",
                         [pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in GROUPS])
def test_group_draw_equals_each_n_on_a_fresh_stream(monkeypatch, group, m, splits):
    # with two CPUs the largest N's f_D is split wherever it is large enough
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    split = _spy_split(monkeypatch)
    rng, *fresh = _twin_streams(3, 2, 0, False, count=len(group) + 1)
    got = _draw_chunk(group, rng, m, "rayleigh")
    assert split == [splits]
    _assert_each_n_drawn_alone(got, rng, group, m, fresh)


@pytest.mark.parametrize("values, mc, groups", [
    ((8, 16, 32, 64, 96, 128, 256, 512, 1024), McConfig(trials=100_000),
     [(8, 16, 32, 64, 96, 128, 256, 512, 1024)]),
    ((2, 5), McConfig(trials=2000, stream_count=2), [(2, 5)]),
    ((4, 3), McConfig(trials=2000), [(4,), (3,)]),
    ((1, 2, 3, 5, 7, 12), McConfig(trials=2000), [(1, 2, 3, 5, 12), (7,)]),
    ((2, 5), McConfig(trials=2000, eav_mode="phase_sum"), [(5,), (2,)]),
    ((), McConfig(trials=2000), []),
    ((2, 5), McConfig(trials=_CHUNK + 1, stream_count=1), [(5,), (2,)]),
    ((2, 5), McConfig(trials=2 * _CHUNK, stream_count=2), [(2, 5)]),
], ids=["large_n", "2-5", "no-pair", "two-groups", "phase_sum", "empty", "multi-chunk",
      "chunk-sized"])
def test_n_groups_join_each_n_at_most_half_the_largest_to_it(values, mc, groups):
    assert _n_groups(values, mc) == groups


@pytest.mark.parametrize("group", [(1024,), (512, 1024), (8, 16, 32, 64, 96, 128, 256, 512, 1024)],
                         ids=["1024", "512-1024", "large_n-grid"])
def test_group_draw_peak_memory(group):
    # the held prefix is (N_max + 1) m floats at most; on top come each
    # N's X1^2 and e (2m floats) and one row block of f_R * f_D
    n_max, m = group[-1], 4000
    rng = np.random.Generator(np.random.Philox(key=0))
    tracemalloc.start()
    try:
        _draw_chunk(group, rng, m, "rayleigh")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= ((n_max + 1 + 2 * len(group)) * m + 2 * _BLOCK) * 8


def _twin_streams(seed, jump, words, half_word, count=2):
    """``count`` generators on one Philox stream, ``words`` 64-bit words in.

    With ``half_word`` each has also drawn one 32-bit integer, so half of
    a word is buffered, which exponential draws never read.
    """
    streams = []
    for _ in range(count):
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(jump))
        rng.bit_generator.random_raw(words)
        if half_word:
            rng.integers(0, 2 ** 32, dtype=np.uint32)
        streams.append(rng)
    return streams


def _assert_same_state(rng, twin):
    # every kind of draw after the one compared must be the sequential draw's
    assert rng.integers(0, 2 ** 32, 3, dtype=np.uint32).tolist() == \
        twin.integers(0, 2 ** 32, 3, dtype=np.uint32).tolist()
    assert rng.standard_exponential(5).tobytes() == twin.standard_exponential(5).tobytes()


def _assert_filled_like_sequential(rng, twin, got, n):
    assert got.tobytes() == twin.standard_exponential(n).tobytes()
    _assert_same_state(rng, twin)


def _spy(monkeypatch, name, record):
    """Wrap ``montecarlo.<name>``; the list returned gets ``record(result)`` of each call."""
    calls = []
    wrapped = getattr(montecarlo, name)

    def spy(*args):
        result = wrapped(*args)
        calls.append(record(result))
        return result

    monkeypatch.setattr(montecarlo, name, spy)
    return calls


def _spy_bridge(monkeypatch):
    """Record whether each split draw found a common sample start."""
    return _spy(monkeypatch, "_bridge", lambda result: result[2])


def _spy_split(monkeypatch):
    """Record whether each draw of the largest N's f_D was split over two threads."""
    return _spy(monkeypatch, "_x1_split", lambda result: result is not None)


def _copy(rng):
    """A generator at ``rng``'s place in its stream."""
    bit_gen = np.random.Philox(key=0)
    bit_gen.state = rng.bit_generator.state
    return np.random.Generator(bit_gen)


@given(n=st.one_of(st.sampled_from([0, 1, 2, 3, 59, 61, 101]), st.integers(0, 20_000)),
       seed=st.integers(0, 2 ** 64 - 1), jump=st.integers(0, 3), words=st.integers(0, 3),
       half_word=st.booleans(), n_max=st.integers(1, 64), with_half=st.booleans(),
       m=st.integers(2000, 6000))
@settings(max_examples=80, deadline=None)
def test_fill_exponential_is_the_sequential_fill(n, seed, jump, words, half_word, n_max,
                                                 with_half, m):
    # with the threshold at 0 every array large enough for the margin
    # splits, whatever the CPU count, and so does the f_D of a group draw
    # of at least 2000 rows, which here continues the stream after the fill
    rng, twin = _twin_streams(seed, jump, words, half_word)
    group = (n_max // 2, n_max) if with_half and n_max > 1 else (n_max,)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_SPLIT_MIN", 0)
        mp.setattr(montecarlo, "_usable_cpus", lambda: 2)
        split = _spy_split(mp)
        got = _fill_exponential(rng, np.empty(n))
        _assert_filled_like_sequential(rng, twin, got, n)
        fresh = [_copy(twin) for _ in group]
        drawn = _draw_chunk(group, rng, m, "rayleigh")
    assert split == [True]
    _assert_each_n_drawn_alone(drawn, rng, group, m, fresh)


# f_D of rows [h, m) of this group at m = 40 001 is 98 380 floats, split
# once the threshold is 0
SMALL_SPLIT = ((2, 5), 40_001)


@pytest.mark.parametrize("words_per_sample", [0.6, 1.5], ids=["clone-early", "clone-late"])
def test_fill_exponential_falls_back_exactly_without_a_common_start(monkeypatch,
                                                                    words_per_sample):
    # a clone started far from its sample finds no common start within
    # the window, and the rest is drawn sequentially: in a fill, and in
    # the split f_D of a group draw
    monkeypatch.setattr(montecarlo, "_SPLIT_MIN", 0)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(montecarlo, "_WORDS_PER_SAMPLE", words_per_sample)
    synced = _spy_bridge(monkeypatch)
    split = _spy_split(monkeypatch)
    n = 200_001
    rng, twin = _twin_streams(8, 1, 3, True)
    got = _fill_exponential(rng, np.empty(n))
    assert synced == [False]
    _assert_filled_like_sequential(rng, twin, got, n)
    group, m = SMALL_SPLIT
    rng, *fresh = _twin_streams(8, 1, 3, True, count=len(group) + 1)
    got = _draw_chunk(group, rng, m, "rayleigh")
    assert (synced, split) == ([False] * 3, [True])  # the prefix fill, then f_D
    _assert_each_n_drawn_alone(got, rng, group, m, fresh)


@pytest.mark.parametrize("samples_off", [-900, 450], ids=["clone-early", "clone-late"])
def test_split_draws_sync_near_the_edges_of_their_window(monkeypatch, samples_off):
    # margin is 538 for both splits of SMALL_SPLIT's draw: a clone 900
    # samples early makes the probe skip nearly 2 margins, one 450 late
    # makes rng draw nearly one; both must still sync and stay exact
    monkeypatch.setattr(montecarlo, "_SPLIT_MIN", 0)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    clone_ahead = montecarlo._clone_ahead
    monkeypatch.setattr(montecarlo, "_clone_ahead",
                        lambda rng, samples: clone_ahead(rng, samples + samples_off))
    synced = _spy_bridge(monkeypatch)
    group, m = SMALL_SPLIT
    rng, *fresh = _twin_streams(6, 0, 0, False, count=len(group) + 1)
    before = set(threading.enumerate())
    got = _draw_chunk(group, rng, m, "rayleigh")
    assert synced == [True, True]  # the prefix fill, then f_D
    assert set(threading.enumerate()) <= before  # both workers have ended
    _assert_each_n_drawn_alone(got, rng, group, m, fresh)


@pytest.mark.parametrize("seed", range(4))
def test_large_fill_splits_and_syncs(monkeypatch, seed):
    # at 2^21 floats the clone's guess must land within the margin: the
    # split path, never the fallback
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    synced = _spy_bridge(monkeypatch)
    n = 1 << 21
    rng, twin = _twin_streams(seed, seed, seed % 4, False)
    before = set(threading.enumerate())
    got = _fill_exponential(rng, np.empty(n))
    assert synced == [True]
    assert set(threading.enumerate()) <= before  # the worker has ended
    _assert_filled_like_sequential(rng, twin, got, n)


def test_concurrent_split_fills_keep_their_own_streams(monkeypatch):
    # four callers, each with its own workers, on two or fewer cores and
    # with a short switch interval: no fill, and no group draw with a
    # split f_D, may touch another's stream
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    split = _spy_split(monkeypatch)
    n, group, m, seeds = montecarlo._SPLIT_MIN + 3, (512, 1024), 2101, range(4)
    got = {}

    def run(seed):
        rngs = [np.random.Generator(np.random.Philox(key=seed)) for _ in range(2)]
        got[seed] = (_fill_exponential(rngs[0], np.empty(n)),
                     _draw_chunk(group, rngs[1], m, "rayleigh"), rngs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert split == [True] * len(seeds)
    for seed in seeds:
        filled, drawn, (rng_fill, rng_draw) = got[seed]
        twin, *fresh = (np.random.Generator(np.random.Philox(key=seed)) for _ in range(3))
        _assert_filled_like_sequential(rng_fill, twin, filled, n)
        _assert_each_n_drawn_alone(drawn, rng_draw, group, m, fresh)


class _Interrupted(Exception):
    """Raised on purpose in the middle of a split draw."""


def _assert_split_draw_raises_and_leaves_no_thread(monkeypatch):
    # only the f_D split starts a thread: the prefix fills sequentially
    monkeypatch.setattr(montecarlo, "_SPLIT_MIN", 0)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(montecarlo, "_fill_exponential",
                        lambda rng, out: rng.standard_exponential(out=out))
    split = _spy(monkeypatch, "_x1_split", lambda result: result)
    before = set(threading.enumerate())
    group, m = SMALL_SPLIT
    with pytest.raises(_Interrupted):
        _draw_chunk(group, np.random.Generator(np.random.Philox(key=5)), m, "rayleigh")
    assert split == []  # raised out of the split itself
    started = [t for t in threading.enumerate() if t not in before]
    for thread in started:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in started)


@pytest.mark.parametrize("where", ["rows", "bridge"])
def test_f_d_split_stops_its_worker_when_the_caller_raises(monkeypatch, where):
    # in "rows" the caller raises instead of releasing its first permit,
    # so the worker waits for it; in "bridge" every permit was released
    if where == "bridge":
        def bridge(*args):
            raise _Interrupted
        monkeypatch.setattr(montecarlo, "_bridge", bridge)
    else:
        row_sums = montecarlo._row_sums

        def interrupted_row_sums(f_r, f_d_rows, out, after=None):
            if after is None:
                return row_sums(f_r, f_d_rows, out)

            def interrupt():
                raise _Interrupted

            return row_sums(f_r, f_d_rows, out, interrupt)

        monkeypatch.setattr(montecarlo, "_row_sums", interrupted_row_sums)
    _assert_split_draw_raises_and_leaves_no_thread(monkeypatch)


def test_f_d_split_hands_the_worker_exception_to_the_caller(monkeypatch):
    # the worker scores the smaller N first; an error there reaches the caller
    raised_on = []

    def x1_sq(*args):
        raised_on.append(threading.current_thread())
        raise _Interrupted

    monkeypatch.setattr(montecarlo, "_x1_sq", x1_sq)
    _assert_split_draw_raises_and_leaves_no_thread(monkeypatch)
    assert raised_on and raised_on[0] is not threading.current_thread()


def test_fill_exponential_stays_on_one_thread_below_the_threshold_or_one_cpu(monkeypatch):
    synced = _spy_bridge(monkeypatch)
    rng = np.random.Generator(np.random.Philox(key=2))
    _fill_exponential(rng, np.empty(montecarlo._SPLIT_MIN - 1))
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
    _fill_exponential(rng, np.empty(1 << 21))
    assert synced == []


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
