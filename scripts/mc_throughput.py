#!/usr/bin/env python3
"""Monte Carlo throughput in trials/s at small and large N and over the large-N grid.

The layer-by-layer view of the simulator: the median wall time of
``simulate_metrics`` (draw and score all three estimates) at N = 5 and
N = 1024, and of the N = 8..1024 grid of the ``large_n`` benchmark
workload scored two ways: point by point with ``simulate_metrics``, and
on one grouped pass with ``simulate_points``, which draws each chunk
once for the largest N. All at the fig2 base point with its Monte Carlo
settings (4 streams), at ``--trials`` trials per point. Throughput is
trials scored per second, summed over the grid's points. Under it, the
draw kernel: ``element_terms_per_s``, the f_R f_D terms per second that
``montecarlo._block_terms`` forms on one thread over the 1024 element
columns of one chunk of 25 000 trials, one element a block, which is
the shape of a ``large_n`` draw (1e5 trials over 4 streams). Under
that, ``words_per_s``: the uniform doubles per second that one region's
generator gives on one thread over 2^20 values, one 64-bit word each,
which is the word source of every draw (see the ``montecarlo`` stream
layout). One fill takes a few ms, so each round repeats it for at least
0.1 s, and the median rate of at least 7 rounds (``--repeat`` if more)
is kept. Both draw into buffers whose pages are touched before the
clock starts. And the seconds of one grouped ``simulate_points`` pass
over that grid, with the process pinned to two of its CPUs and to one
(``os.sched_setaffinity``, restored afterwards): the pass draws and
scores its chunks on one worker thread per usable CPU. A pin the
process cannot have is reported as null. One layer up, ``presets_mc_s``: the
median seconds of ``run_sweeps`` over the curves of each bundled preset
with their Monte Carlo outputs only, at ``--trials`` trials, which is
the draw and scoring of a ``ris-secrecy preset`` run without its closed
forms. And ``grouped_peak_rss_mib``: the peak RSS of a fresh Python
process after its imports and after one grouped ``simulate_points`` pass
over the grid at ``--trials`` trials, the memory a ``large_n`` run needs
above its imports. And ``curve_scoring_trials_per_s``: scoring alone,
fig2's 21-point ``snr_d_db`` curve at N = 5 on its stored draw set,
through one ``LinkMemo`` as ``sweeps.run_sweep`` scores it, once with
the estimate behind ``mc_sop``, once with the one behind ``mc_asc`` and
once with both on one memo, as a curve emitting both outputs scores
them (median of ten times ``--repeat`` rounds; trials times points per
s).
Prints one JSON line; takes about 30 s at the default size.

    python scripts/mc_throughput.py [--trials 100000] [--repeat 3]
"""

import argparse
import dataclasses
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ris_secrecy.montecarlo import (
    _AMPLITUDES,
    LinkMemo,
    _block_floats,
    _block_terms,
    _chunk_regions,
    _region_at,
    _uniforms,
    _usable_cpus,
    draw_chunks,
    simulate_metrics,
    simulate_points,
)
from ris_secrecy.sweeps import PRESET_NAMES, ROUTES, load_preset, run_sweeps

SINGLE = (5, 1024)
GRID = (8, 16, 32, 64, 96, 128, 256, 512, 1024)  # the large_n workload's grid
TERM_TRIALS = 25_000  # one chunk of a large_n draw: 1e5 trials over 4 streams
WORDS = 1 << 20
WORDS_ROUND_S = 0.1  # each words_per_s round repeats the WORDS fill for at least this long
WORDS_ROUNDS = 7     # and the median of at least this many rounds is kept


def median_s(call, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def pinned_pass_s(cpus: int, mc, grid, repeat: int):
    """Median seconds of one grouped pass over ``grid`` with the process on ``cpus`` CPUs."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < cpus:
        return None
    os.sched_setaffinity(0, allowed[:cpus])
    try:
        return median_s(lambda: simulate_points(grid, mc), repeat)
    finally:
        os.sched_setaffinity(0, allowed)


def peak_rss_mib():
    """This process's peak resident set size in MiB (Linux's ``VmHWM``), or None without one.

    Not ``ru_maxrss``: Linux keeps it through exec, so a process started
    from a larger one would read that one's peak.
    """
    try:
        with open("/proc/self/status") as status:
            return next(round(int(line.split()[1]) / 1024, 1)
                        for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return None


def fig2_points(trials: int, ns=GRID):
    """The fig2 base point's McConfig at ``trials`` trials, and that point at each N of ``ns``."""
    spec = load_preset("fig2")["n5"]
    return (dataclasses.replace(spec.mc, trials=trials),
            [dataclasses.replace(spec.base, n_elements=n) for n in ns])


def print_grouped_rss(trials: int) -> None:
    """Print this process's peak RSS after its imports and after one grouped pass."""
    after_import = peak_rss_mib()
    mc, grid = fig2_points(trials)
    simulate_points(grid, mc)
    print(json.dumps({"after_import": after_import, "peak": peak_rss_mib()}))


def grouped_peak_rss_mib(trials: int) -> dict:
    """:func:`print_grouped_rss` in a fresh process, whose RSS holds nothing of this one's."""
    code = f"import mc_throughput; mc_throughput.print_grouped_rss({trials})"
    out = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).resolve().parent,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def preset_mc_specs(name: str, trials: int) -> list:
    """The curves of preset ``name`` at ``trials`` trials, with their Monte Carlo outputs only."""
    return [dataclasses.replace(spec, outputs=tuple(m for m in spec.outputs if m.startswith("mc_")),
                                mc=dataclasses.replace(spec.mc, trials=trials))
            for spec in load_preset(name).values()]


def curve_scoring_trials_per_s(trials: int, repeat: int) -> dict:
    """Trials times points per s of scoring fig2 ``n5``'s curve on its stored set, per output set."""
    spec = load_preset("fig2")["n5"]
    mc = dataclasses.replace(spec.mc, trials=trials)
    draws = list(draw_chunks(spec.base.n_elements, mc))
    points = [dataclasses.replace(spec.base, snr_d_db=v) for v in spec.values]
    result = {}
    for metrics in (("mc_sop",), ("mc_asc",), ("mc_sop", "mc_asc")):
        keys = tuple(ROUTES[m.removeprefix("mc_")].mc for m in metrics)

        def score_curve():
            memo = LinkMemo(draws)
            for p in points:
                simulate_metrics(p, mc, draws, keys=keys, memo=memo)

        result["+".join(metrics)] = round(len(points) * trials / median_s(score_curve, 10 * repeat))
    return result


def words_per_s(region, repeat: int) -> float:
    """Uniform doubles per s of ``region``'s generator, WORDS a fill and WORDS_ROUND_S a round."""
    words = np.ones((1, WORDS))  # pages touched before the clock

    def fill():
        _uniforms(np.random.Generator(_region_at(region, 0)), WORDS, words)

    fill()
    once = median_s(fill, 1)
    fills = max(1, math.ceil(WORDS_ROUND_S / once))
    return fills * WORDS / median_s(lambda: [fill() for _ in range(fills)],
                                    max(WORDS_ROUNDS, repeat))


def element_terms_per_s(seed: int, repeat: int) -> float:
    """f_R f_D terms per s of ``_block_terms`` over GRID[-1] one-element blocks of TERM_TRIALS."""
    span = (0, TERM_TRIALS, 0, TERM_TRIALS)  # stream 0, a chunk that is the whole stream
    buf = np.ones(_block_floats("rayleigh", 1, TERM_TRIALS))  # pages touched before the clock

    def draw():
        regions = _chunk_regions(seed, span, "rayleigh", 0)
        for lo in range(GRID[-1]):
            _block_terms(regions, span, "rayleigh", (lo, lo + 1), buf)

    return GRID[-1] * TERM_TRIALS / median_s(draw, repeat)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--trials", type=int, default=100_000, help="trials per point")
    parser.add_argument("--repeat", type=int, default=3, help="rounds; the median is kept")
    args = parser.parse_args(argv)
    mc, singles = fig2_points(args.trials, SINGLE)
    grid = fig2_points(args.trials)[1]
    result = {f"n{p.n_elements}": args.trials / median_s(lambda p=p: simulate_metrics(p, mc),
                                                         args.repeat)
              for p in singles}
    grid_trials = args.trials * len(GRID)
    result["grid_per_n"] = grid_trials / median_s(
        lambda: [simulate_metrics(p, mc) for p in grid], args.repeat)
    result["grid_grouped"] = grid_trials / median_s(lambda: simulate_points(grid, mc), args.repeat)
    words = words_per_s((mc.seed, 0, _AMPLITUDES), args.repeat)  # stream 0's f_R and f_D words
    passes = {f"cpus_{cpus}": pinned_pass_s(cpus, mc, grid, args.repeat) for cpus in (2, 1)}
    presets = {name: median_s(lambda specs=preset_mc_specs(name, args.trials): list(run_sweeps(specs)),
                              args.repeat)
               for name in PRESET_NAMES}
    print(json.dumps({
        "unit": "per s, median",
        "trials": args.trials,
        "stream_count": mc.stream_count,
        "grid": GRID,
        "nproc": os.cpu_count(),
        "usable_cpus": _usable_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "trials_per_s": {k: round(v) for k, v in result.items()},
        "words_per_s": round(words),
        "element_terms_per_s": round(element_terms_per_s(mc.seed, args.repeat)),
        "grouped_pass_s": {k: v if v is None else round(v, 4) for k, v in passes.items()},
        "presets_mc_s": {k: round(v, 4) for k, v in presets.items()},
        "curve_scoring_trials_per_s": curve_scoring_trials_per_s(args.trials, args.repeat),
        "grouped_peak_rss_mib": grouped_peak_rss_mib(args.trials),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
