#!/usr/bin/env python3
"""Time one call of each layer of the analytic path, from a grid point's params to each closed form.

The layer-by-layer view of the analytic path: the wall time of one
grid point's ``SystemParams`` build (``dataclasses.replace`` of one SNR,
as ``sweeps.run_sweep`` builds each point) and of one ``derive_stats``
call, of one call of ``cdf_rho_d`` and ``ccdf_rho_d`` on 100 points
spread over the body and upper tail of rho_D, of ``sop``, ``sop_asymptotic``,
``avg_secrecy_capacity`` and its exact ``eavesdropper_rate`` term, and of
the ``*_reference`` twins, at N in {1, 10, 64, 128} and the fig2 base
point (kappa^2 = 0.01 on all four levels, snr_d = 10 dB, snr_e = -10 dB,
c_th = 1). It also replays the kernel (``channel._rho_d_law``) calls of
one pass of the benchmark's ``scan`` workload at seed 1, recorded from
``perfbench/workloads.py``, whose nodes reach the far tails that the
100-point grid does not.
timeit's autorange runs each call first, which fills the caches before
the timed rounds. Each round then times every call in turn,
round-robin, so that a phase of a slow core falls on all calls alike
rather than on one. Prints one JSON line with the 25th, 50th and 75th
percentiles over the rounds of each call, in seconds per call and, for
the replay, seconds per pass; takes about 30 s.

    python scripts/kernel_timing.py
"""

import dataclasses
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import timeit
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ris_secrecy import channel
from ris_secrecy.channel import SystemParams, ccdf_rho_d, cdf_rho_d, derive_stats
from ris_secrecy.secrecy import (
    avg_secrecy_capacity,
    avg_secrecy_capacity_reference,
    eavesdropper_rate,
    sop,
    sop_asymptotic,
    sop_asymptotic_reference,
    sop_reference,
)

ELEMENTS = (1, 10, 64, 128)
REPLAY = ("scan", 1)  # the workload and seed whose kernel calls are replayed
ROUNDS = 15          # the percentiles are taken over this many rounds
ROUND_S = 0.02       # each round repeats each call for about this long


def calls_per_round(call) -> int:
    number, total = timeit.Timer(call).autorange()  # also fills the caches
    return max(1, round(number * ROUND_S / total))


def calls_at(n: int) -> dict:
    """The timed calls, by name, at N = ``n`` and the fig2 base point."""
    p = SystemParams(n_elements=n, kappa_d_t2=0.01, kappa_d_r2=0.01,
                     kappa_e_t2=0.01, kappa_e_r2=0.01,
                     snr_d_db=10.0, snr_e_db=-10.0, c_th=1.0)
    st = derive_stats(p)
    g = p.snr_d_linear
    xs = np.linspace(0.0, g * (math.sqrt(st.lambda_) + 8.0 * math.sqrt(st.sigma2)) ** 2, 100)
    return {
        "grid_point_params": lambda: dataclasses.replace(p, snr_d_db=12.0),
        "derive_stats": lambda: derive_stats(p),
        "cdf_rho_d": lambda: cdf_rho_d(xs, st, g),
        "ccdf_rho_d": lambda: ccdf_rho_d(xs, st, g),
        "sop": lambda: sop(p, st),
        "sop_asymptotic": lambda: sop_asymptotic(p, st),
        "avg_secrecy_capacity": lambda: avg_secrecy_capacity(p, st),
        "eavesdropper_rate": lambda: eavesdropper_rate(st, p.kappa_e_sum),
        "sop_reference": lambda: sop_reference(p, st),
        "sop_asymptotic_reference": lambda: sop_asymptotic_reference(p, st),
        "avg_secrecy_capacity_reference": lambda: avg_secrecy_capacity_reference(p, st),
    }


def recorded_kernel_calls(workload: str, seed: int) -> list:
    """The arguments of each ``channel._rho_d_law`` call of one benchmark pass."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    law, calls = channel._rho_d_law, []

    def record(x, *args, **kwargs):
        out = law(x, *args, **kwargs)
        calls.append((np.copy(x), args, kwargs))
        return out

    channel._rho_d_law = record
    try:
        with tempfile.TemporaryDirectory() as out_dir:
            failed = workloads.build(workload, seed).run_pass(Path(out_dir)).failed
    finally:
        channel._rho_d_law = law
    if failed:
        raise RuntimeError(f"the recorded {workload} pass failed: {failed}")
    return calls


def quartiles(ts) -> dict:
    p25, p50, p75 = statistics.quantiles(ts, n=4, method="inclusive")
    return {"p25": round(p25, 9), "median": round(p50, 9), "p75": round(p75, 9)}


def main() -> int:
    calls = {(n, name): c for n in ELEMENTS for name, c in calls_at(n).items()}
    replayed = recorded_kernel_calls(*REPLAY)
    calls["replay"] = lambda: [channel._rho_d_law(x, *args, **kwargs)
                               for x, args, kwargs in replayed]
    number = {key: calls_per_round(c) for key, c in calls.items()}
    times = {key: [] for key in calls}
    for _ in range(ROUNDS):
        for key, c in calls.items():
            times[key].append(timeit.timeit(c, number=number[key]) / number[key])
    replay = times.pop("replay")
    result = {str(n): {} for n in ELEMENTS}
    for (n, name), ts in times.items():
        result[str(n)][name] = quartiles(ts)
    print(json.dumps({
        "unit": "s per call, quartiles over the rounds",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "n_elements": result,
        "kernel_replay": {"workload": REPLAY[0], "seed": REPLAY[1], "calls": len(replayed),
                          "points": sum(x.size for x, _, _ in replayed),
                          "s_per_pass": quartiles(replay)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
