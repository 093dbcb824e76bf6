"""Traced run: timing wrappers installed from outside the package.

Each wrapper replaces a public function under the name its caller binds
it by (``sweeps.sop``, ``secrecy.cdf_rho_d``, ``channel.lower_inc_gamma``,
...), records a span with its parent span, and charges its duration to
the parent so that self time is duration minus the time of the wrapped
calls nested in it. The package is single-threaded, so one stack gives
the nesting. The original bindings are restored on exit.

The special-function kernels are leaves called about a million times
per ``figures`` pass; for them only counts and total time are kept, not
one span per call.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

from ris_secrecy import channel, cli, secrecy, sweeps

# (owner module, attribute as the caller binds it, layer.function, leaf)
TARGETS = (
    (cli, "main", "cli.main", False),
    (cli, "load_preset", "sweeps.load_preset", False),
    (sweeps, "run_sweep", "sweeps.run_sweep", False),
    (sweeps, "emit", "sweeps.emit", False),
    (cli, "emit", "sweeps.emit", False),
    (sweeps, "derive_stats", "channel.derive_stats", False),
    (sweeps, "simulate_metrics", "montecarlo.simulate_metrics", False),
    (sweeps, "sop", "secrecy.sop", False),
    (sweeps, "sop_asymptotic", "secrecy.sop_asymptotic", False),
    (sweeps, "avg_secrecy_capacity", "secrecy.avg_secrecy_capacity", False),
    (secrecy, "cdf_rho_d", "channel.cdf_rho_d", False),
    (secrecy, "ccdf_rho_d", "channel.ccdf_rho_d", False),
    (secrecy, "e1_scaled", "specfun.e1_scaled", True),
    (channel, "lower_inc_gamma", "specfun.lower_inc_gamma", True),
    (channel, "upper_inc_gamma", "specfun.upper_inc_gamma", True),
)

BYTES_PER_DRAW = 8  # float64


class Tracer:
    """Spans and per-function totals of the calls made while installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, start ns, end ns)
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.emit_bytes = 0
        # (enclosing run_sweep span, (N, seed, streams, trials, eav_mode))
        self.draw_sets: list[tuple] = []
        self._stack: list[list] = []  # [span id, ns spent in child spans, name]
        self._next_id = 1
        self._saved: list[tuple] = []

    def _wrap(self, original, name: str, leaf: bool):
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0, name]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.total_ns[name] += duration
                self.self_ns[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if not leaf:
                    self.spans.append((span_id, parent, name, start, end))
            self._count(name, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name: str, args, kwargs, result) -> None:
        if name == "sweeps.emit":
            self.emit_bytes += len(result.encode("utf-8"))
        elif name == "montecarlo.simulate_metrics":
            params = args[0] if args else kwargs["params"]
            mc = args[1] if len(args) > 1 else kwargs["mc"]
            sweep = next((f[0] for f in reversed(self._stack)
                          if f[2] == "sweeps.run_sweep"), 0)
            self.draw_sets.append((sweep, (params.n_elements, mc.seed, mc.stream_count,
                                           mc.trials, mc.eav_mode)))

    def __enter__(self) -> "Tracer":
        for owner, attr, name, leaf in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, leaf))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def seconds(self, name: str) -> float:
        return self.total_ns[name] / 1e9

    def self_seconds(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    def write(self, path: Path) -> None:
        """Spans as JSON lines, times in ns from the first span's start."""
        t0 = min((s[3] for s in self.spans), default=0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps([span_id, parent, name, start - t0, end - t0]) + "\n")
            fh.write(json.dumps({"leaf_calls": {n: self.calls[n] for _, _, n, leaf in TARGETS
                                                if leaf}}) + "\n")


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}

    def timed(name: str, *fields: str) -> None:
        for f in fields:
            if f == "calls":
                out[f"{name}.calls"] = (tr.calls[name], "count")
            elif f == "s":
                out[f"{name}.s"] = (tr.seconds(name), "s")
            else:
                out[f"{name}.self_s"] = (tr.self_seconds(name), "s")

    mc = "montecarlo.simulate_metrics"
    timed(mc, "calls", "s")
    draws = [d for _, d in tr.draw_sets]
    trials = sum(d[3] for d in draws)
    element_draws = sum(2 * d[0] * d[3] for d in draws)
    mc_s = tr.seconds(mc)
    out["montecarlo.trials_drawn"] = (trials, "count")
    out["montecarlo.trials_per_s"] = (trials / mc_s if mc_s else 0.0, "1/s")
    out["montecarlo.element_draws_per_s"] = (element_draws / mc_s if mc_s else 0.0, "1/s")
    out["montecarlo.draw_bytes_computed"] = (
        sum(d[3] * (2 * d[0] + 1) * BYTES_PER_DRAW for d in draws), "B")
    # Distinct draw sets over draw sets made: across the whole pass, and
    # counting a set once per sweep (what one draw per sweep can reach).
    out["montecarlo.useful_draw_ratio"] = (
        len(set(draws)) / len(draws) if draws else 0.0, "ratio")
    out["montecarlo.sweep_useful_draw_ratio"] = (
        len(set(tr.draw_sets)) / len(draws) if draws else 0.0, "ratio")
    for fn in ("sop", "sop_asymptotic", "avg_secrecy_capacity"):
        timed(f"secrecy.{fn}", "calls", "s", "self_s")
    timed("channel.derive_stats", "calls", "s")
    for fn in ("cdf_rho_d", "ccdf_rho_d"):
        timed(f"channel.{fn}", "calls", "s", "self_s")
    for fn in ("lower_inc_gamma", "upper_inc_gamma"):
        timed(f"specfun.{fn}", "calls", "s")
    timed("specfun.e1_scaled", "calls")
    timed("sweeps.run_sweep", "calls", "s", "self_s")
    timed("sweeps.emit", "calls", "s")
    out["sweeps.emit.bytes"] = (tr.emit_bytes, "B")
    timed("sweeps.load_preset", "s")
    timed("cli.main", "s", "self_s")
    return out
