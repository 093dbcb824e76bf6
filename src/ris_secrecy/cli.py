"""Command-line driver.

Subcommands:

* ``run <config>``: execute one sweep config, write CSV/JSON.
* ``preset <name>``: run a bundled figure preset (one output file per
  curve).
* ``selftest``: oracle-equivalence suite; closed forms must match their
  adaptive-quadrature twins. With ``--trials`` the closed forms are also
  compared with simulation. By default that is the signal-level
  simulator, and its gap (the error of the Gaussian-sum channel model)
  is only reported. ``--strict-mc`` instead simulates the Gaussian-sum
  model the closed forms are derived for, and fails the run beyond 3
  standard errors (for the SOP, outside the Wilson score interval of
  the outage count; see ``sweeps.mc_gap``). ``--seed`` and
  ``--strict-mc`` apply to that comparison only, so without
  ``--trials`` they are a configuration error.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .channel import SystemParams, derive_stats
from .montecarlo import McConfig, model_law_chunks, simulate_metrics
from .secrecy import NumericsConfig
from .sweeps import (
    ROUTES,
    ConfigError,
    PRESET_NAMES,
    SweepSpec,
    emit,
    load_config,
    load_preset,
    mc_gap,
    run_sweeps,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


def _override(config, args, *names):
    """Apply CLI flags to ``config``; a value it rejects is a ConfigError naming the flag."""
    for name in (n for n in names if getattr(args, n) is not None):
        try:
            config = dataclasses.replace(config, **{name: getattr(args, name)})
        except ValueError as exc:
            raise ConfigError(f"--{name.replace('_', '-')}: {exc}") from exc
    return config


def _apply_overrides(spec: SweepSpec, args) -> SweepSpec:
    return dataclasses.replace(spec, mc=_override(spec.mc, args, "trials", "seed"),
                               numerics=_override(spec.numerics, args, "quad_order"))


def _cmd_run(args) -> int:
    [table] = run_sweeps([_apply_overrides(load_config(args.config), args)])
    text = emit(table, args.format, args.out)
    if args.out is None:
        sys.stdout.write(text)
    else:
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_preset(args) -> int:
    from pathlib import Path

    curves = load_preset(args.name)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    specs = [_apply_overrides(spec, args) for spec in curves.values()]
    for label, table in zip(curves, run_sweeps(specs)):
        path = out_dir / f"{args.name}_{label}.{args.format}"
        emit(table, args.format, path)
        print(f"wrote {path}")
    return EXIT_OK


_SELFTEST_SCENARIOS = (
    # (n_elements, snr_d_db, snr_e_db)
    (5, 10.0, -10.0),
    (5, 0.0, 0.0),
    (10, 20.0, -10.0),
    (10, 10.0, 0.0),
)

# the metrics with a Monte Carlo estimate, each checked against its twin and simulation
_SELFTEST_METRICS = {name: route for name, route in ROUTES.items() if route.mc}


def _cmd_selftest(args) -> int:
    numerics = _override(NumericsConfig(quad_order=200), args, "quad_order")
    mc = None
    if args.trials is not None:
        mc = _override(McConfig(), args, "trials", "seed")
    else:
        for flag, given in (("--seed", args.seed is not None), ("--strict-mc", args.strict_mc)):
            if given:
                raise ConfigError(f"{flag}: applies to the Monte Carlo comparison only; "
                                  "give --trials too")
    quad_tol = 1e-6
    ok = True
    for n, gd, ge in _SELFTEST_SCENARIOS:
        params = SystemParams(n_elements=n, kappa_d_t2=0.01, kappa_d_r2=0.01,
                              kappa_e_t2=0.01, kappa_e_r2=0.01,
                              snr_d_db=gd, snr_e_db=ge, c_th=1.0)
        stats = derive_stats(params)
        label = f"N={n:2d} snr_d={gd:5.1f}dB snr_e={ge:5.1f}dB"

        closed = {}
        for name, route in _SELFTEST_METRICS.items():
            closed[name] = value = route.closed_form(params, stats, numerics)
            ref = route.twin(params, stats, numerics)
            gap = abs(value - ref)
            good = gap < quad_tol
            ok &= good
            print(f"[{'PASS' if good else 'FAIL'}] {label} {name} closed={value:.8f} "
                  f"quadrature={ref:.8f} |diff|={gap:.2e}")

        if mc is not None:
            if args.strict_mc:
                est = simulate_metrics(params, mc, model_law_chunks(stats, mc))
                against = "Gaussian-sum model simulation"
            else:
                est = simulate_metrics(params, mc)
                against = "signal-level simulation"
            for name, route in _SELFTEST_METRICS.items():
                gap, se, within = mc_gap(closed[name], est[route.mc], outage=route.mc == "sop")
                units = gap / se if se > 0 else float("inf")
                tag = "PASS" if within else ("FAIL" if args.strict_mc else "NOTE")
                if args.strict_mc:
                    ok &= within
                print(f"[{tag}] {label} {name} vs {against} gap={gap:.3e} "
                      f"({units:.1f} standard errors)")
    print("selftest:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ris-secrecy",
        description="Secrecy outage and capacity of a RIS-aided wiretap link",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a sweep config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")

    p_preset = sub.add_parser("preset", help="run a bundled figure preset")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    p_preset.add_argument("--out-dir", default=".")
    p_preset.add_argument("--format", choices=("csv", "json"), default="csv")

    p_self = sub.add_parser("selftest", help="oracle-equivalence suite")
    p_self.add_argument("--strict-mc", action="store_true",
                        help="simulate the Gaussian-sum model and fail when a gap "
                             "exceeds 3 standard errors")

    for p in (p_run, p_preset, p_self):
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--quad-order", type=int, default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "preset":
            return _cmd_preset(args)
        return _cmd_selftest(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:  # ConvergenceError is one
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
