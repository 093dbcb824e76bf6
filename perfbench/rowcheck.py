"""Output check: every emitted row is classified as correct or failed.

Runs outside the timed region on the files a pass wrote. Three kinds of
row are checked:

* an analytic row must agree with its adaptive-quadrature twin within
  ``TOLERANCE``, the absolute gate of acceptance criterion 3;
* an analytic row with no value is a correct decline only for
  ``sop_asymptotic`` where theta4 <= 0; any other error row fails,
  including the "math range error" rows at large N;
* a Monte Carlo row needs a finite value and standard error, the spec's
  trials and seed, and ``mc_sop`` in [0, 1]. At one point per curve both
  Monte Carlo rows must equal a direct ``simulate_metrics`` call bit for
  bit (the seed/stream reproducibility contract).

Failed rows are a measurement (the seed code has known accuracy defects
that the benchmark must show, not hide). A table that is incomplete or
out of order, or Monte Carlo rows with another seed or trial count than
the spec's or that break the reproducibility contract, are a *problem*:
they make the whole result incorrect.
"""

from __future__ import annotations

import dataclasses
import math
import random
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from ris_secrecy.channel import derive_stats
from ris_secrecy.montecarlo import simulate_metrics
from ris_secrecy.secrecy import (
    avg_secrecy_capacity_reference,
    sop_asymptotic_reference,
    sop_reference,
    theta_coefficients,
)
from ris_secrecy.sweeps import METRICS, load_table

TOLERANCE = 1e-6
EXAMPLES_KEPT = 5
_MC_KEYS = {"mc_sop": "sop", "mc_asc": "asc_eq19"}


@dataclass
class CheckReport:
    rows: int = 0
    failed_rows: int = 0
    declined_rows: int = 0
    ref_gap_max: float = 0.0
    mc_points_checked: int = 0
    problems: dict[str, str] = field(default_factory=dict)
    examples: list[str] = field(default_factory=list)

    @property
    def ok_rows(self) -> int:
        return self.rows - self.failed_rows

    def fail(self, where: str, why: str) -> None:
        self.failed_rows += 1
        if len(self.examples) < EXAMPLES_KEPT:
            self.examples.append(f"{where}: {why}")


def _params_at(spec, value):
    """Scenario of one grid point, mapped from the spec independently of sweeps."""
    base = spec.base
    if spec.axis == "n_elements":
        return dataclasses.replace(base, n_elements=int(value))
    if spec.axis == "kappa2":
        k2 = float(value) ** 2 if spec.kappa_convention == "amplitude" else float(value)
        return dataclasses.replace(base, kappa_d_t2=k2, kappa_d_r2=k2,
                                   kappa_e_t2=k2, kappa_e_r2=k2)
    return dataclasses.replace(base, **{spec.axis: float(value)})


def _reference(metric: str, params, stats, numerics) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # quad's IntegrationWarning; the gap decides
        if metric == "sop":
            return sop_reference(params, stats, numerics)
        if metric == "sop_asymptotic":
            return sop_asymptotic_reference(params, stats)
        return avg_secrecy_capacity_reference(params, stats, numerics).value


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _check_analytic(report: CheckReport, where: str, row, spec, params, stats) -> None:
    if row.value is None:
        if row.metric == "sop_asymptotic" and theta_coefficients(params).theta4 <= 0.0:
            report.declined_rows += 1
        else:
            report.fail(where, f"error row: {row.error}")
        return
    if not _finite(row.value):
        report.fail(where, f"non-finite value {row.value}")
        return
    try:
        ref = _reference(row.metric, params, stats, spec.numerics)
    except (ArithmeticError, ValueError) as exc:
        report.fail(where, f"reference raised {exc!r}")
        return
    gap = abs(row.value - ref)
    report.ref_gap_max = max(report.ref_gap_max, gap)
    if not gap <= TOLERANCE:
        report.fail(where, f"value {row.value!r} vs reference {ref!r} (gap {gap:.3e})")


def _check_mc(report: CheckReport, where: str, row, spec, direct) -> None:
    if not _finite(row.value, row.std_error) or row.std_error < 0.0:
        report.fail(where, f"value {row.value!r} std_error {row.std_error!r}")
        return
    if row.metric == "mc_sop" and not 0.0 <= row.value <= 1.0:
        report.fail(where, f"mc_sop {row.value!r} outside [0, 1]")
        return
    if (row.trials, row.seed) != (spec.mc.trials, spec.mc.seed):
        report.fail(where, f"trials/seed {row.trials}/{row.seed} differ from the spec")
        report.problems.setdefault(where, "Monte Carlo trials/seed differ from the spec")
        return
    if direct is not None:
        est = direct[_MC_KEYS[row.metric]]
        if (row.value, row.std_error) != (est.value, est.std_error):
            report.fail(where, "differs from a direct simulate_metrics call")
            report.problems.setdefault(where, "Monte Carlo reproducibility broken")


def check_curve(report: CheckReport, label: str, spec, rows, mc_index: int) -> None:
    """Classify the rows of one curve's table into ``report``."""
    expected = [(float(v), m) for v in spec.values for m in METRICS if m in spec.outputs]
    got = [(r.axis_value, r.metric) for r in rows]
    if got != expected or any(r.axis != spec.axis for r in rows):
        report.problems[label] = f"table rows {got[:3]}... do not match the spec's grid"
        return
    per_point = len(expected) // len(spec.values)
    for i, value in enumerate(spec.values):
        point = rows[i * per_point:(i + 1) * per_point]
        params = _params_at(spec, value)
        stats = derive_stats(params)
        direct = None
        if i == mc_index and any(r.metric in _MC_KEYS for r in point):
            direct = simulate_metrics(params, spec.mc)
            report.mc_points_checked += 1
        for row in point:
            report.rows += 1
            where = f"{label}@{value}:{row.metric}"
            if row.metric in _MC_KEYS:
                _check_mc(report, where, row, spec, direct)
            else:
                _check_analytic(report, where, row, spec, params, stats)


def check_outputs(curves, out_dir: Path, seed: int) -> CheckReport:
    """Check every curve file a pass wrote to ``out_dir``."""
    report = CheckReport()
    for curve in curves:
        path = curve.path(out_dir)
        try:
            rows = load_table(path, "csv")
        except (OSError, ValueError, TypeError) as exc:
            report.problems[curve.label] = f"unreadable output: {exc!r}"
            continue
        mc_index = random.Random(f"check:{seed}:{curve.label}").randrange(len(curve.spec.values))
        check_curve(report, curve.label, curve.spec, rows, mc_index)
    return report
