"""Sweep configuration, execution and table I/O.

A sweep varies one scenario field over an ordered grid, evaluates the
requested analytical and Monte Carlo metrics at every point and returns
a flat table of rows; per-point failures are recorded in the row's
error column rather than aborting the sweep. Rows are ordered by (grid
position, canonical metric order) regardless of how the points are
evaluated, and all randomness is pinned by the embedded Monte Carlo
seed, so emitting the same spec twice produces byte-identical files.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import yaml

from .channel import LinkGeometry, SystemParams, derive_stats
from .montecarlo import McConfig, draw_chunks, simulate_metrics
from .secrecy import (
    NumericsConfig,
    UnsupportedRegimeError,
    avg_secrecy_capacity,
    sop,
    sop_asymptotic,
)
from .specfun import SeriesControl

AXES = ("snr_d_db", "n_elements", "kappa2", "snr_e_db", "c_th")
METRICS = ("sop", "sop_asymptotic", "asc", "mc_sop", "mc_asc")
CSV_COLUMNS = ("axis", "axis_value", "metric", "value", "std_error",
               "trials", "seed", "error")


class ConfigError(ValueError):
    """A sweep configuration that violates an invariant; names the field."""


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: an axis, its grid, and what to compute at each point.

    ``kappa_convention`` controls how values on the ``kappa2`` axis are
    read: ``squared`` takes them as the kappa^2 levels directly,
    ``amplitude`` squares them first (for configs written in terms of
    kappa itself).
    """

    axis: str
    values: tuple
    base: SystemParams
    outputs: tuple
    numerics: NumericsConfig = field(default_factory=NumericsConfig)
    mc: McConfig = field(default_factory=McConfig)
    kappa_convention: str = "squared"

    def __post_init__(self):
        if self.axis not in AXES:
            raise ConfigError(f"axis: must be one of {AXES}, got {self.axis!r}")
        if len(self.values) == 0:
            raise ConfigError("values: must be non-empty")
        diffs = [b - a for a, b in zip(self.values, self.values[1:])]
        if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)) and diffs:
            raise ConfigError("values: must be strictly monotone")
        if len(self.outputs) == 0:
            raise ConfigError("outputs: must be non-empty")
        for m in self.outputs:
            if m not in METRICS:
                raise ConfigError(f"outputs: unknown metric {m!r}, expected subset of {METRICS}")
        if self.kappa_convention not in ("squared", "amplitude"):
            raise ConfigError(
                f"kappa_convention: must be 'squared' or 'amplitude', got {self.kappa_convention!r}"
            )


@dataclass(frozen=True)
class Row:
    """One (grid point, metric) result."""

    axis: str
    axis_value: float
    metric: str
    value: float | None
    std_error: float | None = None
    trials: int | None = None
    seed: int | None = None
    error: str | None = None


def _params_at(spec: SweepSpec, value) -> SystemParams:
    base = spec.base
    if spec.axis == "n_elements":
        return dataclasses.replace(base, n_elements=int(value))
    if spec.axis == "kappa2":
        k2 = float(value) ** 2 if spec.kappa_convention == "amplitude" else float(value)
        return dataclasses.replace(base, kappa_d_t2=k2, kappa_d_r2=k2,
                                   kappa_e_t2=k2, kappa_e_r2=k2)
    return dataclasses.replace(base, **{spec.axis: float(value)})


def run_sweep(spec: SweepSpec) -> list[Row]:
    """Evaluate every requested metric at every grid point."""
    rows: list[Row] = []
    wants_mc = any(m.startswith("mc_") for m in spec.outputs) or spec.numerics.mc_check
    # The fading draws depend on N and the McConfig only, so every point
    # of a sweep over another axis is scored on one draw set, made at the
    # first point that needs it. None draws lazily per point.
    draws = None
    for value in spec.values:
        point_rows: dict[str, Row] = {}
        try:
            params = _params_at(spec, value)
            stats = derive_stats(params)
        except (ValueError, ConfigError) as exc:
            for metric in METRICS:
                if metric in spec.outputs:
                    point_rows[metric] = Row(spec.axis, value, metric, None, error=str(exc))
            rows.extend(point_rows[m] for m in METRICS if m in point_rows)
            continue

        mc_est = None
        if wants_mc:
            try:
                if draws is None and spec.axis != "n_elements":
                    draws = list(draw_chunks(spec.base.n_elements, spec.mc))
                mc_est = simulate_metrics(params, spec.mc, draws)
            except Exception as exc:  # recorded per mc row below
                mc_est = exc

        for metric in METRICS:
            if metric not in spec.outputs:
                continue
            try:
                if metric == "sop":
                    row = Row(spec.axis, value, metric, sop(params, stats, spec.numerics))
                elif metric == "sop_asymptotic":
                    row = Row(spec.axis, value, metric,
                              sop_asymptotic(params, stats, spec.numerics))
                elif metric == "asc":
                    cap = avg_secrecy_capacity(params, stats, spec.numerics,
                                               ideal_hardware_fallback=True)
                    row = Row(spec.axis, value, metric, cap.value)
                else:
                    if isinstance(mc_est, Exception):
                        raise mc_est
                    est = mc_est["sop" if metric == "mc_sop" else "asc_eq19"]
                    row = Row(spec.axis, value, metric, est.value, est.std_error,
                              est.trials, est.seed)
            except Exception as exc:
                row = Row(spec.axis, value, metric, None, error=str(exc))
            point_rows[metric] = row

        if spec.numerics.mc_check and not isinstance(mc_est, Exception) and mc_est:
            point_rows = {m: _annotate_mc_gap(r, mc_est) for m, r in point_rows.items()}
        rows.extend(point_rows[m] for m in METRICS if m in point_rows)
    return rows


def _annotate_mc_gap(row: Row, mc_est) -> Row:
    """Flag analytic values that sit outside 3 standard errors of the MC."""
    key = {"sop": "sop", "asc": "asc_eq19"}.get(row.metric)
    if key is None or row.value is None:
        return row
    est = mc_est[key]
    gap = abs(row.value - est.value)
    if gap > 3.0 * est.std_error:
        note = f"mc-gap {gap:.3e} exceeds 3*SE {3.0 * est.std_error:.3e}"
        return dataclasses.replace(row, error=note)
    return row


# --- configuration I/O -----------------------------------------------------

_BASE_FIELDS = ("n_elements", "kappa_d_t2", "kappa_d_r2", "kappa_e_t2",
                "kappa_e_r2", "snr_d_db", "snr_e_db", "c_th")
_GEOMETRY_FIELDS = ("p_s", "n0", "d_sr", "d_rd", "d_re", "chi")


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(obj).__name__}")
    return obj


def _check_keys(mapping: dict, allowed, where: str):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {sorted(unknown)}")


def _build_params(mapping: dict, where: str) -> SystemParams:
    mapping = _require_mapping(mapping, where)
    _check_keys(mapping, _BASE_FIELDS + ("geometry",), where)
    geometry = None
    if "geometry" in mapping:
        gm = _require_mapping(mapping["geometry"], f"{where}.geometry")
        _check_keys(gm, _GEOMETRY_FIELDS, f"{where}.geometry")
        geometry = LinkGeometry(**{k: float(gm[k]) for k in _GEOMETRY_FIELDS})
    kwargs = {k: mapping[k] for k in _BASE_FIELDS if k in mapping}
    try:
        return SystemParams(geometry=geometry, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _spec_from_mapping(mapping: dict, where: str = "config") -> SweepSpec:
    mapping = _require_mapping(mapping, where)
    _check_keys(mapping, ("axis", "values", "outputs", "base", "numerics",
                          "mc", "kappa_convention"), where)
    for key in ("axis", "values", "outputs", "base"):
        if key not in mapping:
            raise ConfigError(f"{where}: missing required field {key!r}")
    base = _build_params(mapping["base"], f"{where}.base")

    numerics = NumericsConfig()
    if "numerics" in mapping:
        nm = dict(_require_mapping(mapping["numerics"], f"{where}.numerics"))
        _check_keys(nm, ("quad_order", "series", "tail_epsilon",
                         "theta2_epsilon", "mc_check"), f"{where}.numerics")
        series = SeriesControl()
        if "series" in nm:
            sm = _require_mapping(nm.pop("series"), f"{where}.numerics.series")
            _check_keys(sm, ("max_terms", "rel_tol"), f"{where}.numerics.series")
            try:
                series = SeriesControl(**sm)
            except ValueError as exc:
                raise ConfigError(f"{where}.numerics.series: {exc}") from exc
        try:
            numerics = NumericsConfig(series=series, **nm)
        except ValueError as exc:
            raise ConfigError(f"{where}.numerics: {exc}") from exc

    mc = McConfig()
    if "mc" in mapping:
        mm = _require_mapping(mapping["mc"], f"{where}.mc")
        _check_keys(mm, ("trials", "seed", "stream_count", "eav_mode"), f"{where}.mc")
        try:
            mc = McConfig(**mm)
        except ValueError as exc:
            raise ConfigError(f"{where}.mc: {exc}") from exc

    try:
        return SweepSpec(
            axis=mapping["axis"],
            values=tuple(mapping["values"]),
            base=base,
            outputs=tuple(mapping["outputs"]),
            numerics=numerics,
            mc=mc,
            kappa_convention=mapping.get("kappa_convention", "squared"),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _spec_to_mapping(spec: SweepSpec) -> dict:
    base = {k: getattr(spec.base, k) for k in _BASE_FIELDS}
    if spec.base.geometry is not None:
        base["geometry"] = {k: getattr(spec.base.geometry, k) for k in _GEOMETRY_FIELDS}
    return {
        "axis": spec.axis,
        "values": list(spec.values),
        "outputs": list(spec.outputs),
        "kappa_convention": spec.kappa_convention,
        "base": base,
        "numerics": {
            "quad_order": spec.numerics.quad_order,
            "tail_epsilon": spec.numerics.tail_epsilon,
            "theta2_epsilon": spec.numerics.theta2_epsilon,
            "mc_check": spec.numerics.mc_check,
            "series": {
                "max_terms": spec.numerics.series.max_terms,
                "rel_tol": spec.numerics.series.rel_tol,
            },
        },
        "mc": {
            "trials": spec.mc.trials,
            "seed": spec.mc.seed,
            "stream_count": spec.mc.stream_count,
            "eav_mode": spec.mc.eav_mode,
        },
    }


def load_config(path) -> SweepSpec:
    """Parse a single-sweep YAML config."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    return _spec_from_mapping(data, where=str(path))


def save_config(spec: SweepSpec, path) -> None:
    """Write a config that :func:`load_config` reads back identically."""
    Path(path).write_text(
        yaml.safe_dump(_spec_to_mapping(spec), sort_keys=False), encoding="utf-8"
    )


PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5", "fig6")


def load_preset(name: str) -> dict[str, SweepSpec]:
    """Load a bundled figure preset: an ordered {curve label: sweep} map."""
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}, expected one of {PRESET_NAMES}")
    text = resources.files("ris_secrecy").joinpath("presets", f"{name}.yaml").read_text("utf-8")
    data = yaml.safe_load(text)
    curves = _require_mapping(_require_mapping(data, name).get("curves"), f"{name}.curves")
    return {label: _spec_from_mapping(m, where=f"{name}.curves.{label}")
            for label, m in curves.items()}


# --- table I/O ---------------------------------------------------------------

def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))  # builtin float repr, even for numpy scalars
    return str(v)


def emit(table: list[Row], fmt: str, path=None) -> str:
    """Serialise a result table to ``csv`` or ``json``.

    Returns the text; writes it to ``path`` when given. Output is a pure
    function of the table, so identical sweeps yield identical bytes.
    """
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in table:
            writer.writerow([_cell(getattr(row, col)) for col in CSV_COLUMNS])
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps([dataclasses.asdict(row) for row in table], indent=2) + "\n"
    else:
        raise ConfigError(f"format: must be 'csv' or 'json', got {fmt!r}")
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def _parse_cell(col: str, text: str):
    if text == "":
        return None
    if col in ("axis", "metric", "error"):
        return text
    if col in ("trials", "seed"):
        return int(text)
    return float(text)


def load_table(path, fmt: str) -> list[Row]:
    """Read back a table written by :func:`emit`."""
    text = Path(path).read_text(encoding="utf-8")
    if fmt == "json":
        return [Row(**entry) for entry in json.loads(text)]
    if fmt != "csv":
        raise ConfigError(f"format: must be 'csv' or 'json', got {fmt!r}")
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != CSV_COLUMNS:
        raise ConfigError(f"{path}: unexpected CSV header {header}")
    rows = []
    for record in reader:
        kwargs = {col: _parse_cell(col, cell) for col, cell in zip(CSV_COLUMNS, record)}
        rows.append(Row(**kwargs))
    return rows
