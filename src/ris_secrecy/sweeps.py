"""Sweep configuration, execution and table I/O.

A sweep varies one scenario field over an ordered grid, evaluates the
requested analytical and Monte Carlo metrics at every point and returns
a flat table of rows; per-point failures are recorded in the row's
error column rather than aborting the sweep. Rows are ordered by (grid
position, canonical metric order) regardless of how the points are
evaluated, and all randomness is pinned by the embedded Monte Carlo
seed, so emitting the same spec twice produces byte-identical files.

The Monte Carlo fading depends on N and the McConfig only. A sweep over
any other axis scores all its points on one draw set. The curves of one
:func:`run_sweeps` call share one ``montecarlo.DrawSets``, which keeps
the last set it handed out for a later curve with the same N and
McConfig. A smaller N's draws are the first element columns of a larger
N's, so in ``rayleigh`` mode a curve with the same McConfig and a larger
N grows the kept set in place and draws only its new columns; any other
curve drops it and draws afresh. That changes no value. On its set a
sweep over ``snr_d_db``, the axis of every bundled preset curve, scores
the eavesdropper link, which the axis leaves unchanged, once per chunk
and reuses those arrays at every point through a ``LinkMemo``, which it
drops on return. The memo keeps what each point would compute itself,
each trial's critical destination SNR among them, so the values are the
per-point ones. The ``montecarlo`` docstring gives what each of these
holds per trial.

A sweep over ``n_elements`` empties the store and stores no draws. Its
points are scored on one pass of ``montecarlo.simulate_points``: a
smaller N's draws are the first element columns of a larger N's, so
each chunk is drawn once for the largest N, every N's X1 is a snapshot
of one running sum over the elements, and each point's accumulator
takes its chunk as it is drawn.
The values are bit for bit the per-point ones.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import typing
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import yaml

from ._schema import check_field_types, fits, type_hints
from .channel import SystemParams, derive_stats
from .montecarlo import (
    DrawSets,
    EstimateWithCI,
    LinkMemo,
    McConfig,
    simulate_metrics,
    simulate_points,
)
from .secrecy import (
    NumericsConfig,
    avg_secrecy_capacity,
    avg_secrecy_capacity_reference,
    sop,
    sop_asymptotic,
    sop_asymptotic_reference,
    sop_reference,
)

Axis = typing.Literal["snr_d_db", "n_elements", "kappa2", "snr_e_db", "c_th"]
Metric = typing.Literal["sop", "sop_asymptotic", "asc", "mc_sop", "mc_asc"]
AXES, METRICS = typing.get_args(Axis), typing.get_args(Metric)
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

    axis: Axis
    values: tuple
    base: SystemParams
    outputs: tuple[Metric, ...]
    numerics: NumericsConfig = field(default_factory=NumericsConfig)
    mc: McConfig = field(default_factory=McConfig)
    kappa_convention: typing.Literal["squared", "amplitude"] = "squared"

    def __post_init__(self):
        check_field_types(self, ConfigError)
        if len(self.values) == 0:
            raise ConfigError("values: must be non-empty")
        if self.axis == "n_elements":
            if not fits(self.values, tuple[int, ...]):
                raise ConfigError(f"values: n_elements must be integers, got {self.values!r}")
        elif not (fits(self.values, tuple[float, ...]) and all(map(math.isfinite, self.values))):
            raise ConfigError(f"values: {self.axis} must be finite numbers, got {self.values!r}")
        diffs = [b - a for a, b in zip(self.values, self.values[1:])]
        if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)) and diffs:
            raise ConfigError("values: must be strictly monotone")
        if len(self.outputs) == 0:
            raise ConfigError("outputs: must be non-empty")


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


class Route(typing.NamedTuple):
    closed_form: typing.Callable  # the value at (params, stats, numerics)
    twin: typing.Callable  # the same by adaptive quadrature, independent of the closed form
    mc: str | None  # the key of the Monte Carlo estimate of ``mc_<metric>``, if emitted


# The one table of each analytic metric's routes, read by run_sweep, _mc_keys,
# _annotate_mc_gap and the CLI's selftest. The closed-form lambdas look the
# closed forms up as module globals at call time, so that wrappers installed
# on this module see every call.
ROUTES = {
    "sop": Route(lambda p, s, n: sop(p, s, n), sop_reference, "sop"),
    "sop_asymptotic": Route(lambda p, s, n: sop_asymptotic(p, s, n),
                            sop_asymptotic_reference, None),
    "asc": Route(lambda p, s, n: avg_secrecy_capacity(p, s, n).value,
                 lambda p, s, n: avg_secrecy_capacity_reference(p, s, n).value, "asc_eq19"),
}


def _mc_keys(spec: SweepSpec) -> list[str]:
    """The Monte Carlo estimates a sweep emits or checks; only these are computed."""
    return [r.mc for m, r in ROUTES.items()
            if r.mc and (f"mc_{m}" in spec.outputs or spec.numerics.mc_check)]


def _mc_estimates(spec: SweepSpec, points: list, store: DrawSets) -> list:
    """Each point's Monte Carlo estimates, or the exception that stopped them.

    An ``n_elements`` sweep empties ``store``, so that no stored set is
    held through its pass, and scores all its points on one pass of
    ``simulate_points``, which draws each chunk once for all its N. Any
    other sweep scores each point on the set of its N and McConfig, got
    before the first point from ``store``, which keeps, grows or redraws
    it (see ``montecarlo.DrawSets``). A ``snr_d_db`` sweep scores the
    eavesdropper link once per chunk of that set through a
    :class:`LinkMemo`. Nothing is drawn without a point. A draw that
    raises is tried once per store and key: its error is given to every
    point of every curve with that N and McConfig.
    """
    keys = _mc_keys(spec)
    if not keys or not points:
        return [None] * len(points)
    if spec.axis == "n_elements":
        store.kept = None
        try:
            return simulate_points(points, spec.mc, keys)
        except Exception as exc:  # recorded per mc row
            return [exc] * len(points)
    draws, out = store.get(spec.base.n_elements, spec.mc), []
    if isinstance(draws, Exception):
        return [draws] * len(points)
    # the eavesdropper link stays put
    memo = LinkMemo(draws) if spec.axis == "snr_d_db" else None
    for params in points:
        try:
            out.append(simulate_metrics(params, spec.mc, draws, keys=keys, memo=memo))
        except Exception as exc:  # recorded per mc row
            out.append(exc)
    return out


def run_sweep(spec: SweepSpec, store: DrawSets | None = None) -> list[Row]:
    """Evaluate every requested metric at every grid point.

    The Monte Carlo rows are scored on draws from ``store``, a
    ``montecarlo.DrawSets`` shared with other curves (see
    :func:`run_sweeps`); without it the sweep makes its own and drops it
    on return (see :func:`_mc_estimates`).
    """
    points = []  # (value, params, stats), or (value, error, None)
    for value in spec.values:
        try:
            params = _params_at(spec, value)
            points.append((value, params, derive_stats(params)))
        except ValueError as exc:
            points.append((value, exc, None))
    valid = [params for _, params, stats in points if stats is not None]
    estimates = iter(_mc_estimates(spec, valid, DrawSets() if store is None else store))
    rows: list[Row] = []
    for value, params, stats in points:
        point_rows: dict[str, Row] = {}
        if stats is None:
            for metric in METRICS:
                if metric in spec.outputs:
                    point_rows[metric] = Row(spec.axis, value, metric, None, error=str(params))
            rows.extend(point_rows[m] for m in METRICS if m in point_rows)
            continue

        mc_est = next(estimates)
        for metric in METRICS:
            if metric not in spec.outputs:
                continue
            try:
                if metric in ROUTES:
                    row = Row(spec.axis, value, metric,
                              ROUTES[metric].closed_form(params, stats, spec.numerics))
                elif isinstance(mc_est, Exception):  # raising it would grow a kept traceback
                    row = Row(spec.axis, value, metric, None, error=str(mc_est))
                else:
                    est = mc_est[ROUTES[metric.removeprefix("mc_")].mc]
                    row = Row(spec.axis, value, metric, est.value, est.std_error,
                              est.trials, est.seed)
            except Exception as exc:
                row = Row(spec.axis, value, metric, None, error=str(exc))
            point_rows[metric] = row

        if spec.numerics.mc_check and not isinstance(mc_est, Exception) and mc_est:
            point_rows = {m: _annotate_mc_gap(r, mc_est) for m, r in point_rows.items()}
        rows.extend(point_rows[m] for m in METRICS if m in point_rows)
    return rows


def run_sweeps(specs):
    """Yield :func:`run_sweep`'s table of each spec, in order.

    Every curve scores on one ``montecarlo.DrawSets``, which is exact,
    since the draws depend on N and the McConfig only. The store keeps
    the last set it handed out, so that a later curve with the same N
    and McConfig reuses it and, in ``rayleigh`` mode, one with a larger
    N grows it; any other curve draws afresh.
    """
    store = DrawSets()
    for spec in specs:
        yield run_sweep(spec, store)  # the module global, as wrapped when traced


def mc_gap(value: float, est: EstimateWithCI, outage: bool) -> tuple[float, float, bool]:
    """``(gap, standard error, within)`` of ``value`` against a Monte Carlo estimate.

    ``within`` is gap <= 3 standard errors. A rate's standard error is
    ``est.std_error``. An outage probability's is sqrt(p (1 - p)/n) at
    p = ``value``, the score test: ``value`` is within exactly when it
    lies inside the Wilson score interval of the outage count at z = 3
    (Wilson, JASA 22, 1927; Brown, Cai and DasGupta, Stat. Sci. 16,
    2001). The estimate's own standard error is 0 at 0 outages, where
    any positive value would be flagged; the interval at 0 outages in
    1e5 trials reaches 9.0e-5.
    """
    gap = abs(value - est.value)
    se = math.sqrt(value * (1.0 - value) / est.trials) if outage else est.std_error
    return gap, se, gap <= 3.0 * se


def _annotate_mc_gap(row: Row, mc_est) -> Row:
    """Flag analytic values outside 3 standard errors of the MC (see :func:`mc_gap`)."""
    key = ROUTES[row.metric].mc if row.metric in ROUTES else None
    if key is None or row.value is None:
        return row
    gap, se, within = mc_gap(row.value, mc_est[key], outage=key == "sop")
    if not within:
        note = f"mc-gap {gap:.3e} exceeds 3*SE {3.0 * se:.3e}"
        return dataclasses.replace(row, error=note)
    return row


# --- configuration I/O -----------------------------------------------------

# libyaml's parser where PyYAML was built with it; both build the same objects
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(obj).__name__}")
    return obj


def _from_mapping(cls, mapping, where: str):
    """Build config dataclass ``cls`` from a parsed YAML mapping.

    The fields of ``cls`` are the schema: unknown keys and missing
    required fields are rejected, nested config classes are read from
    nested mappings, and YAML lists become tuples. Whatever the class
    rejects comes back as a :class:`ConfigError` naming the section.
    """
    mapping = _require_mapping(mapping, where)
    fields = dataclasses.fields(cls)
    unknown = set(mapping) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {sorted(unknown)}")
    kwargs = {}
    for f in fields:
        if f.name not in mapping:
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ConfigError(f"{where}: missing required field {f.name!r}")
            continue
        value = mapping[f.name]
        hint = type_hints(cls)[f.name]
        nested = [t for t in (hint, *typing.get_args(hint)) if dataclasses.is_dataclass(t)]
        if nested:
            value = _from_mapping(nested[0], value, f"{where}.{f.name}")
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _to_mapping(obj) -> dict:
    """The mapping :func:`_from_mapping` reads back as ``obj``; ``None`` fields are left out."""
    mapping = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if value is None:
            continue
        if dataclasses.is_dataclass(value):
            value = _to_mapping(value)
        elif isinstance(value, tuple):
            value = list(value)
        mapping[f.name] = value
    return mapping


def load_config(path) -> SweepSpec:
    """Parse a single-sweep YAML config."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    return _from_mapping(SweepSpec, data, str(path))


def save_config(spec: SweepSpec, path) -> None:
    """Write a config that :func:`load_config` reads back identically."""
    Path(path).write_text(
        yaml.safe_dump(_to_mapping(spec), sort_keys=False), encoding="utf-8"
    )


PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5", "fig6")


def load_preset(name: str) -> dict[str, SweepSpec]:
    """Load a bundled figure preset: an ordered {curve label: sweep} map."""
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}, expected one of {PRESET_NAMES}")
    # this tree's presets, also where the package is loaded under another name
    text = resources.files(__package__).joinpath("presets", f"{name}.yaml").read_text("utf-8")
    data = yaml.load(text, Loader=_YAML_LOADER)
    curves = _require_mapping(_require_mapping(data, name).get("curves"), f"{name}.curves")
    return {label: _from_mapping(SweepSpec, m, f"{name}.curves.{label}")
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


def load_table(path, fmt: str) -> list[Row]:
    """Read back a table written by :func:`emit`.

    An entry that makes no :class:`Row`, such as a CSV row with another
    cell count than the header, a JSON entry with unknown or missing
    keys, or a value its field's annotation rejects, raises
    :class:`ConfigError` naming the path and the row, counted from 1
    after the CSV header.
    """
    text = Path(path).read_text(encoding="utf-8")
    if fmt == "json":
        records = json.loads(text)

        def make(entry):
            row = Row(**entry)
            check_field_types(row)
            return row
    elif fmt == "csv":
        records = csv.reader(io.StringIO(text))
        header = next(records, None)
        if header is None or tuple(header) != CSV_COLUMNS:
            raise ConfigError(f"{path}: unexpected CSV header {header}")
        # each cell's type is its Row field's annotation, X of an ``X | None``
        parse = {col: (typing.get_args(hint) or (hint,))[0]
                 for col, hint in type_hints(Row).items()}

        def make(record):
            if len(record) != len(CSV_COLUMNS):
                raise ValueError(f"{len(record)} cells, expected {len(CSV_COLUMNS)}")
            return Row(**{c: parse[c](cell) if cell else None
                          for c, cell in zip(CSV_COLUMNS, record)})
    else:
        raise ConfigError(f"format: must be 'csv' or 'json', got {fmt!r}")
    rows = []
    for i, record in enumerate(records, 1):
        try:
            rows.append(make(record))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: row {i}: {exc}") from exc
    return rows
