"""The benchmark workloads: their inputs, built from a seed, and one pass.

``figures``  the five bundled presets through ``cli.main(["preset", ...])``,
             as users reproduce the paper; only the Monte Carlo seed comes
             from the workload seed.
``scan``     an analytic-only parameter study of ``SCAN_CURVES`` short
             curves drawn over the whole valid parameter box.
``large_n``  the ``n_elements`` axis from 8 to 1024 elements at the fig2
             base point, all five outputs, Monte Carlo included.

A pass writes one CSV file per curve into the output directory and
records when each curve (one ``run_sweep`` + ``emit``) started and
ended. The
program is always called through module attributes (``cli.main``,
``sweeps.run_sweep``, ``sweeps.emit``) so that the traced run's wrappers
see these calls.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from ris_secrecy import cli, sweeps
from ris_secrecy.channel import SystemParams
from ris_secrecy.sweeps import SweepSpec

WORKLOADS = ("figures", "scan", "large_n")

# The valid parameter box the scan draws from (ROADMAP, "Grid sweep").
N_RANGE = (1, 64)
SNR_D_RANGE = (-20.0, 60.0)
SNR_E_RANGE = (-20.0, 10.0)
KAPPA2_LEVELS = (0.0, 1e-4, 1e-2, 1e-1)
C_TH_LEVELS = (0.1, 1.0, 3.0)
SCAN_CURVES = 100
SCAN_OUTPUTS = ("sop", "sop_asymptotic", "asc")
SCAN_SNR_STEP_DB = 5.0

LARGE_N_ELEMENTS = (8, 16, 32, 64, 96, 128, 256, 512, 1024)

WARMUP_TRIALS = 1000
# fig2 at its own trial count lets the allocator settle on full-size Monte
# Carlo chunks; fig5 at WARMUP_TRIALS runs the capacity closed form.
WARMUP_PRESETS = (("fig2", None), ("fig5", WARMUP_TRIALS))


@dataclass(frozen=True)
class Curve:
    """One output file: a sweep and the name of the file it is written to."""

    label: str
    spec: SweepSpec

    def path(self, out_dir: Path) -> Path:
        return out_dir / f"{self.label}.csv"


@dataclass
class PassResult:
    """(start, end) of each curve of one pass and the curves that failed in it."""

    curves: list[tuple[float, float]] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)


def _derived_seed(tag: str, seed: int) -> int:
    return random.Random(f"{tag}:{seed}").randrange(2 ** 32)


class _WroteClock:
    """Stdout stand-in that timestamps the CLI's per-curve ``wrote`` lines.

    ``cli preset`` prints one line per curve right after emitting its
    file, so the gaps between these stamps are the per-curve times, read
    without touching the program.
    """

    def __init__(self):
        self.stamps: list[float] = []

    def write(self, text: str) -> int:
        if text.startswith("wrote "):
            self.stamps.append(time.perf_counter())
        return len(text)

    def flush(self) -> None:
        pass


@dataclass
class Workload:
    name: str
    curves: list[Curve]

    def run_pass(self, out_dir: Path) -> PassResult:
        out_dir.mkdir(parents=True, exist_ok=True)
        if self.name == "figures":
            return self._run_presets(out_dir)
        return _run_curves(self.curves, out_dir)

    def warmup(self, out_dir: Path) -> None:
        """Let lazy set-up finish on a reduced pass before anything is timed."""
        out_dir.mkdir(parents=True, exist_ok=True)
        if self.name == "figures":
            for preset, trials in WARMUP_PRESETS:
                argv = ["preset", preset, "--out-dir", str(out_dir)]
                if trials:
                    argv += ["--trials", str(trials)]
                with contextlib.redirect_stdout(_WroteClock()):
                    cli.main(argv)
        else:
            _run_curves(self.curves[:len(sweeps.AXES)], out_dir, warmup=True)

    def _run_presets(self, out_dir: Path) -> PassResult:
        mc_seed = self.curves[0].spec.mc.seed  # one seed for every curve
        result = PassResult()
        for preset in sweeps.PRESET_NAMES:
            labels = [c.label for c in self.curves if c.label.startswith(preset + "_")]
            clock = _WroteClock()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(clock):
                    code = cli.main(["preset", preset, "--out-dir", str(out_dir),
                                     "--seed", str(mc_seed)])
            except Exception as exc:  # a crash fails every curve of the preset
                code = repr(exc)
            marks = [start] + clock.stamps
            result.curves.extend(zip(marks, marks[1:]))
            for label in labels[len(clock.stamps):]:
                result.failed[label] = f"cli preset {preset} returned {code}"
        return result


def _run_curves(curves, out_dir: Path, warmup: bool = False) -> PassResult:
    result = PassResult()
    for curve in curves:
        spec = curve.spec
        if warmup:
            spec = dataclasses.replace(spec, values=spec.values[:2])
        start = time.perf_counter()
        try:
            table = sweeps.run_sweep(spec)
            sweeps.emit(table, "csv", curve.path(out_dir))
        except Exception as exc:  # recorded as a failed operation
            result.failed[curve.label] = repr(exc)
        result.curves.append((start, time.perf_counter()))
    return result


def _figures(seed: int) -> list[Curve]:
    mc_seed = _derived_seed("figures", seed)
    curves = []
    for preset in sweeps.PRESET_NAMES:
        for label, spec in sweeps.load_preset(preset).items():
            spec = dataclasses.replace(spec, mc=dataclasses.replace(spec.mc, seed=mc_seed))
            curves.append(Curve(f"{preset}_{label}", spec))
    return curves


def _large_n(seed: int) -> list[Curve]:
    base = sweeps.load_preset("fig2")["n5"]
    spec = dataclasses.replace(
        base, axis="n_elements", values=LARGE_N_ELEMENTS, outputs=sweeps.METRICS,
        mc=dataclasses.replace(base.mc, seed=_derived_seed("large_n", seed)))
    return [Curve("large_n", spec)]


def _stratified(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of ``count`` equal slices of [lo, hi), shuffled.

    Stratifying keeps the mix of cheap and costly curves, and so the
    work of a pass, nearly the same from seed to seed.
    """
    values = [lo + (hi - lo) * (i + rng.random()) / count for i in range(count)]
    rng.shuffle(values)
    return values


def _balanced(rng: random.Random, count: int, levels) -> list:
    values = [levels[i % len(levels)] for i in range(count)]
    rng.shuffle(values)
    return values


def _scan_grid(axis: str, base: SystemParams) -> tuple:
    """A short, strictly increasing grid inside the box around the base point."""
    if axis == "n_elements":
        n = base.n_elements
        return tuple(sorted({max(N_RANGE[0], n // 2), n, min(N_RANGE[1], 2 * n)}))
    if axis == "kappa2":
        i = KAPPA2_LEVELS.index(base.kappa_d_t2)
        return KAPPA2_LEVELS[:3] if i < 2 else KAPPA2_LEVELS[1:]
    if axis == "c_th":
        return C_TH_LEVELS
    lo, hi = SNR_D_RANGE if axis == "snr_d_db" else SNR_E_RANGE
    start = min(max(getattr(base, axis) - SCAN_SNR_STEP_DB, lo), hi - 2 * SCAN_SNR_STEP_DB)
    return tuple(start + k * SCAN_SNR_STEP_DB for k in range(3))


def _scan(seed: int) -> list[Curve]:
    rng = random.Random(f"scan:{seed}")
    count = SCAN_CURVES
    n_lo, n_hi = N_RANGE
    ns = [min(n_lo + int(u), n_hi) for u in _stratified(rng, count, 0, n_hi - n_lo + 1)]
    snr_d = _stratified(rng, count, *SNR_D_RANGE)
    snr_e = _stratified(rng, count, *SNR_E_RANGE)
    kappa2 = _balanced(rng, count, KAPPA2_LEVELS)
    c_th = _balanced(rng, count, C_TH_LEVELS)
    axes = _balanced(rng, count, sweeps.AXES)
    curves = []
    for i in range(count):
        k2 = kappa2[i]
        base = SystemParams(n_elements=ns[i], kappa_d_t2=k2, kappa_d_r2=k2,
                            kappa_e_t2=k2, kappa_e_r2=k2, snr_d_db=snr_d[i],
                            snr_e_db=snr_e[i], c_th=c_th[i])
        spec = SweepSpec(axis=axes[i], values=_scan_grid(axes[i], base), base=base,
                         outputs=SCAN_OUTPUTS)
        curves.append(Curve(f"scan_{i:03d}_{axes[i]}", spec))
    return curves


_BUILDERS = {"figures": _figures, "scan": _scan, "large_n": _large_n}


def build(name: str, seed: int) -> Workload:
    """The workload's inputs; the same seed always gives the same inputs."""
    return Workload(name, _BUILDERS[name](seed))
