"""Benchmark of the ris_secrecy package: one workload, one result line.

    python3 perfbench/run.py --workload figures|scan|large_n --seed N \
        --seconds S --trace 0|1

Builds the workload's inputs from the seed, runs one reduced warm-up
pass, then repeats full passes until ``--seconds`` have passed (at least
one), and checks every row the last pass wrote. With ``--trace 0`` it
prints the end-to-end metrics, with ``--trace 1`` it runs one more pass
under the tracer and prints the per-layer metrics. Pass and curve
times are scaled to a reference core speed (see speedprobe.py). The last line of
standard output is the result as JSON; the line before it holds the
machine facts and the details behind the metrics. Exits 2 without a
result when the checkout holds no package to measure. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import benchenv

HERE = Path(__file__).resolve().parent
WORK_DIR = benchenv.ROOT / ".perfbench"
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("figures", "scan", "large_n"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes that import the package and build the specs.

    Returns (scaled, raw) times. A process's time runs from its start to its
    exit; the part inside the probe script is scaled to the reference core
    speed, interpreter start-up and exit count as measured.
    """
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "probe_setup.py"), workload, str(seed)],
                              check=True, timeout=SETUP_TIMEOUT_S, capture_output=True, text=True)
        wall = time.perf_counter() - start
        inside = json.loads(proc.stdout.strip().splitlines()[-1])
        scaled.append(wall - inside["raw_s"] + inside["scaled_s"])
        raw.append(wall)
    return scaled, raw


def _digests(curves, out_dir: Path) -> dict[str, str | None]:
    out = {}
    for curve in curves:
        path = curve.path(out_dir)
        out[curve.label] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return out


class Passes:
    """Timed passes of one workload and the curves that failed in them."""

    def __init__(self, workload, out_dir: Path):
        self.workload = workload
        self.out_dir = out_dir
        self.intervals: list[tuple[float, float]] = []
        self.curve_intervals: list[tuple[float, float]] = []
        self.failed: list[str] = []
        self.count = 0
        self.attempted = 0
        self._first_digests = None

    def run(self):
        """One pass; returns its (start, end) and each curve's (start, end)."""
        start = time.perf_counter()
        result = self.workload.run_pass(self.out_dir)
        end = time.perf_counter()
        # Outside the timed region: every pass must write the same bytes.
        digests = _digests(self.workload.curves, self.out_dir)
        if self._first_digests is None:
            self._first_digests = digests
        for label, digest in digests.items():
            if label in result.failed:
                self.failed.append(f"{label}: {result.failed[label]}")
            elif digest != self._first_digests[label]:
                self.failed.append(f"{label}: output differs from the first pass")
        self.count += 1
        self.attempted += len(result.curves)
        return (start, end), result.curves

    def run_for(self, seconds: float) -> None:
        start = time.perf_counter()
        while True:
            interval, curves = self.run()
            self.intervals.append(interval)
            self.curve_intervals.extend(curves)
            if time.perf_counter() - start >= seconds:
                return


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, by statistics.quantiles' inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _durations(intervals, scale=None) -> list[float]:
    return [scale(a, b) if scale else b - a for a, b in intervals]


def end_to_end(wall_s, curve_s, report, setup: list[float], peak_rss_mb: float) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(wall_s), "s"),
        "curve_s_p50": (statistics.median(curve_s), "s"),
        "curve_s_p90": (_quantile(curve_s, 90), "s"),
        "ok_row_frac": (report.ok_rows / report.rows if report.rows else 0.0, "frac"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def run(args) -> dict:
    benchenv.pin_threads()
    benchenv.import_package()
    import rowcheck
    import speedprobe
    import tracer
    import workloads

    setup, raw_setup = ([], []) if args.trace else measure_setup(args.workload, args.seed)
    workload = workloads.build(args.workload, args.seed)
    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="out-", dir=WORK_DIR))
    details = {}
    try:
        workload.warmup(tmp / "warmup")
        out_dir = tmp / "out"
        passes = Passes(workload, out_dir)
        with speedprobe.SpeedProbe() as probe:
            passes.run_for(args.seconds)
            if args.trace:
                with tracer.Tracer() as tr:
                    traced, _ = passes.run()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            trace_path = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tr.write(trace_path)
            details["trace_file"] = str(trace_path.relative_to(benchenv.ROOT))
        check_start = time.perf_counter()
        report = rowcheck.check_outputs(workload.curves, out_dir, args.seed)
        details["check_s"] = time.perf_counter() - check_start
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    problems = [f"{label}: {why}" for label, why in report.problems.items()]
    # A contract breach in the checked output is in every pass's identical output.
    failed = len(passes.failed) + len(report.problems) * passes.count
    wall_s = _durations(passes.intervals, probe.scaled)
    if args.trace:
        metrics = tracer.layer_metrics(tr)
        metrics["secrecy.declined_rows"] = (report.declined_rows, "count")
        metrics["secrecy.ref_gap_max"] = (report.ref_gap_max, "abs")
        metrics["trace.overhead_frac"] = (
            probe.scaled(*traced) / statistics.median(wall_s) - 1.0, "frac")
    else:
        metrics = end_to_end(wall_s, _durations(passes.curve_intervals, probe.scaled),
                             report, setup, peak_rss_mb)
    raw_curve_s = _durations(passes.curve_intervals)
    first, last = passes.intervals[0][0], passes.intervals[-1][1]
    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "facts": benchenv.machine_facts(),
        "passes": len(passes.intervals),
        "pass_wall_s": wall_s,
        "raw_pass_wall_s": _durations(passes.intervals),
        "raw_curve_s_p50": statistics.median(raw_curve_s),
        "raw_curve_s_p90": _quantile(raw_curve_s, 90),
        "probe_samples": len(probe.factors),
        "speed_factor": probe.scaled(first, last) / (last - first),
        "curves_per_pass": len(workload.curves),
        "curve_samples": len(passes.curve_intervals),
        "setup_samples_s": setup,
        "raw_setup_samples_s": raw_setup,
        "rows_checked": report.rows,
        "failed_rows": report.failed_rows,
        "failed_row_frac": report.failed_rows / report.rows if report.rows else None,
        "declined_rows": report.declined_rows,
        "mc_points_checked": report.mc_points_checked,
        "failed_row_examples": report.examples,
        "failed_operations": passes.failed[:10],
        "problems": problems[:10],
    })
    print(json.dumps({"details": details}))
    return {
        "correct": not problems and not passes.failed and report.rows > 0,
        "attempted": passes.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (benchenv.PackageMissing, ImportError) as exc:
        print(f"perfbench: cannot import the package to measure: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
