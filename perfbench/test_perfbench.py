"""Tests of the benchmark itself: its output check, its workloads and its result line.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import benchenv

benchenv.import_package()

import rowcheck  # noqa: E402
import run  # noqa: E402
import speedprobe  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ris_secrecy import sweeps  # noqa: E402
from ris_secrecy.channel import SystemParams  # noqa: E402
from ris_secrecy.montecarlo import McConfig  # noqa: E402
from ris_secrecy.sweeps import SweepSpec  # noqa: E402

BENCHMARK = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _spec(kappa2=0.01, outputs=("sop", "sop_asymptotic", "asc")):
    base = SystemParams(n_elements=5, kappa_d_t2=kappa2, kappa_d_r2=kappa2,
                        kappa_e_t2=kappa2, kappa_e_r2=kappa2,
                        snr_d_db=10.0, snr_e_db=-10.0, c_th=1.0)
    return SweepSpec(axis="snr_d_db", values=(0.0, 10.0), base=base, outputs=outputs,
                     mc=McConfig(trials=2000, seed=7, stream_count=2))


def _check(spec, rows, mc_index=0):
    report = rowcheck.CheckReport()
    rowcheck.check_curve(report, "t", spec, rows, mc_index)
    return report


def _plant(rows, metric, **changes):
    i = next(i for i, r in enumerate(rows) if r.metric == metric)
    return rows[:i] + [dataclasses.replace(rows[i], **changes)] + rows[i + 1:]


def test_check_accepts_genuine_rows():
    spec = _spec()
    report = _check(spec, sweeps.run_sweep(spec))
    assert (report.rows, report.failed_rows, report.problems) == (6, 0, {})


def test_check_rejects_planted_wrong_analytic_value():
    spec = _spec()
    rows = sweeps.run_sweep(spec)
    rows = _plant(rows, "sop", value=rows[0].value + 1e-5)
    report = _check(spec, rows)
    assert report.failed_rows == 1
    assert report.ref_gap_max > rowcheck.TOLERANCE
    assert not report.problems


def test_check_rejects_planted_stray_exception_row():
    spec = _spec()
    rows = _plant(sweeps.run_sweep(spec), "sop_asymptotic",
                  value=None, error="math range error")
    report = _check(spec, rows)
    assert (report.failed_rows, report.declined_rows) == (1, 0)


def test_check_accepts_genuine_theta4_decline():
    spec = _spec(kappa2=0.0)
    rows = sweeps.run_sweep(spec)
    assert [r.value for r in rows if r.metric == "sop_asymptotic"] == [None, None]
    report = _check(spec, rows)
    assert (report.failed_rows, report.declined_rows) == (0, 2)


def test_check_flags_monte_carlo_that_breaks_reproducibility():
    spec = _spec(outputs=("sop", "mc_sop", "mc_asc"))
    rows = sweeps.run_sweep(spec)
    assert _check(spec, rows).problems == {}
    rows = _plant(rows, "mc_sop", value=rows[1].value + 1e-3)
    report = _check(spec, rows)
    assert report.failed_rows == 1 and report.problems


def test_check_flags_incomplete_table():
    spec = _spec()
    report = _check(spec, sweeps.run_sweep(spec)[:-1])
    assert report.problems and report.rows == 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_inputs_depend_only_on_the_seed(name):
    assert workloads.build(name, 3).curves == workloads.build(name, 3).curves


def test_scan_covers_the_box_with_enough_curves():
    curves = workloads.build("scan", 1).curves
    assert len(curves) >= 100
    assert workloads.build("scan", 2).curves != curves
    for c in curves:
        p = c.spec.base
        assert 1 <= p.n_elements <= 64 and -20 <= p.snr_d_db <= 60 and -20 <= p.snr_e_db <= 10
        assert p.kappa_d_t2 in workloads.KAPPA2_LEVELS and p.c_th in workloads.C_TH_LEVELS
        assert c.spec.outputs == ("sop", "sop_asymptotic", "asc") and len(c.spec.values) >= 2
    assert {c.spec.axis for c in curves} == set(sweeps.AXES)


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so that a whole run takes seconds."""
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(workloads, "SCAN_CURVES", 5)
    monkeypatch.setattr(workloads, "LARGE_N_ELEMENTS", (8, 16))
    monkeypatch.setattr(workloads.sweeps, "PRESET_NAMES", ("fig2",))
    monkeypatch.setattr(workloads, "WARMUP_PRESETS", (("fig2", workloads.WARMUP_TRIALS),))


def _result(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


@pytest.mark.parametrize("name,trace", [("figures", 0), ("scan", 0), ("large_n", 0),
                                        ("scan", 1), ("large_n", 1)])
def test_tiny_run_prints_every_named_metric_with_its_unit(tiny, capsys, name, trace):
    details, result = _result(capsys, "--workload", name, "--seed", "5",
                              "--seconds", "0.01", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert details["facts"]["nproc"] >= 1 and details["seed"] == 5


def test_trace_restores_bindings_and_nests_spans():
    originals = {(owner, attr): getattr(owner, attr) for owner, attr, _, _ in tracer.TARGETS}
    spec = _spec(outputs=("sop", "asc", "mc_sop"))
    with tracer.Tracer() as tr:
        sweeps.run_sweep(spec)
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in originals.items())
    assert tr.calls["secrecy.sop"] == 2 and tr.calls["montecarlo.simulate_metrics"] == 2
    ids = {s[0]: s for s in tr.spans}
    for span_id, parent, name, start, end in tr.spans:
        if parent in ids:
            assert ids[parent][3] <= start <= end <= ids[parent][4]
    for name, total in tr.total_ns.items():
        assert 0 <= tr.self_ns[name] <= total
    metrics = tracer.layer_metrics(tr)
    assert metrics["montecarlo.useful_draw_ratio"][0] == 0.5


def test_speed_probe_scales_each_instant_by_the_next_probe():
    probe = speedprobe.SpeedProbe()
    probe.times, probe.factors = [1.0, 2.0, 3.0], [1.0, 0.5, 0.25]
    assert probe.scaled(0.5, 2.5) == pytest.approx(0.5 * 1.0 + 1.0 * 0.5 + 0.5 * 0.25)
    assert probe.scaled(3.5, 4.0) == pytest.approx(0.5 * 0.25)
    assert speedprobe.SpeedProbe().scaled(1.0, 3.0) == 2.0


def test_speed_probe_samples_while_installed_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speedprobe.SpeedProbe() as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(probe.factors) >= 5 and all(f > 0 for f in probe.factors)
    assert signal.getsignal(signal.SIGALRM) is before


def test_exits_without_result_when_no_package(tmp_path):
    shutil.copytree(benchenv.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(benchenv.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""
