"""Tests of the benchmark's own checks and tracer.

Each check must pass on a real CLI output and fail on a doctored one.
Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import physics
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **run._PINNED)
MASS = 1.0
POINTS = 401


def cli(*args):
    proc = subprocess.run(
        [sys.executable, "-c", run.CLI, *args], env=ENV, capture_output=True, text=True, cwd=ROOT
    )
    return proc.returncode, proc.stdout


@pytest.fixture(scope="module")
def sweep_csv():
    code, text = cli("sweep", "--points", str(POINTS))
    assert code == 0
    return text


def sweep_fails(text, pairs=physics.PAIRS):
    header, cols = checks.parse_csv(text)
    return checks.check_sweep(header, cols, MASS, physics.DEFAULT_OMEGAS, POINTS, pairs)


def doctor_cell(text, row, column, value):
    lines = text.split("\n")
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


def test_critical_x_matches_the_defining_conditions():
    x0, x1, x2 = physics.critical_x()
    assert x0 == pytest.approx(math.log(math.sqrt(3.0)), abs=1e-15)
    assert x1 == pytest.approx(math.log(2.0 + math.sqrt(3.0)), abs=1e-12)
    assert x2 == pytest.approx(-math.log(math.sqrt(3.0) - 1.0), abs=1e-15)


def test_sweep_csv_passes(sweep_csv):
    assert sweep_fails(sweep_csv) == []


def test_sweep_bell_above_two_on_abbar_fails(sweep_csv):
    fails = sweep_fails(doctor_cell(sweep_csv, 7, "abbar_bell_max", "2.1"))
    assert any("abbar_bell_max > 2" in f for f in fails)


def test_sweep_dropped_row_fails(sweep_csv):
    lines = sweep_csv.split("\n")
    fails = sweep_fails("\n".join(lines[:10] + lines[11:]))
    assert any("rows" in f for f in fails)


def test_sweep_wrong_regime_fails(sweep_csv):
    fails = sweep_fails(doctor_cell(sweep_csv, POINTS - 1, "bbbar_regime", "one_way_fwd"))
    assert any("bbbar_regime" in f for f in fails)


def test_sweep_residual_above_gate_fails(sweep_csv):
    fails = sweep_fails(doctor_cell(sweep_csv, 3, "r2", "2e-10"))
    assert any("|r2|" in f for f in fails)


def test_json_equals_csv_and_catches_a_changed_value():
    grid = ["--pairs", "abbar,bbbar", "--points", str(POINTS)]
    code, text = cli("sweep", "--format", "json", *grid)
    assert code == 0
    _, csv_text = cli("sweep", *grid)
    header, cols, fails = checks.parse_json(text)
    assert fails == []
    assert checks.check_sweep(header, cols, MASS, physics.DEFAULT_OMEGAS, POINTS, ("abbar", "bbbar")) == []
    assert checks.check_same_values(header, cols, *checks.parse_csv(csv_text)) == []
    records = json.loads(text)
    records[5]["bbbar_s_forward"] += 1e-16
    header, cols, _ = checks.parse_json(json.dumps(records))
    assert checks.check_same_values(header, cols, *checks.parse_csv(csv_text)) != []


def test_verify_passes_and_a_line_at_2e_10_fails():
    code, text = cli("verify", "--points", "2001")
    assert checks.check_verify(code, text, MASS, physics.DEFAULT_OMEGAS) == []
    lines = text.split("\n")
    head, _, tail = lines[4].partition("= ")
    lines[4] = head + "= 2.000e-10 " + tail.split(" ", 1)[1]
    fails = checks.check_verify(code, "\n".join(lines), MASS, physics.DEFAULT_OMEGAS)
    assert any("2.000e-10" in f for f in fails)


def test_verify_sample_agrees_with_closed_values():
    rng = random.Random(1)
    assert checks.check_verify_sample(rng, MASS, physics.DEFAULT_OMEGAS, 2001, 8) == []


def test_critical_passes_and_a_shift_of_2e_6_fails():
    omegas = [0.04, 0.3, 1.0]
    code, text = cli("critical", "--omega", ",".join(map(str, omegas)))
    assert checks.check_critical(code, text, MASS, omegas) == []
    assert "out of range" in text
    closed = text.split("closed = ")[2].split()[0]
    shifted = f"{float(closed) + 2e-6:.8f}"
    fails = checks.check_critical(code, text.replace(closed, shifted, 1), MASS, omegas)
    assert any("closed" in f for f in fails)


def test_critical_omegas_are_seeded_and_echoed_exactly():
    first = workloads.critical_omegas(3)
    assert first == workloads.critical_omegas(3) != workloads.critical_omegas(4)
    assert all(float(f"{w:g}") == w for w in first)
    assert 0 < sum(w < 0.05 for w in first) < 20


def test_trace_accounts_for_the_root_span(tmp_path):
    prefix = tmp_path / "spans"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(prefix), "sweep", "--points", "11"],
        env=ENV, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    summary = tracer.summarize(str(prefix))
    assert summary["absent"] == []
    assert summary["sweep.sweep_records.calls"] == 1
    assert summary["sweep.rows"] == 4 * 11
    assert summary["dilaton.amplitude_arrays.calls"] == 4
    self_total = sum(summary[name + ".self_s"] for name in tracer.SPAN_NAMES)
    assert self_total == pytest.approx(summary["root_s"], rel=1e-9)


def test_missing_function_is_reported_absent():
    code = (
        "import tracer; from dilaton_steering import cli; "
        "print(tracer.install(tracer.Recorder(), tracer.TARGETS + "
        "(('sweep.gone', 'dilaton_steering.sweep', 'gone', None),)))"
    )
    env = dict(ENV, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['sweep.gone']"


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
