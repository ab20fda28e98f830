import ast
import contextlib
import decimal
import importlib.util
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dilaton_steering
from conftest import EXACT_EIGHT_PI, children_of, exact_float, time_limit
from dilaton_steering import cli, kernels
from dilaton_steering.dilaton import X_BIRTH, X_DEATH, X_PEAK
from dilaton_steering.sweep import RESIDUALS, SLICE_ROWS, SweepConfig, columns

CLI = "import sys; from dilaton_steering.cli import main; sys.exit(main())"
# The CLI with two CPUs available, whatever the host has, so that its workers fork.
CLI_ON_TWO_CPUS = (
    "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
    "from dilaton_steering.cli import main; sys.exit(main())"
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(*argv, timeout=10):
    """The CLI in a child process; a run past `timeout` seconds fails the test."""
    env = dict(os.environ, PYTHONPATH=str(Path(dilaton_steering.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", CLI, *argv], capture_output=True, text=True, env=env, timeout=timeout
    )


class TestSweepCommand:
    def test_csv_to_stdout(self, capsys):
        code, out, err = run(capsys, "sweep", "--points", "3", "--omega", "1")
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert len(lines) == 4
        assert lines[0].startswith("omega,dilaton,x,ab_s_forward")

    def test_points_contract(self, capsys):
        code, out, _ = run(capsys, "sweep", "--points", "2", "--omega", "0.5,1")
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 4

    def test_byte_identical_runs(self, capsys):
        args = ("sweep", "--points", "51")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run(capsys, "sweep", "--points", "2", "--omega", "1", "--out", str(target))
        assert code == 0 and out == ""
        content = target.read_text()
        assert content.startswith("omega,")
        assert content.count("\n") == 3

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "sweep", "--points", "2", "--omega", "1", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert len(records) == 2
        assert records[0]["ab_regime"] == "two_way"

    def test_pair_subset(self, capsys):
        code, out, _ = run(capsys, "sweep", "--points", "2", "--omega", "1", "--pairs", "ab")
        assert code == 0
        header = out.split("\n", 1)[0]
        assert "abbar_" not in header and "bbbar_" not in header

    def test_unwritable_output_exits_3(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--points", "2", "--out", str(tmp_path / "missing" / "x.csv")
        )
        assert code == 3
        assert "error" in err.lower()

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--points", "1"),
            ("sweep", "--d-min", "0.9", "--d-max", "0.5"),
            ("sweep", "--d-max", "2.0"),
            ("sweep", "--mass", "-1"),
            ("sweep", "--omega=-0.5"),
        ],
    )
    def test_invalid_config_exits_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err != ""

    @pytest.mark.parametrize("command", ["sweep", "verify", "monogamy"])
    def test_points_past_2_to_the_53_exit_2(self, command):
        result = run_subprocess(command, "--points", str(2**53 + 1))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"error: points must be <= 2**53, got {2**53 + 1}\n"

    @pytest.mark.parametrize("merged", [True, False], ids=["stderr-merged", "stderr-apart"])
    def test_closed_pipe_exits_3(self, merged):
        # `sweep | head -1`: the reader closes after one line, mid-stream.
        env = dict(os.environ, PYTHONPATH=str(Path(dilaton_steering.__file__).parents[1]))
        for _ in range(3):
            with subprocess.Popen(
                [sys.executable, "-c", CLI, "sweep"],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT if merged else subprocess.PIPE,
                env=env,
            ) as proc:
                assert proc.stdout.readline().startswith(b"omega,")
                proc.stdout.close()
                err = b"" if merged else proc.stderr.read()
                assert proc.wait(timeout=60) == 3, err
            if not merged:
                assert b"error" in err and b"Traceback" not in err

    def test_closed_pipe_while_workers_format_exits_3_and_leaves_none(self):
        # `sweep --points 50000 | head -c 100`: the reader leaves while slices are formatted.
        env = dict(os.environ, PYTHONPATH=str(Path(dilaton_steering.__file__).parents[1]))
        with subprocess.Popen(
            [sys.executable, "-c", CLI, "sweep", "--points", "50000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            start_new_session=True,
        ) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 3, err
        assert b"error" in err and b"Traceback" not in err
        # The workers would be in the CLI's process group, which is empty once it exits.
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)

    def test_a_killed_worker_exits_3_and_leaves_none(self, tmp_path):
        # The OOM killer's SIGKILL to a formatting child: the output is incomplete.
        out = tmp_path / "F"
        env = dict(os.environ, PYTHONPATH=str(Path(dilaton_steering.__file__).parents[1]))
        with subprocess.Popen(
            [sys.executable, "-c", CLI_ON_TWO_CPUS, "sweep", "--points", "400000", "--out", str(out)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            start_new_session=True,
        ) as proc:
            try:
                with time_limit(30):
                    while not (out.exists() and out.stat().st_size):
                        time.sleep(0.01)
                    # The newest child is the likeliest to be formatting still; one that has
                    # ended ignores the kill, so the next round kills another.
                    while proc.poll() is None:
                        with contextlib.suppress(ProcessLookupError):
                            for child in children_of(proc.pid)[-1:]:
                                os.kill(child, signal.SIGKILL)
                        time.sleep(0.2)
                    err = proc.stderr.read()
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
        assert proc.returncode == 3
        assert err == b"error: a sweep worker ended with status -9; the output is incomplete\n"
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)

    def test_malformed_flag_value_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--omega", "abc"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--pairs", "xyz"), "argument --pairs: unknown pair 'xyz', expected a subset of ab,abbar,bbbar"),
            (("--pairs", ","), "argument --pairs: expected at least one pair"),
            (("--omega", ","), "argument --omega: expected at least one value"),
        ],
    )
    def test_unknown_or_empty_list_exits_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", *argv])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.endswith(f"dilaton-steering sweep: error: {message}\n")

    def test_empty_pair_names_are_skipped(self, capsys):
        assert run(capsys, "sweep", "--pairs", "ab,", "--points", "2") == run(
            capsys, "sweep", "--pairs", "ab", "--points", "2"
        )

    def test_overflowing_thermal_argument_is_silent(self):
        # 8 pi (M - D) omega overflows to x = inf, the right limit; numpy must not warn.
        env = dict(os.environ, PYTHONPATH=str(Path(dilaton_steering.__file__).parents[1]))
        argv = ["sweep", "--mass", "1e300", "--omega", "1e10", "--points", "2"]
        result = subprocess.run(
            [sys.executable, "-c", CLI, *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert result.returncode == 0
        assert result.stderr == ""
        first_row = result.stdout.split("\n")[1]
        assert first_row.split(",")[2] == "inf"  # D = 0

    def test_interior_concurrence_survives_a_subnormal_e_to_the_minus_x(self, capsys):
        # At D = 0, omega = 30 the thermal argument is 754: e^{-x} is
        # subnormal, but s = 1.88e-164 is a normal float.
        code, out, _ = run(capsys, "sweep", "--omega", "30", "--points", "2", "--pairs", "abbar")
        assert code == 0
        row = dict(zip(*(line.split(",") for line in out.splitlines()[:2])))
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            u = decimal.Decimal(-float(row["x"])).exp()
            reference = float((u / (1 + u)).sqrt())
        assert float(row["dilaton"]) == 0.0
        assert abs(float(row["abbar_concurrence"]) - reference) <= 4.0 * math.ulp(reference)
        assert 1.88e-164 < reference < 1.89e-164


    def test_subnormal_mass_grid_ends_one_float_below_the_mass(self, capsys):
        # mass*(1 - 1e-6) rounds to 1e-320 itself; the default grid ends at the float below.
        code, out, err = run(capsys, "sweep", "--mass", "1e-320", "--omega", "1", "--points", "2")
        limit = (
            "0.35566243270259357,0.21132486540518708,2,1.7320508075688772,0.70710678118654757,"
            "0.14433756729740649,two_way,0.35566243270259357,0.21132486540518708,2,1.7320508075688772,"
            "0.70710678118654757,0.14433756729740649,two_way,0,0,1.4142135623730954,1.0000000000000002,"
            "0.50000000000000011,0,no_way,0,0,0,-5.5511151231257827e-16,true,true"
        )
        assert (code, err) == (0, "")
        assert out == (
            ",".join(columns()) + "\n"
            f"1,0,2.513262533829837e-319,{limit}\n"
            f"1,9.9949480153684176e-321,1.2351641146031164e-322,{limit}\n"
        )
        assert float("9.9949480153684176e-321") == math.nextafter(1e-320, 0.0)

    @pytest.mark.parametrize("command", ["sweep", "verify", "monogamy"])
    def test_smallest_mass_exits_2_naming_the_mass(self, capsys, command):
        # No float lies strictly between 0 and 5e-324, so no grid fits; d_max was never set.
        code, out, err = run(capsys, command, "--mass", "5e-324", "--omega", "1", "--points", "2")
        assert (code, out) == (2, "")
        assert err == "error: no grid of two points fits in [0, mass) for mass=5e-324\n"


class TestVerifyCommand:
    def test_passes_on_small_grid(self, capsys):
        code, out, _ = run(capsys, "verify", "--points", "41")
        assert code == 0
        assert "PASS" in out
        assert out.count("max|closed-pipeline|") == 18

    def test_defaults_pass(self, capsys):
        # Each peak's value and location pins the density route's bits on the default grid.
        code, out, err = run(capsys, "verify")
        assert (code, err) == (0, "")
        assert out == (
            "ab     bell_branch1  max|closed-pipeline| = 8.882e-16 (omega=0.5, D=0)\n"
            "ab     bell_branch2  max|closed-pipeline| = 1.332e-15 (omega=0.5, D=0.032999966999999998)\n"
            "ab     bell_max      max|closed-pipeline| = 8.882e-16 (omega=0.5, D=0)\n"
            "ab     concurrence   max|closed-pipeline| = 3.331e-16 (omega=0.5, D=0.77849922149999995)\n"
            "ab     s_backward    max|closed-pipeline| = 6.661e-16 (omega=0.5, D=0.090499909499999989)\n"
            "ab     s_forward     max|closed-pipeline| = 6.661e-16 (omega=0.5, D=0.0014999985)\n"
            "abbar  bell_branch1  max|closed-pipeline| = 4.441e-16 (omega=0.5, D=0.84649915349999993)\n"
            "abbar  bell_branch2  max|closed-pipeline| = 6.661e-16 (omega=0.5, D=0.99599900399999985)\n"
            "abbar  bell_max      max|closed-pipeline| = 4.441e-16 (omega=0.5, D=0.84649915349999993)\n"
            "abbar  concurrence   max|closed-pipeline| = 1.665e-16 (omega=0.5, D=0.88599911399999987)\n"
            "abbar  s_backward    max|closed-pipeline| = 1.943e-16 (omega=1, D=0.98549901449999988)\n"
            "abbar  s_forward     max|closed-pipeline| = 2.776e-16 (omega=1, D=0.99199900799999985)\n"
            "bbbar  bell_branch1  max|closed-pipeline| = 6.661e-16 (omega=0.5, D=0.88849911149999994)\n"
            "bbbar  bell_branch2  max|closed-pipeline| = 3.331e-16 (omega=0.5, D=0.87399912599999996)\n"
            "bbbar  bell_max      max|closed-pipeline| = 6.661e-16 (omega=0.5, D=0.88849911149999994)\n"
            "bbbar  concurrence   max|closed-pipeline| = 2.220e-16 (omega=0.5, D=0.88849911149999994)\n"
            "bbbar  s_backward    max|closed-pipeline| = 0.000e+00 (omega=0.5, D=0)\n"
            "bbbar  s_forward     max|closed-pipeline| = 1.700e-16 (omega=0.5, D=0.96449903549999993)\n"
            "PASS: all deviations within 1e-10\n"
        )

    def test_perturbed_closed_form_exits_1(self, capsys, perturbed_s_forward):
        code, out, err = run(capsys, "verify", "--points", "11", "--omega", "1")
        assert code == 1
        assert "PASS" not in out
        assert err == (
            "FAIL: ab s_forward deviates 1.000e-08 at omega=1, D=0.69999929999999999 (gate 1e-10)\n"
        )

    def test_nan_in_last_slice_exits_1(self, capsys, nan_s_forward_at):
        points = SLICE_ROWS + 1
        nan_s_forward_at(1.0, 1.0, SweepConfig().resolved_d_max)
        code, out, err = run(capsys, "verify", "--points", str(points), "--omega", "0.5,1")
        assert code == 1
        assert "PASS" not in out
        # Every pair's s_forward is NaN there; the first key folded, ab's, is the worst.
        assert err == (
            "FAIL: ab s_forward deviates nan at omega=1, D=0.99999899999999997 (gate 1e-10)\n"
        )

    @pytest.mark.parametrize("worker", [0, 1], ids=["read-first", "read-second"])
    @pytest.mark.parametrize("command", ["verify", "monogamy"])
    def test_a_killed_gate_worker_exits_3_and_leaves_none(self, command, worker):
        # The OOM killer's SIGKILL to one worker: the report is incomplete, and that is seen at the
        # worker's next turn, within one slice, whichever worker it is.
        env = dict(os.environ, PYTHONPATH=str(Path(dilaton_steering.__file__).parents[1]))
        argv = [command, "--points", "400000000", "--omega", "1"]
        with subprocess.Popen(
            [sys.executable, "-c", CLI_ON_TWO_CPUS, *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            start_new_session=True,
        ) as proc:
            try:
                with time_limit(30):
                    while len(children_of(proc.pid)) < 2:
                        time.sleep(0.01)
                    os.kill(children_of(proc.pid)[worker], signal.SIGKILL)
                    killed = time.monotonic()
                    out, err = proc.communicate()
                    assert time.monotonic() - killed < 5
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
        assert (proc.returncode, out) == (3, b"")
        assert err == b"error: a sweep worker ended with status -9; the output is incomplete\n"
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)


class TestCriticalCommand:
    def test_default_point_report(self, capsys):
        code, out, _ = run(capsys, "critical", "--omega", "1")
        assert code == 0
        assert "0.97814380" in out
        assert "0.94759991" in out
        assert "0.98758968" in out
        assert "|delta|" in out

    def test_peak_lands_on_the_closed_value(self, capsys):
        # 8 pi M omega = 1.46 lies between d1's root x1 = 1.317 and the search top 5. The
        # root is one x for every frequency, and the closed d1 maps the same x here.
        code, out, err = run(capsys, "critical", "--omega", "0.058")
        assert (code, err) == (0, "")
        assert out == (
            "omega = 0.058:\n"
            "  d0  closed = 0.62316902  numeric = 0.62316902  |delta| = 1.11e-16\n"
            "  d1  closed = 0.09655018  numeric = 0.09655018  |delta| = 0.00e+00\n"
            "  d2  closed = 0.78602897  numeric = 0.78602897  |delta| = 2.22e-16\n"
        )

    def test_peak_on_the_range_edge_passes(self, capsys):
        # 8 pi M omega is X_PEAK to the bit, so d1 maps to D = 0.0 on both sides, and
        # both count it in range by one rule, 0 <= D < M.
        code, out, err = run(capsys, "critical", "--omega", "0.05240008978487284")
        assert (code, err) == (0, "")
        assert out == (
            "omega = 0.0524001:\n"
            "  d0  closed = 0.58289772  numeric = 0.58289772  |delta| = 2.22e-16\n"
            "  d1  closed = 0.00000000  numeric = 0.00000000  |delta| = 0.00e+00\n"
            "  d2  closed = 0.76316224  numeric = 0.76316224  |delta| = 2.22e-16\n"
        )

    @pytest.mark.parametrize("command", ["critical", "classify"])
    def test_frequencies_print_sorted_and_errors_name_them_as_given(self, capsys, command):
        code, out, _ = run(capsys, command, "--omega", "1,0.5,1")
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("omega")] == [
            "omega = 0.5:",
            "omega = 1:",
            "omega = 1:",
        ]
        code, out, err = run(capsys, command, "--omega", "2,0.5,inf")
        assert (code, out) == (2, "")
        assert err == "error: omegas must all be positive and finite, got [2.0, 0.5, inf]\n"

    def test_numeric_beyond_the_gate_exits_1(self, capsys, monkeypatch):
        batch = cli.find_critical_batch

        def shifted(mass, omegas):
            numeric = batch(mass, omegas)
            numeric["d1"] = numeric["d1"] + 2e-6
            return numeric

        monkeypatch.setattr(cli, "find_critical_batch", shifted)
        code, out, err = run(capsys, "critical")
        assert code == 1
        assert [line.split()[0] for line in out.splitlines() if "MISMATCH" in line] == ["d1"] * 4
        assert err == "FAIL: numeric and closed-form critical points differ beyond 1e-06\n"

    def test_out_of_range_is_reported_not_failed(self, capsys):
        code, out, _ = run(capsys, "critical", "--omega", "0.01")
        assert code == 0
        assert out.count("out of range") == 3

    def test_mass_scaling(self, capsys):
        code, out, _ = run(capsys, "critical", "--mass", "2", "--omega", "1")
        assert code == 0
        assert "1.97814380" in out

    def test_large_mass_prints_eight_decimals(self, capsys):
        # From 1e8 up to where the gate stops applying (about 2.1e9), the
        # printed values must still show the 1e-6 agreement.
        code, out, _ = run(capsys, "critical", "--mass", "1e9", "--omega", "1e-9")
        assert code == 0
        lines = [line for line in out.splitlines() if "numeric" in line]
        assert len(lines) == 3
        for line in lines:
            assert re.search(r"closed = \d{9}\.\d{8}  numeric = \d{9}\.\d{8}  ", line), line

    def test_extreme_omega_prints_short_lines(self, capsys):
        code, out, _ = run(capsys, "critical", "--omega", "1e-300")
        assert code == 0
        assert out.count("out of range") == 3
        assert max(len(line) for line in out.splitlines()) < 100

    def test_tiny_dilatons_keep_their_digits(self, capsys):
        # .8f would print all three as 0.00000000 and lose d1 < d0 < d2.
        code, out, err = run(capsys, "critical", "--mass", "1e-12", "--omega", "1e12")
        assert (code, err) == (0, "")
        assert out == (
            "omega = 1e+12:\n"
            "  d0  closed = 9.781438e-13  numeric = 9.781438e-13  |delta| = 0.00e+00\n"
            "  d1  closed = 9.4759991e-13  numeric = 9.4759991e-13  |delta| = 0.00e+00\n"
            "  d2  closed = 9.8758968e-13  numeric = 9.8758968e-13  |delta| = 0.00e+00\n"
        )

    @pytest.mark.parametrize("mass,omega", [("1e7", "1e-7"), ("1e5", "1e-5")])
    def test_large_mass_returns_and_passes(self, mass, omega):
        # M omega = 1 is the physics of `critical --omega 1`, at masses where
        # adjacent floats near D exceed any fixed width in D: the search
        # must stop on float resolution in x and still meet the 1e-6 gate.
        result = run_subprocess("critical", "--mass", mass, "--omega", omega)
        assert result.returncode == 0, result.stderr
        assert "MISMATCH" not in result.stdout
        assert result.stdout.count("numeric = ") == 3

    def test_unresolvable_mass_exits_2_naming_the_resolution(self):
        # Adjacent floats near 1e20 are 16384 apart, far above the 1e-6 gate.
        result = run_subprocess("critical", "--mass", "1e20", "--omega", "1e-20")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "dilaton resolution 6.7e+04" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("critical", "--omega", "inf"),
            ("critical", "--mass", "inf"),
            ("classify", "--omega", "inf"),
        ],
    )
    def test_non_finite_parameters_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "finite" in err


class TestMonogamyCommand:
    def test_default_gate(self, capsys):
        code, out, _ = run(capsys, "monogamy", "--points", "101")
        assert code == 0
        assert "PASS" in out

    def test_restricted_grid_reports_na(self, capsys):
        code, out, err = run(capsys, "monogamy", "--d-max", "0.9", "--omega", "1", "--points", "51")
        assert (code, err) == (0, "")
        assert out == (
            "max |r1| = 2.220e-16\n"
            "max |r2| = 2.220e-16\n"
            "max |r3| = n/a (no grid point above the steering birth dilaton)\n"
            "max |r4| = n/a (no grid point above the steering birth dilaton)\n"
            "PASS: residuals within 1e-10\n"
        )

    def test_nan_residual_exits_1(self, capsys, nan_r1_after_first_omega):
        nan_r1_after_first_omega(SweepConfig(points=21, omegas=(0.5, 1.0)))
        code, out, err = run(capsys, "monogamy", "--points", "21", "--omega", "0.5,1")
        assert code == 1
        assert "max |r1| = nan" in out
        assert "FAIL: |r1| = nan at omega=1" in err


class TestClassifyCommand:
    def test_boundaries_for_unit_parameters(self, capsys):
        code, out, _ = run(capsys, "classify", "--omega", "1")
        assert code == 0
        assert "0.97814380" in out
        assert "0.98758968" in out
        assert "two_way" in out and "one_way_fwd" in out and "no_way" in out

    def test_exterior_pair_is_single_interval(self, capsys):
        _, out, _ = run(capsys, "classify", "--omega", "1")
        ab_line = [line for line in out.split("\n") if line.strip().startswith("ab ")][0]
        assert "two_way" in ab_line and "one_way" not in ab_line

    @pytest.mark.parametrize(
        "argv, abbar, bbbar",
        [
            (("--omega", "0.01"), "two_way", "no_way"),
            # Every change of label rounds to M, and x at D = 0 lies past the
            # threshold crossing: every steerability of abbar and bbbar is
            # below 1e-12 on the whole range, as `sweep` labels it.
            (("--mass", "1", "--omega", "1e17"), "no_way", "no_way"),
            (("--mass", "1e10", "--omega", "1e10"), "no_way", "no_way"),
        ],
        ids=["omega-0.01", "omega-1e17", "mass-1e10-omega-1e10"],
    )
    def test_small_omega_collapses_intervals(self, capsys, argv, abbar, bbbar):
        code, out, _ = run(capsys, "classify", *argv)
        assert code == 0
        for name, regime in (("abbar", abbar), ("bbbar", bbbar)):
            line = [line for line in out.split("\n") if name in line][0]
            # One run, [0, M), in one regime.
            assert line.split()[:3] == [name, regime, "[0,"] and len(line.split()) == 4

    def test_tiny_boundaries_keep_their_digits(self, capsys):
        code, out, err = run(capsys, "classify", "--mass", "1e-300", "--omega", "1e300")
        assert (code, err) == (0, "")
        assert out == (
            "omega = 1e+300:\n"
            "  ab      two_way      [0, 1e-300)\n"
            "  abbar   one_way_fwd  [0, 9.781438e-301)   two_way      [9.781438e-301, 1e-300)\n"
            "  bbbar   one_way_fwd  [0, 9.8758968e-301)   no_way       [9.8758968e-301, 1e-300)\n"
        )

    def test_default_runs(self, capsys):
        # At omega 1.5 and 2, x at D = 0 lies past the threshold crossing near
        # x = 26.77, so abbar and bbbar start with a run in which no steering
        # is witnessed; their other boundaries print as `critical` prints d0 and d2.
        code, out, err = run(capsys, "classify")
        assert (code, err) == (0, "")
        assert out == (
            "omega = 0.5:\n"
            "  ab      two_way      [0, 1)\n"
            "  abbar   one_way_fwd  [0, 0.95628761)   two_way      [0.95628761, 1)\n"
            "  bbbar   one_way_fwd  [0, 0.97517936)   no_way       [0.97517936, 1)\n"
            "omega = 1:\n"
            "  ab      two_way      [0, 1)\n"
            "  abbar   one_way_fwd  [0, 0.97814380)   two_way      [0.97814380, 1)\n"
            "  bbbar   one_way_fwd  [0, 0.98758968)   no_way       [0.98758968, 1)\n"
            "omega = 1.5:\n"
            "  ab      two_way      [0, 1)\n"
            "  abbar   no_way       [0, 0.28990875)   one_way_fwd  [0.28990875, 0.98542920)"
            "   two_way      [0.98542920, 1)\n"
            "  bbbar   no_way       [0, 0.28990875)   one_way_fwd  [0.28990875, 0.99172645)"
            "   no_way       [0.99172645, 1)\n"
            "omega = 2:\n"
            "  ab      two_way      [0, 1)\n"
            "  abbar   no_way       [0, 0.46743156)   one_way_fwd  [0.46743156, 0.98907190)"
            "   two_way      [0.98907190, 1)\n"
            "  bbbar   no_way       [0, 0.46743156)   one_way_fwd  [0.46743156, 0.99379484)"
            "   no_way       [0.99379484, 1)\n"
        )
        _, critical, _ = run(capsys, "critical")
        for boundary in ("0.95628761", "0.97814380", "0.98542920", "0.98907190"):
            assert f"d0  closed = {boundary}" in critical
        for boundary in ("0.97517936", "0.98758968", "0.99172645", "0.99379484"):
            assert f"d2  closed = {boundary}" in critical

    def test_infinite_thermal_argument(self, capsys):
        # 8 pi M omega overflows to inf at D = 0, where c = 1 and s = 0.
        code, out, err = run(capsys, "classify", "--mass", "1e300", "--omega", "1e300")
        assert (code, err) == (0, "")
        assert out == (
            "omega = 1e+300:\n"
            "  ab      two_way      [0, 1e+300)\n"
            "  abbar   no_way       [0, 1e+300)\n"
            "  bbbar   no_way       [0, 1e+300)\n"
        )


def exact_x(mass, omega, dilaton) -> float:
    return exact_float(EXACT_EIGHT_PI * (Fraction(mass) - Fraction(dilaton)) * Fraction(omega))


def exact_dilaton(mass, omega, x) -> float:
    return exact_float(Fraction(mass) - Fraction(x) / (EXACT_EIGHT_PI * Fraction(omega)))


def row_at(capsys, x) -> dict:
    """The `sweep` row at D = 0 of a mass and omega near 1/(8 pi) x and 1 whose thermal argument is x.

    Every column but omega, the dilaton and the validity flags depends on x
    alone, and 8 pi (M - D) omega comes to x with no overflow here.
    """
    for omega in (1.0, 0.75, 1.5, 0.625, 1.25):
        near = x / (8.0 * math.pi * omega)
        for mass in (near + k * math.ulp(near) for k in range(-4, 5)):
            if 8.0 * math.pi * mass * omega == x:
                code, out, err = run(capsys, "sweep", "--mass", repr(mass), "--omega", repr(omega), "--points", "2")
                assert (code, err) == (0, "")
                row = dict(zip(columns(), out.splitlines()[1].split(",")))
                assert float(row["x"]) == x
                return row
    raise AssertionError(f"no mass near 1/(8 pi) x gives x = {x!r}")


class TestThermalArgumentWithoutSpuriousOverflow:
    """Inputs at which 8 pi (M - D) or 1/(8 pi omega) overflows, while x and D are finite.

    Each expected number comes from exact rationals, or from a `sweep` row at
    an input where nothing overflows and x is the same float.
    """

    def test_sweep_prints_the_true_x(self, capsys):
        mass, omega = 1e308, 1e-308
        code, out, err = run(capsys, "sweep", "--mass", "1e308", "--omega", "1e-308", "--points", "3")
        d0 = exact_dilaton(mass, omega, X_BIRTH)
        lines = [",".join(columns())]
        for dilaton in SweepConfig(mass=mass, omegas=(omega,), points=3).dilaton_grid():
            row = row_at(capsys, exact_x(mass, omega, dilaton))
            row.update(omega=f"{omega:.17g}", dilaton=f"{dilaton:.17g}")
            row["r3_valid"] = row["r4_valid"] = "true" if dilaton > d0 else "false"
            lines.append(",".join(row.values()))
        assert (code, err) == (0, "")
        assert out == "\n".join(lines) + "\n"
        # 8 pi and 4 pi where 8 pi M overflows, and the closed forms there say one_way_fwd.
        rows = [dict(zip(columns(), line.split(","))) for line in out.splitlines()[1:]]
        assert [row["x"] for row in rows] == ["25.132741228718341", "12.566383180729785", "2.5132741228605823e-05"]
        assert [(row["abbar_regime"], row["bbbar_regime"]) for row in rows[:2]] == [("one_way_fwd",) * 2] * 2

    def test_classify_starts_from_the_true_x(self, capsys):
        mass, omega = 1e308, 1e-308
        code, out, err = run(capsys, "classify", "--mass", "1e308", "--omega", "1e-308")
        start = row_at(capsys, exact_x(mass, omega, 0.0))
        d0, d2 = (exact_dilaton(mass, omega, x) for x in (X_BIRTH, X_DEATH))
        assert (code, err) == (0, "")
        assert out == (
            "omega = 1e-308:\n"
            f"  ab      {start['ab_regime']:13s}[0, 1e+308)\n"
            f"  abbar   {start['abbar_regime']:13s}[0, {d0:.8g})   two_way      [{d0:.8g}, 1e+308)\n"
            f"  bbbar   {start['bbbar_regime']:13s}[0, {d2:.8g})   no_way       [{d2:.8g}, 1e+308)\n"
        )
        assert (start["abbar_regime"], start["bbbar_regime"]) == ("one_way_fwd", "one_way_fwd")
        assert (f"{d0:.8g}", f"{d2:.8g}") == ("9.781438e+307", "9.8758968e+307")

    def test_monogamy_passes_at_the_largest_mass_and_smallest_omega(self, capsys):
        mass, omega = sys.float_info.max, 5e-324
        code, out, err = run(capsys, "monogamy", "--mass", repr(mass), "--omega", "5e-324", "--points", "5")
        # d0 lies below the largest negative float, so r3 and r4 apply at every point.
        assert exact_dilaton(mass, omega, X_BIRTH) == -math.inf
        grid = SweepConfig(mass=mass, omegas=(omega,), points=5).dilaton_grid()
        rows = [row_at(capsys, exact_x(mass, omega, dilaton)) for dilaton in grid]
        peak = {name: max(abs(float(row[name])) for row in rows) for name in RESIDUALS}
        assert (code, err) == (0, "")
        assert out == (
            f"max |r1| = {peak['r1']:.3e}\n"
            f"max |r2| = {peak['r2']:.3e}\n"
            f"max |r3| = {peak['r3']:.3e}  (D above birth point only)\n"
            f"max |r4| = {peak['r4']:.3e}  (D above birth point only)\n"
            "PASS: residuals within 1e-10\n"
        )

    def test_critical_keeps_the_finite_closed_dilatons(self, capsys):
        mass, omega = 1e308, 1e-310
        code, out, err = run(capsys, "critical", "--mass", "1e308", "--omega", "1e-310")
        d0, d1, d2 = (exact_dilaton(mass, omega, x) for x in (X_BIRTH, X_PEAK, X_DEATH))
        assert (code, err) == (0, "")
        assert out == (
            "omega = 1e-310:\n"
            f"  d0  closed = {d0:.8g}  out of range [0, 1e+308)\n"
            f"  d1  closed = {d1:.8g}  out of range [0, 1e+308)\n"
            f"  d2  closed = {d2:.8g}  out of range [0, 1e+308)\n"
        )
        # d1 = M - x/(8 pi omega) lies below -1.8e308; d0 and d2 do not.
        assert (f"{d0:.8g}", d1, f"{d2:.8g}") == ("-1.1856197e+308", -math.inf, "-2.4103199e+307")


CLOSED = pytest.mark.parametrize(
    "closed", [">&-", "2>&-", ">&- 2>&-"], ids=["stdout", "stderr", "both"]
)


def run_closed(closed, argv):
    """The CLI in a child process with the streams in `closed` shut at start."""
    env = dict(os.environ, PYTHONPATH=str(Path(dilaton_steering.__file__).parents[1]))
    return subprocess.run(
        ["sh", "-c", f'exec "$@" {closed}', "sh", sys.executable, "-c", CLI, *argv],
        capture_output=True, text=True, env=env, timeout=30,
    )


class TestClosedStreams:
    """A stream closed at start, as by `>&-` or `2>&-`: Python sets a closed
    stdout to None and keeps a stderr whose every write fails."""

    @CLOSED
    @pytest.mark.parametrize(
        "argv, needs_stdout",
        [
            (("sweep", "--omega", "1", "--points", "5"), True),
            (("sweep", "--omega", "1", "--points", "5", "--out", "F"), False),
            (("verify", "--omega", "1", "--points", "21"), True),
            (("monogamy", "--omega", "1", "--points", "21"), True),
            (("critical", "--omega", "1"), True),
            (("classify", "--omega", "1"), True),
        ],
        ids=["sweep", "sweep-out", "verify", "monogamy", "critical", "classify"],
    )
    @pytest.mark.parametrize("bad", [False, True], ids=["passing", "bad-mass"])
    def test_exit_code_is_documented_and_no_traceback(self, tmp_path, closed, argv, needs_stdout, bad):
        argv = [str(tmp_path / "F") if a == "F" else a for a in argv] + ["--mass=-1"] * bad
        result = run_closed(closed, argv)
        stdout_closed = closed != "2>&-"
        # 2 bad arguments, 3 output that stdout could not take, else 0.
        expected = 2 if bad else 3 if stdout_closed and needs_stdout else 0
        assert result.returncode == expected, result.stderr
        assert "Traceback" not in result.stdout + result.stderr
        if bad:
            # A closed stderr loses the error line; stdout never takes it.
            assert result.stdout == ""
        elif not needs_stdout:
            assert (tmp_path / "F").read_text().count("\n") == 6

    @CLOSED
    @pytest.mark.parametrize(
        "argv", [("--version",), ("--help",), ("sweep", "--help")], ids=["version", "help", "sweep-help"]
    )
    def test_help_and_version_need_stdout(self, closed, argv):
        # argparse prints them to stdout, drops a failed write and exits 0.
        result = run_closed(closed, argv)
        if closed == "2>&-":
            assert (result.returncode, result.stderr) == (0, "")
            assert result.stdout.startswith(("dilaton-steering ", "usage: dilaton-steering"))
        else:
            assert result.returncode == 3
            assert result.stdout == ""
            stderr_closed = "2>&-" in closed
            assert result.stderr == ("" if stderr_closed else "error: [Errno 9] stdout is closed\n")

    @pytest.mark.parametrize("stderr", [None, cli._ClosedStream()], ids=["none", "unwritable"])
    def test_gate_failure_keeps_exit_1(self, capsys, monkeypatch, perturbed_s_forward, stderr):
        monkeypatch.setattr(sys, "stderr", stderr)
        code, out, _ = run(capsys, "verify", "--points", "11", "--omega", "1")
        assert code == 1
        assert "FAIL" not in out and "PASS" not in out


class TestInterrupt:
    """Ctrl-C: SIGINT to the CLI's process group, as a terminal sends it, mid-run."""

    # Prints a line once the interpreter runs, since `verify` prints only at the end.
    STARTED = "import sys; from dilaton_steering.cli import main; print('started', flush=True); sys.exit(main())"

    @pytest.mark.parametrize(
        "argv,begun",
        [
            (["sweep", "--points", "400000"], b"omega,"),
            # Its workers fold about 20 s of slices each; the interrupt kills them at once.
            (["verify", "--points", "40000000", "--omega", "1"], b"started"),
        ],
        ids=["sweep", "verify"],
    )
    def test_one_line_and_death_by_sigint(self, argv, begun):
        env = dict(os.environ, PYTHONPATH=str(Path(dilaton_steering.__file__).parents[1]))
        with subprocess.Popen(
            [sys.executable, "-c", self.STARTED, *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            start_new_session=True,
        ) as proc:
            try:
                for line in proc.stdout:
                    if line.startswith(begun):
                        break
                time.sleep(0.2)
                os.killpg(proc.pid, signal.SIGINT)
                sent = time.monotonic()
                _, err = proc.communicate(timeout=60)
                waited = time.monotonic() - sent
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
        # A shell reports death by SIGINT as 130.
        assert (proc.returncode, err) == (-signal.SIGINT, b"error: interrupted\n")
        assert waited < 5
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--mass", "1", "--omega", "1", "--d-min", "0.5", "--d-max", "0.9",
             "--points", "3", "--pairs", "ab", "--format", "json"),
            ("verify", "--mass", "1", "--omega", "1", "--d-min", "0.5", "--d-max", "0.9",
             "--points", "3", "--pairs", "ab"),
            ("monogamy", "--mass", "1", "--omega", "1", "--d-min", "0.5", "--d-max", "0.9",
             "--points", "3"),
            ("critical", "--mass", "1", "--omega", "1"),
            ("classify", "--mass", "1", "--omega", "1"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_honoured_flags_are_accepted(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out != ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("critical", "--points", "7"),
            ("critical", "--format", "json"),
            ("critical", "--pairs", "ab"),
            ("classify", "--d-max", "0.9"),
            ("classify", "--format", "json"),
            ("monogamy", "--pairs", "ab"),
            ("monogamy", "--format", "json"),
            ("verify", "--format", "json"),
            ("sweep", "--format", "xml"),
        ],
        ids=" ".join,
    )
    def test_unhonoured_flag_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "usage:" in err

    @pytest.mark.parametrize("command", ["critical", "classify", "monogamy", "verify"])
    def test_out_is_rejected_and_writes_nothing(self, capsys, tmp_path, command):
        target = tmp_path / "F"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--out", str(target)])
        assert exc.value.code == 2
        assert not target.exists()
        assert "unrecognized arguments: --out" in capsys.readouterr().err


# One small run of every subcommand.
EVERY_COMMAND = pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--omega", "0.5,3", "--points", "5"),
        ("sweep", "--omega", "0.5,3", "--points", "5", "--format", "json"),
        ("verify", "--omega", "0.5,3", "--points", "21"),
        ("monogamy", "--omega", "0.5,3", "--points", "21"),
        ("critical", "--omega", "0.01,0.5,3"),
        ("classify", "--omega", "0.01,0.5,3"),
    ],
    ids=["sweep-csv", "sweep-json", "verify", "monogamy", "critical", "classify"],
)


class TestNoLapackEigenvalues:
    @EVERY_COMMAND
    def test_no_command_calls_eigvalsh(self, capsys, monkeypatch, argv):
        # The CHSH kernel takes its eigenvalues by Jacobi, and no command
        # builds a validated DensityMatrix, whose check would call eigvalsh.
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        code, out, err = run(capsys, *argv)
        assert code == 0 and out != "" and err == ""


# Float edges of the (mass, omega) domain and past it, for every subcommand.
EDGE_VALUES = (
    1e-300, 1e300, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -0.0, 0.0, -1.0, math.inf, -math.inf, math.nan, 0.5, 1.0,
)
GRID_COMMANDS = ("sweep", "verify", "monogamy")


@st.composite
def edge_argv(draw):
    """An argv of edge values; a grid is small, or so large that it must exit 2."""
    command = draw(st.sampled_from(GRID_COMMANDS + ("critical", "classify")))
    mass = draw(st.sampled_from(EDGE_VALUES))
    omegas = draw(st.lists(st.sampled_from(EDGE_VALUES), min_size=1, max_size=2))
    argv = [command, f"--mass={mass!r}", f"--omega={','.join(map(repr, omegas))}"]
    if command in GRID_COMMANDS:
        argv.append(f"--points={draw(st.integers(2, 64) | st.just(2**53 + 1))}")
        for flag in sorted(draw(st.sets(st.sampled_from(("--d-min", "--d-max"))))):
            edge = draw(st.sampled_from((mass, math.nextafter(mass, 0.0))))
            argv.append(f"{flag}={edge!r}")
    return argv


class TestEdgeArguments:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(argv=edge_argv())
    def test_exit_code_is_documented_and_usage_errors_print_nothing(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with time_limit(5.0), redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse
                code = exc.code
                assert code == 2, err.getvalue()
        assert code in (0, 1, 2, 3), err.getvalue()
        if code == 2:
            assert out.getvalue() == ""


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "dilaton-steering" in capsys.readouterr().out


class TestPackageLayout:
    def test_public_names(self):
        assert dilaton_steering.__all__ == [
            "ConfigError",
            "Pair",
            "ResolutionError",
            "SweepConfig",
            "amplitude_arrays",
            "check_mass_and_omegas",
            "closed_measure_arrays",
            "critical_dilatons",
            "find_critical_batch",
            "monogamy_grid",
            "monogamy_residual_arrays",
            "pipeline_measure_arrays",
            "sweep_blocks",
            "verify_grid",
        ]
        for name in dilaton_steering.__all__:
            getattr(dilaton_steering, name)

    def test_validated_scalar_layer_lives_in_the_tests(self):
        assert importlib.util.find_spec("dilaton_steering.density") is None
        assert importlib.util.find_spec("dilaton_steering.measures") is None
        assert not hasattr(kernels, "spinflip_concurrence")

    @pytest.mark.parametrize("oracle", ["chsh_oracle.py", "spinflip_oracle.py"])
    def test_oracles_import_nothing_from_the_package(self, oracle):
        # A reference that borrows the kernel's tables would pass with them when they are wrong.
        tree = ast.parse((Path(__file__).parent / oracle).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
        assert not any(name.split(".")[0] == "dilaton_steering" for name in imported), imported

    def test_regime_labels_are_written_once(self):
        # A second table of regimes, as `classify` once kept, drifts from the
        # rule that labels `sweep` rows; only `dilaton.REGIMES` may spell them.
        label = re.compile(r"\b(no_way|one_way_bwd|one_way_fwd|two_way)\b")
        package = Path(dilaton_steering.__file__).parent
        table, stray = [], []
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            allowed = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and path.name == "dilaton.py":
                    if [getattr(target, "id", None) for target in node.targets] == ["REGIMES"]:
                        allowed.update(ast.walk(node.value))
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and isinstance(node.value, str) and label.search(node.value):
                    (table if node in allowed else stray).append((path.name, node.lineno, node.value))
        assert stray == []
        assert [value for _, _, value in table] == ["no_way", "one_way_bwd", "one_way_fwd", "two_way"]

    def test_every_private_name_is_used(self):
        # A private helper that nothing calls, as a second bisection loop left beside
        # the one that replaced it would be, is dead code the tests still exercise.
        package = Path(dilaton_steering.__file__).parent
        trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))]
        definitions = []
        for tree in trees:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    stores = node.targets if isinstance(node, ast.Assign) else [node.target]
                    leaves = [leaf for store in stores for leaf in ast.walk(store)]
                    names = [leaf.id for leaf in leaves if isinstance(leaf, ast.Name)]
                else:
                    continue
                private = [name for name in names if name.startswith("_") and not name.startswith("__")]
                definitions += [(name, node) for name in private]
        references = {}
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    references.setdefault(node.id, []).append(node)
                elif isinstance(node, ast.Attribute):
                    references.setdefault(node.attr, []).append(node)
        assert definitions
        unused = [
            name
            for name, definition in definitions
            if set(references.get(name, [])) <= set(ast.walk(definition))
        ]
        assert unused == []

    def test_thermal_map_is_written_once(self):
        # x = 8 pi (M - D) omega was once spelled four ways, which read different x
        # past an overflow; only the map and its inverse in `dilaton` may spell pi.
        owners = {"_thermal_argument", "_dilaton_at"}
        package = Path(dilaton_steering.__file__).parent
        spelled, stray = set(), []
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            owner_of = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name in owners and path.name == "dilaton.py":
                    owner_of.update(dict.fromkeys(ast.walk(node), node.name))
            for node in ast.walk(tree):
                if getattr(node, "attr", getattr(node, "id", None)) == "pi":
                    if node in owner_of:
                        spelled.add(owner_of[node])
                    else:
                        stray.append((path.name, node.lineno))
        assert stray == []
        assert spelled == owners

    @pytest.mark.parametrize(
        "argv",
        [
            None,
            ["--version"],
            ["sweep", "--omega", "1", "--points", "5"],
            ["sweep", "--omega", "1", "--points", str(2 * SLICE_ROWS)],
        ],
        ids=["import", "version", "one-slice-sweep", "two-slice-sweep"],
    )
    def test_no_command_imports_multiprocessing(self, argv):
        # It takes about 26 ms to import, and the sweep's forked children need none of it.
        code = (
            "import sys\n"
            "from dilaton_steering.cli import main\n"
            f"if {argv!r} is not None:\n"
            "    try:\n"
            f"        main({argv!r})\n"
            "    except SystemExit:\n"
            "        pass\n"
            "print('multiprocessing' in sys.modules, file=sys.stderr)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(dilaton_steering.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=10
        )
        assert (done.returncode, done.stderr) == (0, "False\n")

    @pytest.mark.parametrize("module", ["", ".dilaton", ".sweep", ".cli"])
    def test_import_leaves_the_gc_as_it_found_it(self, module):
        # A library caller's own objects must stay collectable; only `cli.main` freezes.
        code = f"import gc, dilaton_steering{module}; print(gc.isenabled(), gc.get_freeze_count())"
        env = dict(os.environ, PYTHONPATH=str(Path(dilaton_steering.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=10
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "True 0\n", "")

    @pytest.mark.parametrize(
        "argv", [["--version"], ["critical", "--mass", "1", "--omega", "1"]], ids=["version", "critical"]
    )
    def test_main_freezes_what_the_imports_made(self, argv):
        # Then the collections at exit skip every object the imports left alive.
        code = (
            "import gc, sys\n"
            "from dilaton_steering.cli import main\n"
            "imported = len(gc.get_objects())\n"
            "try:\n"
            f"    code = main({argv!r})\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "print(code, gc.get_freeze_count() >= imported, gc.isenabled(), file=sys.stderr)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(dilaton_steering.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=10
        )
        assert (done.returncode, done.stderr) == (0, "0 True True\n")

    def test_cli_imports_every_module_of_the_package(self):
        # A module that the program never imports is dead code, or a test helper.
        package = Path(dilaton_steering.__file__).parent
        modules = {f"dilaton_steering.{path.stem}" for path in package.glob("*.py")}
        modules.discard("dilaton_steering.__init__")
        code = "import sys, dilaton_steering.cli; print(*sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(package.parent))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=10
        )
        assert done.returncode == 0, done.stderr
        assert modules - set(done.stdout.split()) == set()
