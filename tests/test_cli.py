import decimal
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dilaton_steering
from conftest import time_limit
from dilaton_steering import cli, kernels
from dilaton_steering.sweep import SLICE_ROWS, SweepConfig

CLI = "import sys; from dilaton_steering.cli import main; sys.exit(main())"


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

    def test_malformed_flag_value_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--omega", "abc"])
        assert exc.value.code == 2
        capsys.readouterr()

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


class TestVerifyCommand:
    def test_passes_on_small_grid(self, capsys):
        code, out, _ = run(capsys, "verify", "--points", "41")
        assert code == 0
        assert "PASS" in out
        assert out.count("max|closed-pipeline|") == 18

    def test_defaults_pass(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "PASS" in out

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


class TestCriticalCommand:
    def test_default_point_report(self, capsys):
        code, out, _ = run(capsys, "critical", "--omega", "1")
        assert code == 0
        assert "0.97814380" in out
        assert "0.94759991" in out
        assert "0.98758968" in out
        assert "|delta|" in out

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
            # d0 and d2 round to M: the whole range lies below them.
            (("--mass", "1", "--omega", "1e17"), "one_way_fwd", "one_way_fwd"),
            (("--mass", "1e10", "--omega", "1e10"), "one_way_fwd", "one_way_fwd"),
        ],
        ids=["omega-0.01", "omega-1e17", "mass-1e10-omega-1e10"],
    )
    def test_small_omega_collapses_intervals(self, capsys, argv, abbar, bbbar):
        code, out, _ = run(capsys, "classify", *argv)
        assert code == 0
        for name, regime in (("abbar", abbar), ("bbbar", bbbar)):
            line = [line for line in out.split("\n") if name in line][0]
            # One interval, (0, M), in one regime.
            assert line.split()[:3] == [name, regime, "(0,"] and len(line.split()) == 4


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
