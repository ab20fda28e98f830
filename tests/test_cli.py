import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dilaton_steering
from dilaton_steering import cli

CLI = "import sys; from dilaton_steering.cli import main; sys.exit(main())"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert "FAIL" in err
        assert "s_forward" in err


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
        code, out, _ = run(capsys, "monogamy", "--points", "21", "--omega", "1", "--d-max", "0.9")
        assert code == 0
        assert "n/a" in out


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

    def test_small_omega_collapses_intervals(self, capsys):
        code, out, _ = run(capsys, "classify", "--omega", "0.01")
        assert code == 0
        abbar_line = [line for line in out.split("\n") if "abbar" in line][0]
        assert "two_way" in abbar_line and "one_way" not in abbar_line
        bbbar_line = [line for line in out.split("\n") if "bbbar" in line][0]
        assert "no_way" in bbbar_line and "one_way" not in bbbar_line


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "dilaton-steering" in capsys.readouterr().out
