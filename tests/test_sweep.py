import collections
import io
import itertools
import json
import math
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chsh_oracle import chsh_max_eigvalsh
from conftest import children_of, time_limit
from density_oracle import reduced
from dilaton_steering import kernels, sweep
from dilaton_steering.dilaton import (
    Pair,
    amplitude_arrays,
    closed_measure_arrays,
    critical_dilatons,
    monogamy_residual_arrays,
)
from dilaton_steering.sweep import (
    RESIDUALS,
    SLICE_ROWS,
    ConfigError,
    GateReport,
    SweepConfig,
    columns,
    monogamy_grid,
    pipeline_measure_arrays,
    sweep_blocks,
    verify_grid,
    write_csv,
    write_json,
)
from sampling import density_stack, xstate_params
from spinflip_oracle import spinflip_concurrence

GOLDEN_HEADER = (
    "omega,dilaton,x,"
    "ab_s_forward,ab_s_backward,ab_bell_max,ab_bell_branch2,ab_concurrence,ab_asymmetry,ab_regime,"
    "abbar_s_forward,abbar_s_backward,abbar_bell_max,abbar_bell_branch2,abbar_concurrence,abbar_asymmetry,abbar_regime,"
    "bbbar_s_forward,bbbar_s_backward,bbbar_bell_max,bbbar_bell_branch2,bbbar_concurrence,bbbar_asymmetry,bbbar_regime,"
    "r1,r2,r3,r4,r3_valid,r4_valid"
)


def render_csv(cfg):
    buf = io.StringIO()
    write_csv(cfg, buf)
    return buf.getvalue()


def traced_peak(run, points):
    """Peak traced numpy/python memory of run(cfg) on a one-omega grid, on one CPU: tracemalloc
    sees this process alone, so the work must not go to forked workers."""
    with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True):
        tracemalloc.start()
        try:
            run(SweepConfig(points=points, omegas=(1.0,)))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def fresh_interpreter(code):
    """The stdout of code, run by a new interpreter that imports this package, with the allocator's defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = str(Path(sweep.__file__).parents[1])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def residual_max(report, name):
    """Grid maximum of |name| in a monogamy report; None where it applied nowhere."""
    worst = report.select(lambda key: key[1] == name).worst
    return None if worst is None else worst[1]


def sweep_columns(cfg):
    """All sweep blocks joined into one array per column, in row order."""
    blocks = list(sweep_blocks(cfg))
    return {name: np.concatenate([block[name] for block in blocks]) for name in blocks[0]}


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = SweepConfig()
        cfg.validate()
        assert cfg.resolved_d_max == 1.0 - 1e-6
        assert cfg.points == 2001
        assert cfg.omegas == (0.5, 1.0, 1.5, 2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mass": 0.0},
            {"mass": -1.0},
            {"omegas": ()},
            {"omegas": (1.0, -0.5)},
            {"points": 1},
            {"d_min": 0.9, "d_max": 0.5},
            {"d_min": -0.1},
            {"d_max": 1.0},
            {"d_max": 1.5},
            {"pairs": ()},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SweepConfig(**kwargs).validate()

    def test_points_stop_at_2_to_the_53(self):
        # Past 2**53 the float64 grid indices are no longer exact.
        SweepConfig(points=sweep.MAX_POINTS).validate()
        for points in (sweep.MAX_POINTS + 1, 10**30):
            with pytest.raises(ConfigError, match=r"2\*\*53"):
                SweepConfig(points=points).validate()


class TestGridSlices:
    @pytest.mark.parametrize(
        "points", [SLICE_ROWS - 1, SLICE_ROWS, SLICE_ROWS + 1, 2 * SLICE_ROWS + 1]
    )
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mass": 1e-300},
            {"mass": 1e300},
            # A denormal width: the step underflows to 0 and np.linspace
            # takes its (i / div) * delta branch.
            {"mass": 1e-319, "d_max": 1e-320},
        ],
    )
    def test_walk_slices_are_the_linspace_grid(self, points, kwargs):
        cfg = SweepConfig(points=points, omegas=(1.0,), **kwargs)
        if "d_max" in kwargs:
            assert cfg.d_max / (points - 1) == 0.0
        n, job = sweep._slices(cfg)
        walked = np.concatenate(
            [sweep._walk_slice(cfg, omega, start, stop)[0] for omega, start, stop, _ in map(job, range(n))]
        )
        assert walked.tobytes() == cfg.dilaton_grid().tobytes()

    def test_first_slice_of_a_huge_grid_is_small(self):
        cfg = SweepConfig(points=10**12, omegas=(1.0,))
        tracemalloc.start()
        try:
            omega, start, stop, _ = sweep._slices(cfg)[1](0)
            dslice, *_ = sweep._walk_slice(cfg, omega, start, stop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(dslice) == SLICE_ROWS and dslice[0] == 0.0
        assert peak < 2**20
        assert cfg.grid_slice(cfg.points - 2, cfg.points)[-1] == cfg.resolved_d_max

    def test_first_walk_of_a_fresh_process_is_small(self):
        # The import's allocator step comes before any walk, so the first one, traced, does not see it.
        code = """if True:
            import tracemalloc
            from dilaton_steering import sweep
            cfg = sweep.SweepConfig(points=10**12, omegas=(1.0,))
            tracemalloc.start()
            omega, start, stop, _ = sweep._slices(cfg)[1](0)
            sweep._walk_slice(cfg, omega, start, stop)
            print(tracemalloc.get_traced_memory()[1])
        """
        assert int(fresh_interpreter(code)) < 2**20


class TestRecords:
    def test_golden_header(self):
        assert ",".join(columns()) == GOLDEN_HEADER

    def test_header_for_pair_subset(self):
        cols = columns((Pair.AB,))
        assert cols[3:10] == [
            "ab_s_forward",
            "ab_s_backward",
            "ab_bell_max",
            "ab_bell_branch2",
            "ab_concurrence",
            "ab_asymmetry",
            "ab_regime",
        ]
        assert not any(c.startswith("abbar_") or c.startswith("bbbar_") for c in cols)
        assert cols[-6:] == ["r1", "r2", "r3", "r4", "r3_valid", "r4_valid"]

    def test_grid_shape_and_order(self):
        cfg = SweepConfig(points=2, omegas=(2.0, 0.5))
        blocks = list(sweep_blocks(cfg))
        assert [list(block) for block in blocks] == [columns(cfg.pairs)] * 2
        cols = sweep_columns(cfg)
        assert len(cols["omega"]) == 4
        keys = list(zip(cols["omega"].tolist(), cols["dilaton"].tolist()))
        assert keys == sorted(keys)
        assert cols["omega"][0] == 0.5 and cols["omega"][-1] == 2.0

    def test_x_column(self):
        cols = sweep_columns(SweepConfig(points=3, omegas=(1.5,), mass=2.0, d_max=1.0))
        for x, dilaton in zip(cols["x"], cols["dilaton"]):
            assert abs(x - 8.0 * math.pi * (2.0 - dilaton) * 1.5) < 1e-12

    def test_first_record_near_unit_forward_steering(self):
        # At D = 0 the forward steering deficit is ~e^{-4 pi omega}; within
        # 1e-5 of 1 for omega = 0.5 and within 1e-9 for omega = 2.
        cols = sweep_columns(SweepConfig(points=2))
        assert cols["omega"][0] == 0.5 and cols["dilaton"][0] == 0.0
        assert abs(cols["ab_s_forward"][0] - 1.0) < 1e-5
        by_omega = {
            (w, d): i for i, (w, d) in enumerate(zip(cols["omega"], cols["dilaton"]))
        }
        assert abs(cols["ab_s_forward"][by_omega[(2.0, 0.0)]] - 1.0) < 1e-9

    def test_last_record_bell_approaches_local_bound(self):
        # At D = mass (1 - 1e-6) the exterior Bell signal sits ~x/2 above
        # 2, i.e. within 5e-5 of 2 for all default frequencies.
        cols = sweep_columns(SweepConfig(points=2))
        assert cols["omega"][-1] == 2.0
        assert abs(cols["ab_bell_max"][-1] - 2.0) < 5e-5

    def test_regime_columns(self):
        cols = sweep_columns(SweepConfig(points=5, omegas=(1.0,)))
        for ab, abbar, bbbar in zip(cols["ab_regime"], cols["abbar_regime"], cols["bbbar_regime"]):
            assert ab == "two_way"
            assert abbar in ("one_way_fwd", "two_way")
            assert bbbar in ("one_way_fwd", "no_way")

    def test_monogamy_columns_survive_pair_subset(self):
        for block in sweep_blocks(SweepConfig(points=3, omegas=(1.0,), pairs=(Pair.AB,))):
            assert "r1" in block and "r3_valid" in block
            assert "abbar_s_forward" not in block

    def test_blocks_are_ascending_slices(self):
        cfg = SweepConfig(points=2 * SLICE_ROWS + 1, omegas=(1.0, 0.5))
        sizes = [len(block["dilaton"]) for block in sweep_blocks(cfg)]
        # Three near-equal slices of 8193 points.
        assert sizes == [2731, 2731, 2731] * 2
        cols = sweep_columns(cfg)
        keys = list(zip(cols["omega"].tolist(), cols["dilaton"].tolist()))
        assert keys == sorted(keys)

    def test_memory_does_not_grow_with_the_grid(self):
        def consume(cfg):
            collections.deque(sweep_blocks(cfg), maxlen=0)

        # Both grids are cut into slices of SLICE_ROWS points.
        assert traced_peak(consume, 5 * SLICE_ROWS) < 1.5 * traced_peak(consume, 2 * SLICE_ROWS)

    def test_all_numeric_fields_finite(self):
        cfg = SweepConfig(points=7)
        for block in sweep_blocks(cfg):
            for key in columns(cfg.pairs):
                if block[key].dtype.kind == "f":
                    assert np.isfinite(block[key]).all(), key


class TestSerialization:
    def test_csv_cells_round_trip(self):
        cfg = SweepConfig(points=4, omegas=(1.0,))
        header = columns(cfg.pairs)
        cols = sweep_columns(cfg)
        text = render_csv(cfg)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(header)
        assert len(lines) == 1 + len(cols["omega"])
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            for key, cell in zip(header, cells):
                value = cols[key][i]
                if cols[key].dtype.kind == "f":
                    assert float(cell) == value
                elif cols[key].dtype == bool:
                    assert cell in ("true", "false")
                    assert (cell == "true") == value
                else:
                    assert cell == value

    def test_csv_uses_unix_line_endings(self):
        text = render_csv(SweepConfig(points=2, omegas=(1.0,)))
        assert "\r" not in text
        assert text.endswith("\n")

    def test_byte_identical_reruns(self):
        cfg = SweepConfig(points=101)
        assert render_csv(cfg) == render_csv(cfg)

    def test_json_structure(self):
        cfg = SweepConfig(points=2, omegas=(1.0,))
        buf = io.StringIO()
        write_json(cfg, buf)
        parsed = json.loads(buf.getvalue())
        assert isinstance(parsed, list) and len(parsed) == 2
        assert list(parsed[0].keys()) == columns(cfg.pairs)
        assert isinstance(parsed[0]["ab_s_forward"], float)
        assert isinstance(parsed[0]["ab_regime"], str)
        assert isinstance(parsed[0]["r3_valid"], bool)
        assert parsed[0]["ab_s_forward"] == sweep_columns(cfg)["ab_s_forward"][0]


class TestGateReport:
    DILATONS = np.array([0.1, 0.2, 0.3])

    def test_a_tie_keeps_the_first_point_folded(self):
        report = GateReport(1.0)
        report.fold("a", np.array([0.5, 0.5, 0.1]), 1.0, self.DILATONS)
        report.fold("a", np.array([0.5, 0.2, 0.2]), 2.0, self.DILATONS)
        assert report.peaks == {"a": (0.5, 1.0, 0.1)}
        assert report.passed

    def test_nan_fails_and_is_the_worst(self):
        report = GateReport(1.0)
        report.fold("a", np.array([0.0, 3.0, 0.0]), 1.0, self.DILATONS)
        report.fold("b", np.array([0.0, np.nan, 0.0]), 1.0, self.DILATONS)
        report.fold("c", np.array([np.nan, 5.0, 0.0]), 1.0, self.DILATONS)
        key, value, omega, dilaton = report.worst
        assert (key, omega, dilaton) == ("b", 1.0, 0.2) and math.isnan(value)
        assert not report.passed
        assert not report.select(lambda key: key == "a").passed

    def test_the_gate_is_inclusive(self):
        report = GateReport(0.5)
        report.fold("a", np.array([0.5]), 1.0, self.DILATONS[:1])
        assert report.passed

    def test_select_keeps_the_order_and_the_gate(self):
        report = GateReport(1.0)
        for key in ("a", "b", "c"):
            report.fold(key, np.array([0.25]), 1.0, self.DILATONS[:1])
        part = report.select(lambda key: key != "b")
        assert list(part.peaks) == ["a", "c"] and part.gate == 1.0
        assert list(report.peaks) == ["a", "b", "c"]

    def test_no_peak_passes_and_has_no_worst(self):
        report = GateReport(1.0)
        report.fold("a", np.array([]), 1.0, self.DILATONS[:0])
        assert report.peaks == {} and report.passed and report.worst is None


class TestVerifyGrid:
    def test_small_grid_passes(self):
        report = verify_grid(SweepConfig(points=101))
        assert report.passed
        assert report.worst[1] < 1e-12
        assert len(report.peaks) == 18  # 3 pairs x 6 measures

    def test_single_point_grid_report_shape(self):
        report = verify_grid(SweepConfig(points=2, d_min=0.5, d_max=0.500001, omegas=(1.0,)))
        assert {pair for pair, _ in report.peaks} == set(Pair)
        assert len(report.peaks) == 18

    def test_perturbation_hook_trips_the_gate(self, perturbed_s_forward):
        report = verify_grid(SweepConfig(points=11, omegas=(1.0,)))
        assert not report.passed
        (_, measure), value, _, _ = report.worst
        assert measure == "s_forward"
        assert abs(value - 1e-8) < 1e-9

    @pytest.mark.parametrize(
        "points", [SLICE_ROWS - 1, SLICE_ROWS, SLICE_ROWS + 1, 2 * SLICE_ROWS + 1]
    )
    def test_sliced_report_equals_whole_grid_pass(self, points):
        cfg = SweepConfig(points=points, omegas=(1.5, 0.5))
        dgrid = cfg.dilaton_grid()
        expected = {}
        for omega in cfg.sorted_omegas():
            _, c2, s2, c, s = amplitude_arrays(cfg.mass, omega, dgrid)
            for pair in cfg.pairs:
                closed = closed_measure_arrays(c2, s2, c, s, pair)
                pipe = pipeline_measure_arrays(c, s, pair)
                for key in pipe:
                    dev = np.abs(closed[key] - pipe[key])
                    i = int(np.argmax(dev))
                    if (pair, key) not in expected or dev[i] > expected[pair, key][0]:
                        expected[pair, key] = (float(dev[i]), omega, float(dgrid[i]))
        report = verify_grid(cfg)
        assert report.peaks == expected

    def test_memory_does_not_grow_with_the_grid(self):
        assert traced_peak(verify_grid, 5 * SLICE_ROWS) < 1.5 * traced_peak(verify_grid, 2 * SLICE_ROWS)

    def test_reduced_states_come_without_8x8_stacks(self):
        # One 4096-state stack of three-mode density matrices is 4 MB; the
        # 4x2 factors of a slice take 0.5 MB.
        assert traced_peak(verify_grid, 8192) < 6e6

    def test_states_take_no_svd(self, monkeypatch):
        # Every reduced state of the pure three-mode state has rank <= 2, so
        # its concurrence is the closed 2x2 step on its factor, never the SVD.
        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called on a verify state")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert verify_grid(SweepConfig(points=101)).passed

    def test_states_take_no_eigh(self, monkeypatch):
        # The route hands the exact 4x2 factor of each state to the closed
        # step, so it needs no eigendecomposition either.
        def no_eigh(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called on a verify state")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        assert verify_grid(SweepConfig(points=101)).passed

    def test_states_take_no_eigvalsh(self, monkeypatch):
        # Their correlation products K = T^T T are diagonal, and the CHSH
        # kernel takes K's eigenvalues by Jacobi, with no LAPACK call.
        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("np.linalg.eigvalsh called on a verify state")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        assert verify_grid(SweepConfig(points=101)).passed

    def test_nan_in_last_slice_fails_the_gate(self, nan_s_forward_at):
        cfg = SweepConfig(points=SLICE_ROWS + 1, omegas=(0.5, 1.0), pairs=(Pair.ABBAR,))
        last = float(cfg.dilaton_grid()[-1])
        nan_s_forward_at(cfg.mass, 1.0, last)
        report = verify_grid(cfg)
        assert not report.passed
        key, value, omega, dilaton = report.worst
        assert key == (Pair.ABBAR, "s_forward")
        assert math.isnan(value)
        assert (omega, dilaton) == (1.0, last)

    def test_pipeline_arrays_match_scalar_route(self):
        # The validated reference (`reduced`, by partial tracing of a
        # validated density matrix) is the independent oracle of the batch stacks.
        d = np.linspace(0.0, 1.0 - 1e-6, 9)
        _, _, _, c, s = amplitude_arrays(1.0, 1.0, d)
        for pair in Pair:
            arrays = pipeline_measure_arrays(c, s, pair)
            states = [reduced(1.0, float(d[i]), 1.0, pair) for i in (0, 4, 8)]
            rhos = density_stack(st.to_matrix() for st in states)
            s_fwd, s_bwd, _, _, _ = kernels.xstate_measures(*xstate_params(states))
            for got, expected in (
                (arrays["s_forward"], s_fwd),
                (arrays["s_backward"], s_bwd),
                (arrays["concurrence"], spinflip_concurrence(rhos)),
                (arrays["bell_max"], chsh_max_eigvalsh(rhos)),
            ):
                assert np.abs(got[[0, 4, 8]] - expected).max() < 1e-13


class TestMonogamyGrid:
    def test_default_gates_pass(self):
        report = monogamy_grid(SweepConfig(points=201))
        assert report.passed
        for name in RESIDUALS:
            assert residual_max(report, name) is not None and residual_max(report, name) < 1e-12

    def test_nan_residual_after_first_omega_fails_the_gate(self, nan_r1_after_first_omega):
        cfg = SweepConfig(points=51, omegas=(0.5, 1.0))
        nan_r1_after_first_omega(cfg)
        report = monogamy_grid(cfg)
        assert not report.passed
        assert math.isnan(residual_max(report, "r1"))
        (_, name), value, omega, dilaton = report.worst
        assert name == "r1" and math.isnan(value)
        assert (omega, dilaton) == (1.0, float(cfg.dilaton_grid()[-1]))

    def test_grid_below_birth_point_reports_not_applicable(self):
        report = monogamy_grid(SweepConfig(points=51, d_max=0.9, omegas=(1.0,)))
        assert residual_max(report, "r3") is None and residual_max(report, "r4") is None
        assert report.passed

    # M and omega log-uniform over the float range's 600 decades.
    @settings(max_examples=300, deadline=None)
    @given(log_mass=st.floats(-300.0, 300.0), log_omega=st.floats(-300.0, 300.0))
    def test_identities_hold_with_r3_r4_only_above_d0(self, log_mass, log_omega):
        cfg = SweepConfig(mass=10.0**log_mass, omegas=(10.0**log_omega,), points=33)
        report = monogamy_grid(cfg)
        assert report.passed, report.worst
        (d0,) = critical_dilatons(cfg.mass, cfg.omegas)["d0"]
        above = bool((cfg.dilaton_grid() > d0).any())
        for name in RESIDUALS:
            assert (residual_max(report, name) is not None) == (above or name in ("r1", "r2"))

    def test_memory_does_not_grow_with_the_grid(self):
        assert traced_peak(monogamy_grid, 5 * SLICE_ROWS) < 1.5 * traced_peak(monogamy_grid, 2 * SLICE_ROWS)

    @pytest.mark.parametrize(
        "points", [SLICE_ROWS - 1, SLICE_ROWS, SLICE_ROWS + 1, 2 * SLICE_ROWS + 1]
    )
    def test_sliced_report_equals_whole_grid_pass(self, points):
        cfg = SweepConfig(points=points, omegas=(1.5, 0.5, 1.0))
        dgrid = cfg.dilaton_grid()
        maxima = dict.fromkeys(RESIDUALS)
        worst = None
        for omega in cfg.sorted_omegas():
            _, c2, s2, c, s = amplitude_arrays(cfg.mass, omega, dgrid)
            closed = [closed_measure_arrays(c2, s2, c, s, pair) for pair in Pair]
            d0 = critical_dilatons(cfg.mass, [omega])["d0"][0]
            res = monogamy_residual_arrays(*closed, dgrid, d0)
            for name in RESIDUALS:
                rows = res["valid"] if name in ("r3", "r4") else slice(None)
                absval, dsub = np.abs(res[name][rows]), dgrid[rows]
                if absval.size == 0:
                    continue
                i = int(np.argmax(absval))
                if maxima[name] is None or absval[i] > maxima[name]:
                    maxima[name] = float(absval[i])
                if worst is None or absval[i] > worst[1]:
                    worst = ((omega, name), float(absval[i]), omega, float(dsub[i]))
        report = monogamy_grid(cfg)
        assert [residual_max(report, name) for name in RESIDUALS] == [
            maxima[name] for name in RESIDUALS
        ]
        assert report.worst == worst

    @pytest.mark.parametrize(
        "poison,expected",
        [
            # A NaN r2 at the first omega beats a NaN r1 at a later omega.
            ({0.5: [("r2", 0)], 1.0: [("r1", 0)]}, ("r2", 0.5, 0)),
            # Within one omega r1 comes before r2, even when the NaN r2 lies
            # in an earlier slice than the NaN r1.
            ({0.5: [("r2", 0), ("r1", -1)], 1.0: [("r1", 0)]}, ("r1", 0.5, -1)),
        ],
    )
    def test_nan_ties_go_to_omega_then_residual_then_point(self, monkeypatch, poison, expected):
        cfg = SweepConfig(points=SLICE_ROWS + 1, omegas=(1.0, 0.5))
        dgrid = cfg.dilaton_grid()
        by_d0 = dict(zip(critical_dilatons(cfg.mass, list(poison))["d0"], poison.values()))
        original = sweep.monogamy_residual_arrays

        def poisoned(ab, abbar, bbbar, dilatons, d0):
            res = original(ab, abbar, bbbar, dilatons, d0)
            for name, index in by_d0[d0]:
                res[name] = np.where(dilatons == dgrid[index], np.nan, res[name])
            return res

        monkeypatch.setattr(sweep, "monogamy_residual_arrays", poisoned)
        report = monogamy_grid(cfg)
        assert not report.passed
        (_, name), value, omega, dilaton = report.worst
        assert math.isnan(value)
        assert (name, omega, dilaton) == (expected[0], expected[1], float(dgrid[expected[2]]))


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc", reason="the mmap threshold is glibc's"
)
@pytest.mark.parametrize(
    "walk, budget",
    [
        ("sweep._csv_text, sweep.SweepConfig(mass=1.2, points=20001)", 400),
        ("lambda cfg, job: list(sweep._verify_fold(cfg, [job])), sweep.SweepConfig(points=50000)", 100),
    ],
    ids=["csv", "verify"],
)
def test_a_slice_reuses_the_memory_the_last_one_freed(walk, budget):
    # Minor page faults a slice, on one CPU, after two warm slices: 1 100 to 1 250 for CSV text and 740
    # to 870 for a verify fold where glibc gives each slice's blocks back to the OS, under 5 where they stay.
    code = f"""if True:
        import os
        os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
        import resource
        from dilaton_steering import sweep
        run, cfg = {walk}
        n, job = sweep._slices(cfg)
        for i in range(n):
            if i == 2:
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            run(cfg, job(i))
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / (n - 2))
    """
    assert float(fresh_interpreter(code)) < budget


class TestGatesOnWorkers:
    """Worker k of w folds slices k, k + w, ...; their reports, merged in walk order, are the one-CPU report."""

    # Seven slices: on 2 CPUs, worker 0 folds slices 0, 2, 4 and 6; on 3 CPUs, slices 0, 3 and 6.
    # Only the last slice holds points above d0 = 0.978, so the r3 and r4 keys first come in its report.
    CFG = SweepConfig(points=7 * SLICE_ROWS, omegas=(1.0,))
    # One NaN in slice 5 and one in slice 6: in the shares of two workers, on 2 CPUs and on 3.
    NANS = [5 * SLICE_ROWS + 10, 6 * SLICE_ROWS + 10]

    @staticmethod
    def on(cpus, gate, cfg=CFG):
        # One worker per slice's worth of points, so that these grids, small for the gates' grains, fork.
        with (
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True),
            mock.patch.multiple(sweep, VERIFY_GRAIN=SLICE_ROWS, MONOGAMY_GRAIN=SLICE_ROWS),
        ):
            return gate(cfg)

    def poison(self, monkeypatch, gate):
        """NaN at the points NANS of one key, and inf at every point of another: a tie in all slices.
        A NaN does not compare >= to itself, so only a tie of numbers tells which report a tie keeps."""
        nans = self.CFG.dilaton_grid()[self.NANS]
        if gate is verify_grid:
            original = sweep.closed_measure_arrays

            def poisoned(c2, s2, c, s, pair):
                vals = original(c2, s2, c, s, pair)
                if pair is Pair.ABBAR:
                    _, cut_c2, *_ = amplitude_arrays(self.CFG.mass, 1.0, nans)
                    vals["s_forward"] = np.where(np.isin(c2, cut_c2), np.nan, vals["s_forward"])
                    vals["concurrence"] = np.full_like(c2, np.inf)
                return vals

            monkeypatch.setattr(sweep, "closed_measure_arrays", poisoned)
            return (Pair.ABBAR, "s_forward"), (Pair.ABBAR, "concurrence")
        original = sweep.monogamy_residual_arrays

        def poisoned(ab, abbar, bbbar, dilatons, d0):
            res = original(ab, abbar, bbbar, dilatons, d0)
            res["r1"] = np.where(np.isin(dilatons, nans), np.nan, res["r1"])
            res["r2"] = np.full_like(dilatons, np.inf)
            return res

        monkeypatch.setattr(sweep, "monogamy_residual_arrays", poisoned)
        return (1.0, "r1"), (1.0, "r2")

    @pytest.mark.parametrize("gate", [verify_grid, monogamy_grid], ids=["verify", "monogamy"])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_workers_give_the_one_cpu_report(self, monkeypatch, gate, cpus):
        nan_key, tie_key = self.poison(monkeypatch, gate)
        alone = self.on(1, gate)
        grid = self.CFG.dilaton_grid()
        # The poison took: the first NaN point, and the first point of the tie, hold their keys.
        assert alone.peaks[nan_key][2] == grid[self.NANS[0]]
        assert alone.peaks[tie_key][2] == grid[0]
        spread = self.on(cpus, gate)
        # repr, since a NaN is not equal to itself: values, points and key order.
        assert repr(list(spread.peaks.items())) == repr(list(alone.peaks.items()))
        assert repr(spread.worst) == repr(alone.worst)
        assert spread.passed is alone.passed is False
        assert children_of(os.getpid()) == []

    def test_unpoisoned_reports_match(self):
        cfg = SweepConfig(points=3 * SLICE_ROWS + 7, omegas=(0.5, 2.0, 1.0))
        for gate in (verify_grid, monogamy_grid):
            alone, spread = self.on(1, gate, cfg), self.on(3, gate, cfg)
            assert list(spread.peaks.items()) == list(alone.peaks.items())
            assert spread.passed and alone.passed

    @pytest.mark.parametrize("gate", [verify_grid, monogamy_grid], ids=["verify", "monogamy"])
    def test_a_worker_that_raises_fails_the_gate_and_is_reaped(self, monkeypatch, gate):
        parent, original = os.getpid(), sweep.amplitude_arrays

        def raising_in_a_worker(*args):
            if os.getpid() != parent:
                raise RuntimeError("a failure in a gate worker")
            return original(*args)

        monkeypatch.setattr(sweep, "amplitude_arrays", raising_in_a_worker)
        with pytest.raises(ChildProcessError, match="ended with status 1; the output is incomplete"):
            self.on(2, gate)
        assert children_of(os.getpid()) == []

    def test_a_dead_worker_is_seen_within_a_slice(self, monkeypatch):
        fold = sweep._verify_fold

        def fold_but_in_the_second_worker(cfg, jobs):
            first = next(jobs)
            if first[1]:  # slice 1, the second worker's first
                raise RuntimeError("a failure in the second worker")
            yield from fold(cfg, itertools.chain([first], jobs))

        monkeypatch.setattr(sweep, "_verify_fold", fold_but_in_the_second_worker)
        began = time.monotonic()
        # The first worker's share would take days.
        with time_limit(20), pytest.raises(ChildProcessError, match="ended with status 1; the output is incomplete"):
            self.on(2, verify_grid, SweepConfig(points=10**12, omegas=(1.0,)))
        assert time.monotonic() - began < 5
        assert children_of(os.getpid()) == []

    @pytest.mark.parametrize("gate", [verify_grid, monogamy_grid], ids=["verify", "monogamy"])
    def test_the_default_grid_folds_in_process(self, monkeypatch, gate):
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True):
            alone = gate(SweepConfig())
        monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError("forked")))
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True):
            assert list(gate(SweepConfig()).peaks.items()) == list(alone.peaks.items())

    @pytest.mark.parametrize("gate, points", [(verify_grid, 50000), (monogamy_grid, 70000)], ids=["verify", "monogamy"])
    def test_a_grid_worth_two_workers_forks(self, monkeypatch, gate, points):
        # 200 000 points of the walk, as in `verify --points 50000`, and 280 000 for monogamy: 2 workers on 2 CPUs.
        fork = mock.Mock(wraps=os.fork)
        monkeypatch.setattr(os, "fork", fork)
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True):
            assert gate(SweepConfig(points=points)).passed
        assert fork.call_count == 2
        assert children_of(os.getpid()) == []


class TestGateReportMerge:
    DILATONS = np.array([0.1, 0.2, 0.3])

    def test_merge_is_the_fold_over_both_grids(self):
        folds = [
            ("a", np.array([0.5, 0.5, 0.1]), 1.0),
            ("b", np.array([np.nan, 0.0, np.nan]), 1.0),
            ("a", np.array([0.2, 0.5, 0.5]), 2.0),
            ("c", np.array([0.3, 0.3, 0.0]), 2.0),
            ("b", np.array([np.nan, 9.0, 0.0]), 2.0),
            ("a", np.array([0.7, 0.0, 0.7]), 3.0),
        ]
        whole, first, second = GateReport(1.0), GateReport(1.0), GateReport(1.0)
        for i, (key, dev, omega) in enumerate(folds):
            whole.fold(key, dev, omega, self.DILATONS)
            (first if i < 2 else second).fold(key, dev, omega, self.DILATONS)
        merged = first.merge(second)
        assert merged is first
        assert repr(list(merged.peaks.items())) == repr(list(whole.peaks.items()))
        assert list(merged.peaks) == ["a", "b", "c"]
        assert merged.peaks["a"] == (0.7, 3.0, 0.1)
        assert merged.peaks["b"][1:] == (1.0, 0.1)
        assert merged.peaks["c"] == (0.3, 2.0, 0.1)

    def test_a_tie_keeps_the_earlier_report(self):
        first, second = GateReport(1.0), GateReport(1.0)
        first.fold("a", np.array([0.5]), 1.0, self.DILATONS[:1])
        second.fold("a", np.array([0.5]), 2.0, self.DILATONS[1:2])
        assert first.merge(second).peaks == {"a": (0.5, 1.0, 0.1)}
