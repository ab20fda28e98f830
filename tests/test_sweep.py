import io
import json
import math

import numpy as np
import pytest

from dilaton_steering.dilaton import Pair
from dilaton_steering.sweep import (
    ConfigError,
    SweepConfig,
    columns,
    monogamy_grid,
    pipeline_measure_arrays,
    sweep_blocks,
    verify_grid,
    write_csv,
    write_json,
)

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
            {"fmt": "xml"},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SweepConfig(**kwargs).validate()


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
        cfg = SweepConfig(points=2, omegas=(1.0,), fmt="json")
        buf = io.StringIO()
        write_json(cfg, buf)
        parsed = json.loads(buf.getvalue())
        assert isinstance(parsed, list) and len(parsed) == 2
        assert list(parsed[0].keys()) == columns(cfg.pairs)
        assert isinstance(parsed[0]["ab_s_forward"], float)
        assert isinstance(parsed[0]["ab_regime"], str)
        assert isinstance(parsed[0]["r3_valid"], bool)
        assert parsed[0]["ab_s_forward"] == sweep_columns(cfg)["ab_s_forward"][0]


class TestVerifyGrid:
    def test_small_grid_passes(self):
        report = verify_grid(SweepConfig(points=101))
        assert report.passed
        assert report.worst.value < 1e-12
        assert len(report.deviations) == 18  # 3 pairs x 6 measures

    def test_single_point_grid_report_shape(self):
        report = verify_grid(SweepConfig(points=2, d_min=0.5, d_max=0.500001, omegas=(1.0,)))
        assert {d.pair for d in report.deviations} == set(Pair)
        assert len(report.deviations) == 18

    def test_perturbation_hook_trips_the_gate(self, perturbed_s_forward):
        report = verify_grid(SweepConfig(points=11, omegas=(1.0,)))
        assert not report.passed
        assert report.worst.measure == "s_forward"
        assert abs(report.worst.value - 1e-8) < 1e-9

    def test_pipeline_arrays_match_scalar_route(self):
        from dilaton_steering.dilaton import DilatonParams, amplitude_arrays, pipeline_measures

        d = np.linspace(0.0, 1.0 - 1e-6, 9)
        _, _, _, c, s = amplitude_arrays(1.0, 1.0, d)
        for pair in Pair:
            arrays = pipeline_measure_arrays(c, s, pair)
            for i in (0, 4, 8):
                point = pipeline_measures(DilatonParams(1.0, float(d[i]), 1.0), pair)
                assert abs(arrays["s_forward"][i] - point.s_forward) < 1e-13
                assert abs(arrays["s_backward"][i] - point.s_backward) < 1e-13
                assert abs(arrays["concurrence"][i] - point.concurrence) < 1e-13
                assert abs(arrays["bell_max"][i] - point.bell) < 1e-13


class TestMonogamyGrid:
    def test_default_gates_pass(self):
        report = monogamy_grid(SweepConfig(points=201))
        assert report.passed
        assert report.max_r1 < 1e-12 and report.max_r2 < 1e-12
        assert report.max_r3 is not None and report.max_r3 < 1e-12
        assert report.max_r4 is not None and report.max_r4 < 1e-12

    def test_grid_below_birth_point_reports_not_applicable(self):
        report = monogamy_grid(SweepConfig(points=51, d_max=0.9, omegas=(1.0,)))
        assert report.max_r3 is None and report.max_r4 is None
        assert report.passed
