"""The JSON writer's float spelling against repr and json.dumps, one Python call per cell.

`spelling._json_floats` spells a whole float column with numpy, repr's shortest digits, and sends a
cell to json.dumps only where numpy does not settle its digits: inf, NaN, and a cell with a
comparison within `spelling.SETTLE_MARGIN` of deciding, the one rule CSV's digits follow too. Its
bytes must be those of json.dumps, which writes repr for a finite float, for every float64.
`spelling._json_bytes` spells every column of a sweep block: json spells what numpy does not.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from dilaton_steering import spelling, sweep


def cell_texts(cells):
    """The rows of a block of spelled cells as text, without their NULs and leading comma."""
    return [bytes(row).replace(b"\0", b"").decode("ascii").removeprefix(",") for row in cells]


def assert_spelled_as_repr(values):
    column = np.array(values, dtype=np.float64)
    column = column[np.isfinite(column)]
    expected = [repr(v) for v in column.tolist()]
    assert expected == json.dumps(column.tolist())[1:-1].split(", ") or not len(column)
    assert cell_texts(spelling._json_floats(column)) == expected


def with_neighbours(values):
    """values, the six floats on each side of each, and the negatives of them all."""
    cells = [values]
    for direction in (np.inf, 0.0):
        step = values
        for _ in range(6):
            step = np.nextafter(step, direction)
            cells.append(step)
    cells = np.concatenate(cells)
    return np.concatenate([cells, -cells])


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
@example([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308])
@example([1.7976931348623157e308, -1.7976931348623157e308])
@example([2.0**-1017, 2.0**-1074, 2.0**-1022, 2.0**1023, 0.1, 1 / 3, 123.456, 1e-5, 1e-4])
def test_floats_are_spelled_as_repr(values):
    assert_spelled_as_repr(values)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_bit_patterns_are_spelled_as_repr(patterns):
    # Every sign, exponent and significand, subnormals and both zeros; inf and NaN are dropped.
    assert_spelled_as_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_powers_of_ten_and_their_neighbours_are_spelled_as_repr():
    assert_spelled_as_repr(with_neighbours(np.array([float(f"1e{k}") for k in range(-323, 309)])))


def test_powers_of_two_and_their_neighbours_are_spelled_as_repr():
    # Below a power of two the gap to the next double is half the gap above it.
    assert_spelled_as_repr(with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))


def test_the_notation_switches_as_repr_switches_it():
    # repr writes fixed notation up to X = 15 and '1e+16' from X = 16; '%.17g' switches at X = 17.
    edges = np.array([1e-5, 1e-4, 1e15, 1e16, 1e17, 9999999999999998.0, 999999999999999.9, 1.234567890123456e17])
    assert_spelled_as_repr(with_neighbours(edges))
    spelled = cell_texts(spelling._json_floats(np.array([1e15, 1e16, 1e17])))
    assert spelled == ["1000000000000000.0", "1e+16", "1e+17"]


@given(st.lists(st.integers(-(2**60), 2**60), min_size=1, max_size=40))
@example([0, 1, -1, 10, 100, 2**52, 2**53, 2**53 + 2, 10**15, 10**16 - 2])
def test_integral_values_end_in_point_zero(integers):
    # Every integral value in fixed notation takes '.0' from one word of the table.
    assert_spelled_as_repr([float(i) for i in integers])


@given(st.lists(st.tuples(st.integers(0, 2**52 - 1), st.integers(-60, 10)), min_size=1, max_size=40))
@example([(2**51 + 1, -1), (2**51 + 3, -1)])  # 562949953421312.25 and .75: repr writes .2 and .8
def test_exact_ties_are_spelled_as_repr(multiples):
    # Odd multiples of a power of two; where two shortest candidates are equally near, repr takes
    # the one whose last digit is even.
    assert_spelled_as_repr([math.ldexp(2 * m + 1, e - 1) for m, e in multiples])


def test_both_branches_are_taken():
    # numpy's digits where they are settled; repr where log10 is one off, just below a power of ten,
    # where a large integer's interval ends on a multiple of 10**j, and where 17 digits are within
    # the margin of a tie (|v| * 10**26 = ...0.5000000000000007).
    cells = [0.5, -0.0, 1e300, 5e-324, 2.0**-1017, 9.999999999999999e-06, 99.99999999999999]
    cells += [4.9028740750493203e17, 1.0889565988455702e-10]
    _, _, ok = spelling._json_digits(np.array(cells))
    assert ok.tolist() == [True, True, True, True, True, False, False, False, False]
    _, _, ok = spelling._json_digits(with_neighbours(np.array([float(f"1e{k}") for k in range(-323, 309)])))
    assert ok.any() and not ok.all()


@given(st.lists(st.floats(), min_size=1, max_size=40))
@example([math.nan, math.inf, -math.inf])
@example([1.5, -math.inf, 1e300, -0.0, math.nan, 5e-324])
def test_columns_with_inf_and_nan_are_spelled_as_json_spells_them(values):
    column = values * -(-spelling.FEW_CELLS // len(values))  # long enough for numpy
    assert cell_texts(spelling._json_bytes(np.array(column))) == json.dumps(column)[1:-1].split(", ")


def test_numpy_settles_every_cell_of_a_sweep():
    # As the README says of the benchmark's grids, no cell of the default grid, nor of one at a mass of
    # 1e-300, goes to Python: a rule grown too wary would send some.
    for cfg in (sweep.SweepConfig(), sweep.SweepConfig(mass=1e-300)):
        for block in sweep.sweep_blocks(cfg):
            for name, a in block.items():
                if a.dtype.kind == "f":
                    assert np.isfinite(a).all(), name
                    for digits in (spelling._csv_digits, spelling._json_digits):
                        assert digits(a)[2].all(), (cfg.mass, name, digits.__name__)


def test_every_column_is_spelled_as_json_spells_it():
    many = spelling.FEW_CELLS
    columns = [
        np.linspace(0.0, 1.0, many),  # numpy
        np.linspace(0.0, 1.0, many - 1),  # too short for numpy: json
        np.array([np.inf, -np.inf, np.nan, 1.5] * many),  # numpy, inf and NaN by json
        np.array([True, False] * many),
        np.array(["none", "50% two-way", "one_way_fwd"] * many),
        np.array(['a "quoted" label', "back\\slash", "café", "tab\there"]),  # json escapes them
    ]
    for column in columns:
        assert cell_texts(spelling._json_bytes(column)) == json.dumps(column.tolist())[1:-1].split(", ")


def test_no_table_is_built_at_import_nor_for_short_columns():
    env = dict(os.environ, PYTHONPATH=str(Path(spelling.__file__).parents[1]))
    code = (
        "import io, dilaton_steering\n"
        "from dilaton_steering import cli, dilaton, kernels, spelling, sweep\n"
        "built = spelling._spelling_tables.cache_info\n"
        "print(built().currsize)\n"
        "sweep.write_json(sweep.SweepConfig(points=spelling.FEW_CELLS - 1), io.StringIO())\n"
        "print(built().currsize)\n"
        "sweep.write_json(sweep.SweepConfig(points=spelling.FEW_CELLS), io.StringIO())\n"
        "print(built().currsize)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout == "0\n0\n1\n"
