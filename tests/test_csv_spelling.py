"""The CSV writer's float spelling against '%.17g', one Python format call per cell.

`spelling._csv_floats` spells a whole column with numpy and sends a cell to '%.17g' only where its
digits are not exact; its bytes must be those of '%.17g' for every float64.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from dilaton_steering import spelling


def spelled(values):
    """Each cell of the float column `values` as the CSV writer spells it, without its comma."""
    cells = spelling._csv_floats(np.array(values, dtype=np.float64))
    return [bytes(row).replace(b"\0", b"").decode("ascii").removeprefix(",") for row in cells]


def assert_spelled_as_g17(values):
    column = np.array(values, dtype=np.float64)
    assert spelled(column) == ["%.17g" % v for v in column.tolist()]


def powers_of_ten_and_neighbours():
    """The six floats on each side of every power of ten from 1e-323 to 1e308, and the powers."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    cells = [powers]
    for direction in (np.inf, 0.0):
        step = powers
        for _ in range(6):
            step = np.nextafter(step, direction)
            cells.append(step)
    cells = np.concatenate(cells)
    return np.concatenate([cells, -cells])


@given(st.lists(st.floats(), min_size=1, max_size=40))
@example([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308])
def test_floats_are_spelled_as_g17(values):
    assert_spelled_as_g17(values)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_bit_patterns_are_spelled_as_g17(patterns):
    # NaNs with every payload and sign, subnormals, and both zeros.
    assert_spelled_as_g17(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_powers_of_ten_and_their_neighbours_are_spelled_as_g17():
    assert_spelled_as_g17(powers_of_ten_and_neighbours())


@given(st.lists(st.tuples(st.integers(0, 2**52 - 1), st.integers(-60, 10)), min_size=1, max_size=40))
@example([(2000000000000000, 0), (2000000000000001, 0), (5, -1)])  # 1000000000000000.25, .75 and 1.25
def test_exact_ties_are_spelled_as_g17(multiples):
    # Odd multiples of 0.5 scaled by powers of two: where 17 digits end just before the 5 of an
    # exact tie, '%.17g' rounds half to even.
    assert_spelled_as_g17([math.ldexp(2 * m + 1, e - 1) for m, e in multiples])


def test_both_branches_are_taken():
    # numpy's digits where they are exact; '%.17g' for inf, NaN, a near-tie and a log10 one off.
    _, _, ok = spelling._csv_digits(np.array([0.5, -0.0, 1e300, 5e-324, math.inf, math.nan, 1000000000000000.25]))
    assert ok.tolist() == [True, True, True, True, False, False, False]
    _, _, ok = spelling._csv_digits(powers_of_ten_and_neighbours())
    assert ok.any() and not ok.all()


def test_no_table_is_built_at_import():
    env = dict(os.environ, PYTHONPATH=str(Path(spelling.__file__).parents[1]))
    code = "from dilaton_steering import cli, spelling; print(spelling._spelling_tables.cache_info().currsize)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout == "0\n"
