"""The error bound both float notations rest on: `spelling._scaled`'s n + frac against exact arithmetic.

`_scaled` takes |v| * 10**(16 - X), X = floor(log10|v|), as n + frac from a double-double product.
CSV's and JSON's digits are numpy's only where every comparison that decides them clears
`spelling.SETTLE_MARGIN`, which is safe only while n + frac errs by less than BOUND, in units of the
17th digit. Each cell here is held to BOUND against the exact product from `fractions`.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from dilaton_steering import spelling

BOUND = 1e-14  # in units of the 17th digit
EXPONENTS = range(-324, 309)  # the columns of the powers table, the 2**+-512 prescale and subnormals included


def worst_error(values):
    """(error, v): the largest |n + frac - |v| * 10**(16 - X)| over the finite nonzero values, and its v."""
    column = np.array(values, dtype=np.float64)
    x10, n, frac, finite, _ = spelling._scaled(column)
    assert finite.all()
    errors = [
        (abs(Fraction(k) + Fraction(f) - Fraction(abs(v)) * Fraction(10) ** (16 - x)), v)
        for v, x, k, f in zip(column.tolist(), x10.tolist(), n.tolist(), frac.tolist())
    ]
    return max(errors)


def every_column():
    """10**X, the float on each side and 8 seeded significands in [10**X, 10**(X + 1)), for every X."""
    significands = np.random.default_rng(13).uniform(1.0, 10.0, (len(EXPONENTS), 8)).tolist()
    cells = []
    for x, draws in zip(EXPONENTS, significands):
        power = np.float64(f"1e{x}")
        cells += [power, np.nextafter(power, 0.0), np.nextafter(power, np.inf)]
        cells += [float(f"{m!r}e{x}") for m in draws]  # parsed, so rounded once from m * 10**x
    cells += [5e-324, 2.0**-1022, np.finfo(np.float64).max]
    cells = np.array(cells)
    return cells[np.isfinite(cells) & (cells != 0.0)]


def test_every_column_of_the_powers_table_errs_by_under_the_bound():
    cells = every_column()
    columns = set(spelling._scaled(cells)[0].tolist())
    assert columns == set(EXPONENTS)
    error, v = worst_error(np.concatenate([cells, -cells]))
    assert error < BOUND, (float(error), v)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False).filter(bool), min_size=1, max_size=40))
def test_any_finite_nonzero_double_errs_by_under_the_bound(values):
    error, v = worst_error(values)
    assert error < BOUND, (float(error), v)


def test_the_settle_margin_is_1e5_times_the_bound():
    assert math.isclose(spelling.SETTLE_MARGIN, 1e5 * BOUND)
