"""sha256 digests of the library's numeric routes on fixed inputs, and the script that records them.

Each case keeps the sha256 of the float64 bytes, or the JSON, that one
library function returns on a fixed input:

- the six keys of `pipeline_measure_arrays` for each pair, on amplitudes
  from x = 0 to x = 1500, where e^{-x} is subnormal;
- the two witness margins and the forward margin's slope that
  `find_critical_batch` bisects, on the same x;
- `find_critical_batch` and `regime_intervals` at three masses, on
  frequencies that include the 40 floats on each side of X/(8 pi M) for X
  in X_BIRTH, X_PEAK and X_DEATH, where a critical dilaton sits at D = 0.

`test_library_digests.py` replays every case against
`library_digests.json`, so a change to any bit they return fails there.
A change that moves bits on purpose records them again,

    PYTHONPATH=src python3 tests/library_digests.py

which, as `cli_digests.py` does, prints each case that changed, was added
or was removed, and names each in CHANGES.md with the reason.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from cli_digests import record
from dilaton_steering.dilaton import (
    X_BIRTH,
    X_DEATH,
    X_PEAK,
    Pair,
    _forward_margin_slope,
    _margin,
    _mixing,
    find_critical_batch,
    pipeline_measure_arrays,
    regime_intervals,
)

RECORD = Path(__file__).with_name("library_digests.json")

X_GRID = np.concatenate([np.linspace(0.0, 5.0, 2001), np.geomspace(5.0, 1500.0, 400)[1:]])
MASSES = (0.5, 1.0, 7.0)


def _around(value, count=40):
    """value and the `count` floats on each side of it, ascending."""
    below, above = [value], [value]
    for _ in range(count):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def omegas(mass):
    """Frequencies at `mass`: the floats around each X/(8 pi M), then a geometric range."""
    around = [w for x in (X_BIRTH, X_PEAK, X_DEATH) for w in _around(x / (8.0 * math.pi * mass))]
    return np.array(around + list(np.geomspace(1e-3, 1e3, 61)))


def _pipeline(pair, key):
    return lambda: pipeline_measure_arrays(*_mixing(X_GRID)[2:], pair)[key]


def _critical(mass):
    return lambda: np.concatenate(list(find_critical_batch(mass, omegas(mass)).values()))


def _regimes(mass, pair):
    return lambda: json.dumps(regime_intervals(mass, omegas(mass), pair))


PIPELINE_KEYS = ("s_forward", "s_backward", "concurrence", "bell_branch1", "bell_branch2", "bell_max")

CASES = {
    **{
        f"pipeline-{pair.value}-{key}": _pipeline(pair, key)
        for pair in (Pair.AB, Pair.ABBAR, Pair.BBBAR)
        for key in PIPELINE_KEYS
    },
    "margin-abbar-backward": lambda: _margin(X_GRID, Pair.ABBAR, backward=True),
    "margin-bbbar-forward": lambda: _margin(X_GRID, Pair.BBBAR, backward=False),
    "forward-margin-slope-bbbar": lambda: _forward_margin_slope(X_GRID, Pair.BBBAR),
    **{f"critical-mass-{mass:g}": _critical(mass) for mass in MASSES},
    **{
        f"regimes-{pair.value}-mass-{mass:g}": _regimes(mass, pair)
        for mass in MASSES
        for pair in (Pair.AB, Pair.ABBAR, Pair.BBBAR)
    },
}


def digest(name) -> str:
    """The sha256 of what case `name` returns: a float64 array's bytes, or a JSON text."""
    value = CASES[name]()
    data = value.encode() if isinstance(value, str) else np.asarray(value, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()


if __name__ == "__main__":
    record(RECORD, {name: digest(name) for name in CASES})
