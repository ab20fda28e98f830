"""The four workloads: CLI arguments made from the seed, and their checks.

Why these four (see README.md): `sweep_csv` and `sweep_json` load the
record and writer layers with two writers over one record layer;
`verify_pipeline` runs the batch density-matrix route and bypasses
records and writers; `critical_scan` is the only one on the scalar
route (validated density matrices, partial trace, bisection and
golden-section search).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import checks
import physics

SWEEP_CSV_POINTS = 20001
SWEEP_JSON_POINTS = 5001
VERIFY_POINTS = 50000
VERIFY_SAMPLES = 16
CRITICAL_OMEGAS = 230
# Geometric frequency range of critical_scan at mass 1: d1 leaves [0, M)
# below omega = 0.0524, so the first ten or so frequencies print an
# out-of-range d1.
CRITICAL_OMEGA_RANGE = (0.04, 5.0)


@dataclass
class Workload:
    name: str
    cli_args: list
    # True: the CLI writes its data with --out; False: its stdout is the output.
    writes_file: bool
    # check(code, output text, launcher) -> list of failures.
    check: Callable


def _six_digits(value):
    """Round to the 6 significant digits the CLI's `%g` echo prints."""
    return float(f"{value:.6g}")


def _seeded_mass(rng):
    return _six_digits(math.exp(rng.uniform(math.log(0.5), math.log(2.0))))


def sweep_csv(seed):
    rng = random.Random(f"sweep_csv:{seed}")
    mass = _seeded_mass(rng)
    args = ["sweep", "--mass", repr(mass), "--points", str(SWEEP_CSV_POINTS)]

    def check(code, text, launcher):
        fails = checks.Failures()
        if not fails.need(code == 0, f"sweep exited {code}"):
            return fails
        header, cols = checks.parse_csv(text)
        return checks.check_sweep(header, cols, mass, physics.DEFAULT_OMEGAS, SWEEP_CSV_POINTS, physics.PAIRS)

    return Workload("sweep_csv", args, True, check)


def sweep_json(seed):
    rng = random.Random(f"sweep_json:{seed}")
    mass = _seeded_mass(rng)
    pairs = ("abbar", "bbbar")
    grid_args = ["--pairs", ",".join(pairs), "--mass", repr(mass), "--points", str(SWEEP_JSON_POINTS)]
    args = ["sweep", "--format", "json"] + grid_args

    def check(code, text, launcher):
        fails = checks.Failures()
        if not fails.need(code == 0, f"sweep exited {code}"):
            return fails
        header, cols, fails = checks.parse_json(text)
        fails += checks.check_sweep(header, cols, mass, physics.DEFAULT_OMEGAS, SWEEP_JSON_POINTS, pairs)
        ref_code, ref_text = launcher.reference(["sweep"] + grid_args)
        if fails.need(ref_code == 0, f"reference CSV sweep exited {ref_code}"):
            fails += checks.check_same_values(header, cols, *checks.parse_csv(ref_text))
        return fails

    return Workload("sweep_json", args, True, check)


def verify_pipeline(seed):
    rng = random.Random(f"verify_pipeline:{seed}")
    mass = _seeded_mass(rng)
    args = ["verify", "--mass", repr(mass), "--points", str(VERIFY_POINTS)]

    def check(code, text, launcher):
        fails = checks.check_verify(code, text, mass, physics.DEFAULT_OMEGAS)
        fails += checks.check_verify_sample(
            random.Random(f"verify_sample:{seed}"), mass, physics.DEFAULT_OMEGAS, VERIFY_POINTS, VERIFY_SAMPLES
        )
        return fails

    return Workload("verify_pipeline", args, False, check)


def critical_omegas(seed):
    """CRITICAL_OMEGAS geometric frequencies at a seeded phase.

    A frequency whose critical dilaton lands within 1e-6 of the range
    edge 0 is nudged, so the in-range flag never hangs on rounding.
    """
    rng = random.Random(f"critical_scan:{seed}")
    lo, hi = CRITICAL_OMEGA_RANGE
    ratio = (hi / lo) ** (1.0 / CRITICAL_OMEGAS)
    phase = rng.random()
    omegas = []
    for k in range(CRITICAL_OMEGAS):
        omega = _six_digits(lo * ratio ** (k + phase))
        while any(abs(d) < 1e-6 for d in physics.critical_dilatons(1.0, omega)):
            omega = _six_digits(omega * 1.0001)
        omegas.append(omega)
    return omegas


def critical_scan(seed):
    omegas = critical_omegas(seed)
    args = ["critical", "--mass", "1", "--omega", ",".join(f"{w:.6g}" for w in omegas)]

    def check(code, text, launcher):
        return checks.check_critical(code, text, 1.0, omegas)

    return Workload("critical_scan", args, False, check)


WORKLOADS = {f.__name__: f for f in (sweep_csv, sweep_json, verify_pipeline, critical_scan)}
