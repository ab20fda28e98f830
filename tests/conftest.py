import math
import signal
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from dilaton_steering import sweep
from dilaton_steering.dilaton import critical_dilatons

# Every property test draws the same examples on every run, so a tier-1
# result depends on the code alone.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


# pi as the program holds it, so that an exact reference differs only in its rounding.
EXACT_EIGHT_PI = 8 * Fraction(math.pi)


def exact_float(q: Fraction) -> float:
    """The float64 nearest the rational q, or +-inf past the largest float."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def children_of(pid, thread=None):
    """The pids of the child processes that a thread of `pid` forked, its main thread by default;
    the unreaped ones are included."""
    with open(f"/proc/{pid}/task/{thread or pid}/children") as listing:
        return [int(child) for child in listing.read().split()]


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block after `seconds`, so a hang fails instead of stalling."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def perturbed_s_forward(monkeypatch):
    """Shift the closed-form forward steerability that `verify_grid` sees by 1e-8."""
    original = sweep.closed_measure_arrays

    def shifted(*args):
        vals = original(*args)
        vals["s_forward"] = vals["s_forward"] + 1e-8
        return vals

    monkeypatch.setattr(sweep, "closed_measure_arrays", shifted)


@pytest.fixture
def nan_s_forward_at(monkeypatch):
    """Return arm(mass, omega, dilaton): from then on, the closed-form forward
    steerability that `verify_grid` sees is NaN at that one grid point."""
    original = sweep.closed_measure_arrays

    def arm(mass, omega, dilaton):
        target = sweep.amplitude_arrays(mass, omega, np.array([dilaton]))[1][0]

        def poisoned(c2, *rest):
            vals = original(c2, *rest)
            vals["s_forward"] = np.where(c2 == target, np.nan, vals["s_forward"])
            return vals

        monkeypatch.setattr(sweep, "closed_measure_arrays", poisoned)

    return arm


@pytest.fixture
def nan_r1_after_first_omega(monkeypatch):
    """Return arm(cfg): from then on, `monogamy_grid` sees a NaN r1 at the last grid point of
    every omega of cfg but the first. The omega is told by its birth dilaton d0, so the poison
    lands wherever that slice is computed."""
    original = sweep.monogamy_residual_arrays

    def arm(cfg):
        later = critical_dilatons(cfg.mass, cfg.sorted_omegas()[1:])["d0"]
        last = cfg.resolved_d_max

        def poisoned(ab, abbar, bbbar, dilatons, d0):
            res = original(ab, abbar, bbbar, dilatons, d0)
            if d0 in later:
                res["r1"] = np.where(dilatons == last, np.nan, res["r1"])
            return res

        monkeypatch.setattr(sweep, "monogamy_residual_arrays", poisoned)

    return arm
