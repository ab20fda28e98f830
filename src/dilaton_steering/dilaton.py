"""Fermionic mode family outside a GHS dilaton black hole.

Two observers share a maximally entangled fermion pair far from the
hole; one then hovers near the horizon, where the Hawking effect mixes
that mode with its partner behind the horizon. Every quantity of the
resulting three-mode pure state is a function of the thermal argument
x = 8*pi*(M - D)*omega, with mass M, dilaton charge D < M, and mode
frequency omega (geometric units).

Each bipartition's measures come in two routes: `closed_form_measures`
evaluates the analytic expressions in x, `pipeline_measures` rebuilds
the reduced density matrix and feeds it to the general machinery in
`measures`. The two must agree to 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import measures
from .density import DensityMatrix, PureState, XState, as_xstate, from_pure, partial_trace
from .kernels import SQRT3
from .measures import Direction, MeasureSet, classify_from_values

# Thermal arguments of the three critical dilaton values (mass- and
# frequency-independent): birth of the backward exterior-interior
# steering, peak of the horizon-pair steering, and its death.
X_BIRTH = math.log(SQRT3)
X_PEAK = math.log(2.0 + SQRT3)
X_DEATH = -math.log(SQRT3 - 1.0)


class Pair(Enum):
    """Bipartition of the three modes: Alice, Bob, and Bob's interior partner."""

    AB = "ab"
    ABBAR = "abbar"
    BBBAR = "bbbar"


# Modes kept by the partial trace down to each bipartition.
PAIR_MODES = {Pair.AB: (0, 1), Pair.ABBAR: (0, 2), Pair.BBBAR: (1, 2)}


class RootNotFoundError(ValueError):
    """A bracketing search found no sign change."""


@dataclass(frozen=True)
class DilatonParams:
    """Black-hole mass, dilaton charge, and mode frequency.

    Geometric units (hbar = G = c = k_B = 1); requires 0 <= dilaton < mass
    and positive mass and frequency.
    """

    mass: float
    dilaton: float
    omega: float

    def __post_init__(self):
        if not (self.mass > 0.0):
            raise ValueError(f"mass must be positive, got {self.mass}")
        if not (self.omega > 0.0):
            raise ValueError(f"omega must be positive, got {self.omega}")
        if not (0.0 <= self.dilaton < self.mass):
            raise ValueError(
                f"dilaton must satisfy 0 <= D < M, got D={self.dilaton}, M={self.mass}"
            )


@dataclass(frozen=True)
class BogoliubovAmplitudes:
    """Mode-mixing amplitudes c, s with c^2 + s^2 = 1.

    x is the thermal argument 8*pi*(M - D)*omega and temperature the
    Hawking temperature 1/(8*pi*(M - D)).
    """

    x: float
    c: float
    s: float
    temperature: float


@dataclass(frozen=True)
class CriticalPoints:
    """Critical dilaton values with in-range flags (value in [0, mass))."""

    d0: float
    d1: float
    d2: float
    d0_in_range: bool
    d1_in_range: bool
    d2_in_range: bool


@dataclass(frozen=True)
class MonogamyResiduals:
    """Left minus right side of the four steering-entanglement identities.

    r3 and r4 only hold past the birth point of the backward
    exterior-interior steering; their validity flags record whether
    that condition is met.
    """

    r1: float
    r2: float
    r3: float
    r4: float
    r3_valid: bool
    r4_valid: bool


def bogoliubov(p: DilatonParams) -> BogoliubovAmplitudes:
    """Mode-mixing amplitudes for the given parameters.

    Computed through e^{-x} only, so large x never overflows.
    """
    x = 8.0 * math.pi * (p.mass - p.dilaton) * p.omega
    u = math.exp(-x)
    c2 = 1.0 / (1.0 + u)
    s2 = u / (1.0 + u)
    return BogoliubovAmplitudes(
        x=x,
        c=math.sqrt(c2),
        s=math.sqrt(s2),
        temperature=1.0 / (8.0 * math.pi * (p.mass - p.dilaton)),
    )


def amplitude_arrays(mass, omega, dilatons):
    """Vectorized mode-mixing amplitudes over a dilaton grid.

    Returns (x, c^2, s^2, c, s) as float64 arrays. Where x overflows it
    is inf, the right limit: then c = 1 and s = 0.
    """
    with np.errstate(over="ignore"):
        x = 8.0 * np.pi * (mass - np.asarray(dilatons, dtype=np.float64)) * omega
    u = np.exp(-x)
    c2 = 1.0 / (1.0 + u)
    s2 = u / (1.0 + u)
    return x, c2, s2, np.sqrt(c2), np.sqrt(s2)


def tripartite_state(p: DilatonParams) -> DensityMatrix:
    """Pure three-mode state in the ordering (Alice, Bob, interior partner)."""
    amp = bogoliubov(p)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    v = np.zeros(8, dtype=np.complex128)
    v[0] = amp.c * inv_sqrt2  # |000>
    v[3] = amp.s * inv_sqrt2  # |011>
    v[6] = inv_sqrt2  # |110>
    return from_pure(PureState(v))


def reduced(p: DilatonParams, pair: Pair) -> XState:
    """Two-mode reduced state of the chosen bipartition, in X form."""
    return as_xstate(partial_trace(tripartite_state(p), PAIR_MODES[pair]))


def closed_xparams(c2, s2, c, s, pair: Pair):
    """Analytic X parameters (d11, d22, d33, d44, |c14|, |c23|) of a reduction.

    Works elementwise on arrays or scalars.
    """
    zero = np.zeros_like(c2)
    half = np.full_like(c2, 0.5)
    if pair is Pair.AB:
        return 0.5 * c2, 0.5 * s2, zero, half, 0.5 * c, zero
    if pair is Pair.ABBAR:
        return 0.5 * c2, 0.5 * s2, half, zero, zero, 0.5 * s
    return 0.5 * c2, zero, half, 0.5 * s2, 0.5 * c * s, zero


def closed_measure_arrays(c2, s2, c, s, pair: Pair) -> dict:
    """Analytic measures of one bipartition, vectorized over the grid.

    `bell_branch2` is the analytic single-branch Bell expression;
    `bell_max` is the maximum of both branches rebuilt from the reduced
    state's correlation invariants. The two branches cross nowhere in
    this family (branch 1 dominates), so both are reported.
    """
    if pair is Pair.AB:
        s_fwd = np.maximum(0.0, c2 - c2 * s2 / SQRT3)
        s_bwd = np.maximum(0.0, c2 - s2 / SQRT3)
        conc = np.asarray(c, dtype=np.float64).copy()
        b2_printed = 2.0 * c * np.sqrt(1.0 + c2)
    elif pair is Pair.ABBAR:
        s_fwd = np.maximum(0.0, s2 * (1.0 - c2 / SQRT3))
        s_bwd = np.maximum(0.0, s2 - c2 / SQRT3)
        conc = np.asarray(s, dtype=np.float64).copy()
        b2_printed = 2.0 * s * np.sqrt(1.0 + s2)
    else:
        s_fwd = np.maximum(0.0, s2 * (c2 - 1.0 / SQRT3))
        s_bwd = np.maximum(0.0, c2 * (s2 - 1.0 / SQRT3))
        conc = c * s
        b2_printed = 2.0 * c * s
    d11, d22, d33, d44, a14, a23 = closed_xparams(c2, s2, c, s, pair)
    k1 = 4.0 * (a14 + a23) ** 2
    k2 = 4.0 * (a14 - a23) ** 2
    k3 = (d11 - d22 - d33 + d44) ** 2
    b1 = 2.0 * np.sqrt(k1 + k2)
    b2 = 2.0 * np.sqrt(k1 + k3)
    return {
        "s_forward": s_fwd,
        "s_backward": s_bwd,
        "bell_max": np.maximum(b1, b2),
        "bell_branch1": b1,
        "bell_branch2": b2_printed,
        "concurrence": conc,
        "asymmetry": np.abs(s_fwd - s_bwd),
    }


def closed_form_measures(p: DilatonParams, pair: Pair) -> MeasureSet:
    """Analytic measures of one bipartition at a single parameter point."""
    amp = bogoliubov(p)
    c2 = np.array([amp.c * amp.c])
    s2 = np.array([amp.s * amp.s])
    vals = closed_measure_arrays(c2, s2, np.array([amp.c]), np.array([amp.s]), pair)
    fwd = float(vals["s_forward"][0])
    bwd = float(vals["s_backward"][0])
    return MeasureSet(
        s_forward=fwd,
        s_backward=bwd,
        bell=float(vals["bell_max"][0]),
        bell_branch1=float(vals["bell_branch1"][0]),
        bell_branch2=float(vals["bell_branch2"][0]),
        concurrence=float(vals["concurrence"][0]),
        asymmetry=abs(fwd - bwd),
        regime=classify_from_values(fwd, bwd),
    )


def pipeline_measures(p: DilatonParams, pair: Pair) -> MeasureSet:
    """Measures of one bipartition via the density-matrix route.

    Builds the three-mode state, traces down to the bipartition, and
    applies the general machinery: witness steerability on the extracted
    X parameters, spin-flip concurrence and correlation-matrix CHSH on
    the matrix itself.
    """
    rho = partial_trace(tripartite_state(p), PAIR_MODES[pair])
    st = as_xstate(rho)
    fwd = measures.steerability(st, Direction.A_TO_B)
    bwd = measures.steerability(st, Direction.B_TO_A)
    branches = measures.chsh_max_x(st)
    return MeasureSet(
        s_forward=fwd,
        s_backward=bwd,
        bell=measures.chsh_max_general(rho),
        bell_branch1=branches.branch1,
        bell_branch2=branches.branch2,
        concurrence=measures.concurrence_general(rho),
        asymmetry=abs(fwd - bwd),
        regime=classify_from_values(fwd, bwd),
    )


def critical_dilatons(mass: float, omega: float) -> CriticalPoints:
    """Closed-form critical dilaton values with in-range flags.

    d0: birth of the backward Alice/interior-partner steering;
    d1: peak of the Bob/interior-partner steering;
    d2: death of the Bob/interior-partner steering.
    Always d1 < d0 < d2 < mass; values drop below 0 for small omega*mass.
    """
    if not (mass > 0.0 and omega > 0.0):
        raise ValueError(f"mass and omega must be positive, got M={mass}, omega={omega}")
    scale = 1.0 / (8.0 * math.pi * omega)
    d0 = mass - X_BIRTH * scale
    d1 = mass - X_PEAK * scale
    d2 = mass - X_DEATH * scale

    def in_range(v: float) -> bool:
        return 0.0 <= v < mass

    return CriticalPoints(d0, d1, d2, in_range(d0), in_range(d1), in_range(d2))


def _bisect(f, lo: float, hi: float, xtol: float) -> float:
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise RootNotFoundError(
            f"no sign change on bracket [{lo:.12g}, {hi:.12g}]: "
            f"f(lo)={flo:.6g}, f(hi)={fhi:.6g}"
        )
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


_INV_PHI = 0.5 * (math.sqrt(5.0) - 1.0)


def _golden_max(f, lo: float, hi: float, xtol: float) -> float:
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def find_critical_numeric(mass: float, omega: float, which: str) -> float:
    """Locate a critical dilaton from the reduced states themselves.

    `which` is "d0", "d1", or "d2". d0 and d2 come from bisection on the
    sign of the relevant unclamped witness margin (the steerability is
    exactly zero on one side, so the margin, not the clamped value,
    carries the sign change); d1 from golden-section maximization of the
    Bob/interior-partner steerability on [bracket start, d2]. Everything
    is computed through the density-matrix pipeline, independent of the
    closed-form values in `critical_dilatons`.

    The bracket starts where the thermal argument is at most 5: every
    critical value sits at thermal argument below 2, while deep in the
    near-vacuum regime (large argument) the margins fall below rounding
    noise and their sign becomes meaningless.

    Raises RootNotFoundError (with the bracket and endpoint values) when
    the critical point does not lie inside [0, mass).
    """
    lo = max(0.0, mass - 5.0 / (8.0 * math.pi * omega))
    hi = mass * (1.0 - 1e-12)
    if which == "d0":

        def margin(dv: float) -> float:
            st = reduced(DilatonParams(mass, dv, omega), Pair.ABBAR)
            return max(measures.witness_arguments(st, Direction.B_TO_A))

        return _bisect(margin, lo, hi, 1e-10)
    if which == "d2":

        def margin(dv: float) -> float:
            st = reduced(DilatonParams(mass, dv, omega), Pair.BBBAR)
            return max(measures.witness_arguments(st, Direction.A_TO_B))

        return _bisect(margin, lo, hi, 1e-10)
    if which == "d1":
        death = find_critical_numeric(mass, omega, "d2")

        def steer(dv: float) -> float:
            st = reduced(DilatonParams(mass, dv, omega), Pair.BBBAR)
            return measures.steerability(st, Direction.A_TO_B)

        return _golden_max(steer, lo, death, 1e-9)
    raise ValueError(f"unknown critical point {which!r}, expected 'd0', 'd1', or 'd2'")


def monogamy_residual_arrays(ab: dict, abbar: dict, bbbar: dict, dilatons, d0: float) -> dict:
    """Residuals of the four steering-entanglement identities on a grid.

    Takes the closed-form measure dictionaries of the three bipartitions.
    r1/r2 hold on the whole range; r3/r4 only where dilaton > d0, recorded
    in the `valid` mask.
    """
    c2_ab = ab["concurrence"] ** 2
    c2_abbar = abbar["concurrence"] ** 2
    c2_bbbar = bbbar["concurrence"] ** 2
    diff = c2_ab - c2_abbar
    r1 = (ab["s_forward"] - abbar["s_forward"]) - diff
    r2 = (ab["s_forward"] + abbar["s_forward"]) - (
        c2_ab + c2_abbar - (2.0 / SQRT3) * c2_bbbar
    )
    r3 = 0.5 * (3.0 - SQRT3) * (ab["s_backward"] - abbar["s_backward"]) - diff
    r4 = 0.5 * (3.0 + SQRT3) * (ab["s_backward"] + abbar["s_backward"]) - (c2_ab + c2_abbar)
    return {"r1": r1, "r2": r2, "r3": r3, "r4": r4, "valid": np.asarray(dilatons) > d0}


def monogamy_residuals(p: DilatonParams) -> MonogamyResiduals:
    """Residuals of the four steering-entanglement identities at one point."""
    amp = bogoliubov(p)
    c2 = np.array([amp.c * amp.c])
    s2 = np.array([amp.s * amp.s])
    c = np.array([amp.c])
    s = np.array([amp.s])
    vals = {
        pair: closed_measure_arrays(c2, s2, c, s, pair)
        for pair in (Pair.AB, Pair.ABBAR, Pair.BBBAR)
    }
    d0 = critical_dilatons(p.mass, p.omega).d0
    res = monogamy_residual_arrays(
        vals[Pair.AB], vals[Pair.ABBAR], vals[Pair.BBBAR], np.array([p.dilaton]), d0
    )
    valid = bool(res["valid"][0])
    return MonogamyResiduals(
        r1=float(res["r1"][0]),
        r2=float(res["r2"][0]),
        r3=float(res["r3"][0]),
        r4=float(res["r4"][0]),
        r3_valid=valid,
        r4_valid=valid,
    )
