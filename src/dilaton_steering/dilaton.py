"""Fermionic mode family outside a GHS dilaton black hole.

Two observers share a maximally entangled fermion pair far from the
hole; one then hovers near the horizon, where the Hawking effect mixes
that mode with its partner behind the horizon. Every quantity of the
resulting three-mode pure state is a function of the thermal argument
x = 8*pi*(M - D)*omega, with mass M, dilaton charge D < M, and mode
frequency omega (geometric units). `_thermal_argument` forms x and
`_dilaton_at` inverts it; over the whole accepted domain of M and omega,
5e-324 to the largest float, each overflows only where its true value does.

Each bipartition's measures come in two routes that must agree to
1e-10. The closed-form route (`closed_measure_arrays`) evaluates the
analytic expressions in x. The batch density-matrix route
(`pipeline_measure_arrays`) stacks the three-mode state vectors,
reshapes each into the 4x2 factor M of a bipartition, takes its reduced
state as M M^T and runs the `kernels`. It holds one state per column:
the stack width n is the last axis of the (8, n) vectors, (4, 2, n)
factors and (4, 4, n) states. Both routes take the amplitudes of
`amplitude_arrays`, one point or a whole grid at a time.

The numeric critical dilatons (`find_critical_batch`) are searched once
each in x on the batch route, independent of the closed forms in
`critical_dilatons`, and mapped to every frequency; a value is NaN where
it falls outside 0 <= D < M, the range rule of the closed values.
`regime_index` is the one regime rule, and `regime_intervals` gives its
runs over D. One scan-and-bisect in x (`_flips`) finds both the critical
roots and the edges of the regime runs.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from . import kernels
from .kernels import SQRT3

# Thermal arguments of the three critical dilaton values (mass- and
# frequency-independent): birth of the backward exterior-interior
# steering, peak of the horizon-pair steering, and its death.
X_BIRTH = math.log(SQRT3)
X_PEAK = math.log(2.0 + SQRT3)
X_DEATH = -math.log(SQRT3 - 1.0)

# The smallest normal float64, 2**-1022: below it a float loses digits.
_TINY = np.finfo(np.float64).tiny


class Pair(Enum):
    """Bipartition of the three modes: Alice, Bob, and Bob's interior partner."""

    AB = "ab"
    ABBAR = "abbar"
    BBBAR = "bbbar"


class ConfigError(ValueError):
    """A parameter outside the model's domain, or an invalid run configuration."""


def check_mass_and_omegas(mass, omegas) -> None:
    """Reject a mass or a frequency that is not positive and finite.

    `omegas` is a flat sequence or 1-D array; any other shape is rejected too.
    """
    if not (mass > 0.0 and math.isfinite(mass)):
        raise ConfigError(f"mass must be positive and finite, got {mass}")
    if np.ndim(omegas) != 1:
        raise ConfigError(f"omegas must be a flat sequence, got {np.ndim(omegas)} dimension(s)")
    if len(omegas) == 0:
        raise ConfigError("at least one omega is required")
    if any(not (w > 0.0 and math.isfinite(w)) for w in omegas):
        raise ConfigError(f"omegas must all be positive and finite, got {[float(w) for w in omegas]}")


def _thermal_argument(mass, omega, dilatons):
    """x = 8 pi (M - D) omega, elementwise; inf only where x itself overflows.

    8 pi (M - D) comes first, except where it overflows (M - D > 7.2e306) or loses
    digits as a subnormal (M - D < 8.9e-310); there x is 8 pi (g f) 2**(a + b), with
    M - D = g 2**a and omega = f 2**b split into mantissas and exponents.
    """
    gap = mass - np.asarray(dilatons, dtype=np.float64)
    (g, a), (f, b) = np.frexp(gap), np.frexp(omega)
    with np.errstate(over="ignore"):
        head = 8.0 * np.pi * gap
        normal = (_TINY <= head) & (head < np.inf)
        return np.where(normal, head * omega, np.ldexp(8.0 * np.pi * (g * f), a + b))


def amplitude_arrays(mass, omega, dilatons):
    """Vectorized mode-mixing amplitudes over a dilaton grid.

    Returns (x, c^2, s^2, c, s) as float64 arrays. Where x overflows it
    is inf, the right limit: then c = 1 and s = 0.
    """
    x = _thermal_argument(mass, omega, dilatons)
    return (x,) + _mixing(x)


def _mixing(x):
    """(c^2, s^2, c, s) at thermal arguments x, through e^{-x} only."""
    u = np.exp(-x)
    c2 = 1.0 / (1.0 + u)
    s2 = u / (1.0 + u)
    # Where u is subnormal (x > 708.4), s^2 has lost the digits s keeps up to x = 1417.
    s = np.where(u < _TINY, np.exp(-0.5 * x) / np.sqrt(1.0 + u), np.sqrt(s2))
    return c2, s2, np.sqrt(c2), s


# --- batch density-matrix route --------------------------------------------

# Axes of the (A, B, Bbar, n) vectors that put each bipartition's kept
# modes first, its traced mode next and the stack width last.
_FACTOR_AXES = {Pair.AB: (0, 1, 2, 3), Pair.ABBAR: (0, 2, 1, 3), Pair.BBBAR: (1, 2, 0, 3)}


def _state_vectors(c, s, vacuum):
    """Three-mode vectors (c|000> + s|011> + vacuum|110>)/sqrt(2), one per column of an (8, n) array.

    The amplitudes are real, so the stack is float64, and so are the
    factors, reduced states and tangents built from it.
    """
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    v = np.zeros((8, c.shape[0]))
    v[0] = c * inv_sqrt2
    v[3] = s * inv_sqrt2
    v[6] = vacuum * inv_sqrt2
    return v


def _factor(v, pair: Pair):
    """(4, 2, n) factors M of (8, n) real vectors v, with tr_traced |v><v| = M M^T per column."""
    return v.reshape(2, 2, 2, -1).transpose(_FACTOR_AXES[pair]).reshape(4, 2, -1)


def _gram(m, k):
    """(4, 4, n) products m k^T of two (4, 2, n) real factors, column by column."""
    return m[:, None, 0] * k[None, :, 0] + m[:, None, 1] * k[None, :, 1]


def _reduced_states(c, s, pair: Pair):
    """(4, 2, n) factors M of `pair`'s (c, s) states and their (4, 4, n) reduced states M M^T."""
    m = _factor(_state_vectors(c, s, 1.0), pair)
    return m, _gram(m, m)


def _xparams(rho4):
    """The six X parameters (d11, d22, d33, d44, |c14|, |c23|) of (4, 4, n) real states, as rows."""
    return rho4[0, 0], rho4[1, 1], rho4[2, 2], rho4[3, 3], np.abs(rho4[0, 3]), np.abs(rho4[1, 2])


def pipeline_measure_arrays(c: np.ndarray, s: np.ndarray, pair: Pair) -> dict:
    """Density-matrix-route measures of one bipartition, vectorized.

    The reduced states are M M^T of the real 4x2 factors M, and
    `concurrence` is the spin-flip value of M itself; `bell_max` is the
    correlation-matrix value; the steerabilities and the branch values
    come from the extracted X parameters.
    """
    m, rho4 = _reduced_states(c, s, pair)
    s_fwd, s_bwd, b1, b2, _ = kernels.xstate_measures(*_xparams(rho4))
    return {
        "s_forward": s_fwd,
        "s_backward": s_bwd,
        "concurrence": kernels.pair_gap(m[:, 0], m[:, 1]),
        "bell_branch1": b1,
        "bell_branch2": b2,
        "bell_max": kernels.chsh_max(rho4),
    }


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
    b1, b2 = kernels.bell_branches(*closed_xparams(c2, s2, c, s, pair))
    return {
        "s_forward": s_fwd,
        "s_backward": s_bwd,
        "bell_max": np.maximum(b1, b2),
        "bell_branch1": b1,
        "bell_branch2": b2_printed,
        "concurrence": conc,
        "asymmetry": np.abs(s_fwd - s_bwd),
    }


def _dilaton_at(mass, omega, x):
    """The dilaton D = M - x/(8 pi omega) at thermal arguments x, elementwise; -inf only where D overflows.

    The scale 1/(8 pi omega) is used where it and 8 pi omega are normal floats (8.9e-310 <
    omega < 1.8e306) and x times it is finite; elsewhere D = 2 (M/2 - (x/(16 pi))/omega).
    """
    with np.errstate(over="ignore"):
        scale = 1.0 / (8.0 * np.pi * omega)
        d = mass - x * scale
        kept = (_TINY <= scale) & (scale <= 2.0**1022) & np.isfinite(d)
        return np.where(kept, d, 2.0 * (0.5 * mass - x / (16.0 * np.pi) / omega))


def critical_dilatons(mass: float, omegas) -> dict:
    """Closed-form critical dilatons, in the shape `find_critical_batch` gives.

    Returns {"d0": D, "d1": D, "d2": D}, arrays aligned with `omegas`: d0
    the birth of the backward Alice/interior-partner steering, d1 the peak
    and d2 the death of the Bob/interior-partner steering. Always d1 < d0
    < d2 < mass; a value is in the model's range where 0 <= D < mass, and
    drops below 0 for small omega*mass. Raises ConfigError as
    `check_mass_and_omegas`.
    """
    omegas = np.asarray(omegas, dtype=np.float64)
    check_mass_and_omegas(mass, omegas)
    d0, d1, d2 = _dilaton_at(mass, omegas, np.array([[X_BIRTH], [X_PEAK], [X_DEATH]]))
    return {"d0": d0, "d1": d1, "d2": d2}


# Steerability below this counts as "not witnessed" when classifying regimes.
STEERING_ZERO_THRESHOLD = 1e-12
# Regime labels in the order of 2 * (forward witnessed) + (backward
# witnessed). "no_way" means no steering was witnessed in either
# direction, not a proof that the state is unsteerable.
REGIMES = ("no_way", "one_way_bwd", "one_way_fwd", "two_way")


def regime_index(s_forward, s_backward):
    """Position in `REGIMES` of the witnessed directions; elementwise on arrays."""
    return 2 * (s_forward > STEERING_ZERO_THRESHOLD) + (s_backward > STEERING_ZERO_THRESHOLD)


def regime_intervals(mass: float, omegas, pair: Pair) -> list:
    """Maximal runs (regime, lo, hi) of `pair`'s `sweep` label over D in [0, mass).

    One list per frequency, aligned with `omegas`; raises ConfigError as `check_mass_and_omegas`.
    """
    def label(x):
        closed = closed_measure_arrays(*_mixing(x), pair)
        return regime_index(closed["s_forward"], closed["s_backward"])

    omegas = np.asarray(omegas, dtype=np.float64)
    check_mass_and_omegas(mass, omegas)
    # A label depends on x alone. It changes near x = 0.312 and 0.549 (X_DEATH, X_BIRTH)
    # and 26.77, where a steerability crosses the threshold: past x = -ln(1e-12) ~ 27.6 every
    # abbar and bbbar steerability is <= s^2 <= e^{-x}, below it, and ab is two-way at every x.
    xs, below = _flips(label, np.arange(1025) / 16.0)  # steps of 1/16 on [0, 64] bracket each change alone
    xs, below = xs[::-1], below[::-1]  # descending x is ascending D
    found = []
    # A list starts with the label at D = 0, from x as `sweep` computes it (maybe inf);
    # past a change, D takes the label below it in x.
    for omega, start in zip(omegas, label(_thermal_argument(mass, omegas, 0.0))):
        edges, names = [0.0], [REGIMES[start]]
        for d, after in zip(_dilaton_at(mass, omega, xs), below):
            if 0.0 < d < mass and REGIMES[after] != names[-1]:
                edges.append(float(d))
                names.append(REGIMES[after])
        found.append(list(zip(names, edges, edges[1:] + [mass])))
    return found


# --- numeric critical dilatons ---------------------------------------------

# Absolute gate on a numeric critical dilaton. The search refuses
# parameters at which float64 cannot place D this finely.
CRITICAL_TOL = 1e-6
# Largest thermal argument searched: every critical point sits below 2,
# while deep in the near-vacuum regime the witness margins fall below
# rounding noise and their sign means nothing.
_SEARCH_TOP = 5.0


class ResolutionError(ValueError):
    """float64 cannot resolve a critical dilaton to CRITICAL_TOL."""


class _Dual:
    """A value with its derivative, for `kernels.witness_margins`.

    It supports what those polynomials use: dual +- dual, -dual, and dual * (dual or scalar).
    """

    __slots__ = ("val", "der")

    def __init__(self, val, der):
        self.val = val
        self.der = der

    def __add__(self, other):
        return _Dual(self.val + other.val, self.der + other.der)

    def __neg__(self):
        return _Dual(-self.val, -self.der)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.val * other.val, self.der * other.val + self.val * other.der)
        return _Dual(self.val * other, self.der * other)

    __rmul__ = __mul__


def _margin(x, pair: Pair, backward: bool):
    """Larger witness margin of `pair` at thermal arguments x, on the batch route."""
    fwd, bwd = kernels.witness_margins(*_xparams(_reduced_states(*_mixing(x)[2:], pair)[1]))
    return np.maximum(*(bwd if backward else fwd))


def _forward_margin_slope(x, pair: Pair):
    """d/dx of the larger forward witness margin of `pair` at thermal arguments x.

    Forward mode through the batch route itself: the reduced state is
    M M^T with the factor M linear in (c, s, 1), so its tangent is
    dM M^T + M dM^T; the margins are polynomials in the X parameters,
    evaluated on `_Dual` numbers.
    """
    c2, s2, c, s = _mixing(x)
    m, rho4 = _reduced_states(c, s, pair)
    # dc/dx and ds/dx, from dc^2/dx = c^2 s^2 = -ds^2/dx.
    dm = _factor(_state_vectors(0.5 * c * s2, -0.5 * s * c2, 0.0), pair)
    drho4 = _gram(dm, m) + _gram(m, dm)
    params = _xparams(rho4)
    tangents = [drho4[i, i] for i in range(4)]
    for modulus, (i, j) in zip(params[4:], ((0, 3), (1, 2))):
        # d|z| = z dz / |z|, and 0 where z = 0 (|z|^2 is flat there).
        num = rho4[i, j] * drho4[i, j]
        tangents.append(np.divide(num, modulus, out=np.zeros_like(num), where=modulus > 0.0))
    (w1, w2), _ = kernels.witness_margins(*map(_Dual, params, tangents))
    return np.where(w1.val >= w2.val, w1.der, w2.der)


def _flips(f, grid):
    """Points where `f` changes value along the ascending `grid`, and f's value below each.

    Every adjacent pair of grid points whose values differ is a bracket; all of
    them halve in lockstep until lo and hi are adjacent floats, when the midpoint
    equals an endpoint: about 55 steps on (0, 5]. Returns the
    final midpoints, ascending, and f at the low end of their brackets.
    """
    values = f(grid)
    k = np.flatnonzero(values[1:] != values[:-1])
    below, lo, hi = values[k], grid[k], grid[k + 1]
    while True:
        mid = 0.5 * (lo + hi)
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            return mid, below
        up = inside & (f(mid) == below)
        lo = np.where(up, mid, lo)
        hi = np.where(inside & ~up, mid, hi)


def find_critical_batch(mass: float, omegas) -> dict:
    """Critical dilatons d0, d1, d2 from the density-matrix route, for many frequencies.

    Returns {"d0": D, "d1": D, "d2": D}, arrays aligned with `omegas`.
    The margins depend on the thermal argument x alone, so each root is
    searched once in x on [0, 5] and maps to every frequency with
    D = M - x/(8 pi omega); it is NaN at a frequency where that D falls
    outside 0 <= D < M, the rule by which a closed value is in range:
    - x0 bisects the sign of the Alice/interior-partner backward witness
      margin, x2 that of the Bob/interior-partner forward margin (the
      steerability is exactly zero on one side, so the unclamped margin
      carries the sign change);
    - x1 bisects the sign of the x-derivative of the Bob/interior-partner
      forward margin on [x2, 5], carried exactly through the route
      (`_forward_margin_slope`).
    Nothing is taken from the closed forms in `critical_dilatons`.

    Raises ConfigError as `check_mass_and_omegas`, and ResolutionError
    when float64 cannot place a root found to CRITICAL_TOL: past a mass
    of about 1e9 the spacing of the floats near M alone exceeds the gate.
    """
    omegas = np.asarray(omegas, dtype=np.float64)
    check_mass_and_omegas(mass, omegas)
    # x in [0, 5] is D in [M - 5/(8 pi omega), M]. Its bottom, the D -> M limit where every
    # margin has a clear sign, brackets a critical dilaton however close to M.
    search = np.array([0.0, _SEARCH_TOP])
    (x0,), _ = _flips(lambda x: _margin(x, Pair.ABBAR, backward=True) > 0.0, search)
    (x2,), _ = _flips(lambda x: _margin(x, Pair.BBBAR, backward=False) > 0.0, search)
    (x1,), _ = _flips(lambda x: _forward_margin_slope(x, Pair.BBBAR) > 0.0, np.array([x2, _SEARCH_TOP]))
    roots = np.array([[x0], [x1], [x2]])
    d = _dilaton_at(mass, omegas, roots)
    # The range rule `critical` applies to the closed values, so both sides agree on it.
    in_range = (0.0 <= d) & (d < mass)
    x = np.where(in_range, roots, np.nan)
    # Four times the spacing near M (the subtraction) plus the spacing dx near x mapped to D,
    # dx/(8 pi omega) = D(M = 0, x = -dx) (the root in x); NaN where x is NaN. Over 62 000
    # roots with M from 1e-12 to 1e12, |numeric - closed form| was at most 2.6 such spacings.
    resolution = 4.0 * (math.ulp(mass) + _dilaton_at(0.0, omegas, -np.spacing(x)))
    bad = np.argwhere(resolution > CRITICAL_TOL)
    if bad.size:
        i, k = bad[0]
        raise ResolutionError(
            f"dilaton resolution {resolution[i, k]:.2g} at mass={mass:g}, omega={omegas[k]:g} "
            f"is coarser than the {CRITICAL_TOL:g} critical-point gate: float64 cannot "
            f"place d{i} more finely"
        )
    d0, d1, d2 = np.where(in_range, d, np.nan)
    return {"d0": d0, "d1": d1, "d2": d2}


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
