"""Fermionic mode family outside a GHS dilaton black hole.

Two observers share a maximally entangled fermion pair far from the
hole; one then hovers near the horizon, where the Hawking effect mixes
that mode with its partner behind the horizon. Every quantity of the
resulting three-mode pure state is a function of the thermal argument
x = 8*pi*(M - D)*omega, with mass M, dilaton charge D < M, and mode
frequency omega (geometric units).

Each bipartition's measures come in two routes that must agree to
1e-10. The closed-form route (`closed_measure_arrays`) evaluates the
analytic expressions in x. The batch density-matrix route
(`pipeline_measure_arrays`) stacks the three-mode state vectors,
reshapes each into the 4x2 factor M of a bipartition, takes its reduced
state as M M^dagger and runs the `kernels`. Both take the amplitudes of
`amplitude_arrays`, one point or a whole grid at a time.

The numeric critical dilatons (`find_critical_batch`) come from a
lockstep search in x on the batch route, independent of the closed
forms in `critical_dilatons`.
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


def amplitude_arrays(mass, omega, dilatons):
    """Vectorized mode-mixing amplitudes over a dilaton grid.

    Returns (x, c^2, s^2, c, s) as float64 arrays. Where x overflows it
    is inf, the right limit: then c = 1 and s = 0.
    """
    with np.errstate(over="ignore"):
        x = 8.0 * np.pi * (mass - np.asarray(dilatons, dtype=np.float64)) * omega
    return (x,) + _mixing(x)


def _mixing(x):
    """(c^2, s^2, c, s) at thermal arguments x, through e^{-x} only."""
    u = np.exp(-x)
    c2 = 1.0 / (1.0 + u)
    s2 = u / (1.0 + u)
    # Where u is subnormal (x > 708.4), s^2 has lost the digits s keeps up to x = 1417.
    s = np.where(u < np.finfo(np.float64).tiny, np.exp(-0.5 * x) / np.sqrt(1.0 + u), np.sqrt(s2))
    return c2, s2, np.sqrt(c2), s


# --- batch density-matrix route --------------------------------------------

# Axes of the stacked (n, A, B, Bbar) vectors that put each bipartition's
# kept modes first and its traced mode last.
_FACTOR_AXES = {Pair.AB: (0, 1, 2, 3), Pair.ABBAR: (0, 1, 3, 2), Pair.BBBAR: (0, 2, 3, 1)}


def _state_vectors(c, s, vacuum):
    """Stacked three-mode vectors (c|000> + s|011> + vacuum|110>)/sqrt(2).

    The amplitudes are real, so the stack is float64, and so are the
    factors, reduced states and tangents built from it: real arithmetic
    gives the bits complex arithmetic gives with a zero imaginary part.
    """
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    v = np.zeros((c.shape[0], 8))
    v[:, 0] = c * inv_sqrt2
    v[:, 3] = s * inv_sqrt2
    v[:, 6] = vacuum * inv_sqrt2
    return v


def _factor(v, pair: Pair):
    """Stacked 4x2 factors M of stacked 8-vectors v, with tr_traced |v><v| = M M^dagger."""
    return v.reshape(-1, 2, 2, 2).transpose(_FACTOR_AXES[pair]).reshape(-1, 4, 2)


def _gram(m, k):
    """Stacked m k^dagger of two stacked 4x2 factors, column by column."""
    return m[:, :, 0, None] * k[:, None, :, 0].conj() + m[:, :, 1, None] * k[:, None, :, 1].conj()


def _xparams(rho4):
    """The six X parameters (d11, d22, d33, d44, |c14|, |c23|) of stacked 4x4 states."""
    d11 = rho4[:, 0, 0].real.copy()
    d22 = rho4[:, 1, 1].real.copy()
    d33 = rho4[:, 2, 2].real.copy()
    d44 = rho4[:, 3, 3].real.copy()
    return d11, d22, d33, d44, np.abs(rho4[:, 0, 3]), np.abs(rho4[:, 1, 2])


def pipeline_measure_arrays(c: np.ndarray, s: np.ndarray, pair: Pair) -> dict:
    """Density-matrix-route measures of one bipartition, vectorized.

    The reduced states are M M^dagger of the 4x2 factors M, and
    `concurrence` is the spin-flip value of M itself; `bell_max` is the
    correlation-matrix value; the steerabilities and the branch values
    come from the extracted X parameters.
    """
    m = _factor(_state_vectors(c, s, 1.0), pair)
    rho4 = _gram(m, m)
    s_fwd, s_bwd, b1, b2, _ = kernels.xstate_measures(*_xparams(rho4))
    return {
        "s_forward": s_fwd,
        "s_backward": s_bwd,
        "bell_max": kernels.chsh_max(rho4),
        "bell_branch1": b1,
        "bell_branch2": b2,
        "concurrence": kernels.pair_gap(m[:, :, 0], m[:, :, 1]),
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


def _dilaton_at(mass, omega, x):
    """The dilaton D = M - x/(8 pi omega) at thermal argument x, elementwise."""
    with np.errstate(over="ignore"):
        return mass - x * (1.0 / (8.0 * np.pi * omega))


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
    return {
        name: _dilaton_at(mass, omegas, x)
        for name, x in (("d0", X_BIRTH), ("d1", X_PEAK), ("d2", X_DEATH))
    }


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
    """A value with its derivative, through + - * only: enough for the witness polynomials."""

    __slots__ = ("val", "der")

    def __init__(self, val, der):
        self.val = val
        self.der = der

    def __add__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.val + other.val, self.der + other.der)
        return _Dual(self.val + other, self.der)

    __radd__ = __add__

    def __neg__(self):
        return _Dual(-self.val, -self.der)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.val * other.val, self.der * other.val + self.val * other.der)
        return _Dual(self.val * other, self.der * other)

    __rmul__ = __mul__


def _margin(x, pair: Pair, backward: bool):
    """Larger witness margin of `pair` at thermal arguments x, on the batch route."""
    _, _, c, s = _mixing(x)
    m = _factor(_state_vectors(c, s, 1.0), pair)
    fwd, bwd = kernels.witness_margins(*_xparams(_gram(m, m)))
    return np.maximum(*(bwd if backward else fwd))


def _forward_margin_slope(x, pair: Pair):
    """d/dx of the larger forward witness margin of `pair` at thermal arguments x.

    Forward mode through the batch route itself: the reduced state is
    M M^dagger with the factor M linear in (c, s, 1), so its tangent is
    dM M^dagger + M dM^dagger; the margins are polynomials in the X
    parameters, evaluated on `_Dual` numbers.
    """
    c2, s2, c, s = _mixing(x)
    m = _factor(_state_vectors(c, s, 1.0), pair)
    # dc/dx and ds/dx, from dc^2/dx = c^2 s^2 = -ds^2/dx.
    dm = _factor(_state_vectors(0.5 * c * s2, -0.5 * s * c2, 0.0), pair)
    rho4 = _gram(m, m)
    drho4 = _gram(dm, m) + _gram(m, dm)
    params = _xparams(rho4)
    tangents = [drho4[:, i, i].real for i in range(4)]
    for modulus, (i, j) in zip(params[4:], ((0, 3), (1, 2))):
        # d|z| = Re(conj(z) dz) / |z|, and 0 where z = 0 (|z|^2 is flat there).
        num = (rho4[:, i, j].conj() * drho4[:, i, j]).real
        tangents.append(np.divide(num, modulus, out=np.zeros_like(num), where=modulus > 0.0))
    (w1, w2), _ = kernels.witness_margins(*map(_Dual, params, tangents))
    return np.where(w1.val >= w2.val, w1.der, w2.der)


def _halve_brackets(positive, lo, hi, at_lo):
    """Lockstep bisection of where `positive` flips, one bracket per element.

    Each bracket halves until its midpoint equals an endpoint, that is
    until lo and hi are adjacent floats: about 55 steps on (0, 5],
    whatever the mass. Returns the final midpoints.
    """
    while True:
        mid = 0.5 * (lo + hi)
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            return mid
        up = inside & (positive(mid) == at_lo)
        lo = np.where(up, mid, lo)
        hi = np.where(inside & ~up, mid, hi)


def _root(positive, lo, hi):
    """x in [lo, hi] where `positive` flips, elementwise; NaN where it does not."""
    out = np.full(lo.shape, np.nan)
    idx = np.flatnonzero(lo < hi)
    if idx.size:
        at_lo = positive(lo[idx])
        flips = at_lo != positive(hi[idx])
        idx = idx[flips]
        if idx.size:
            out[idx] = _halve_brackets(positive, lo[idx], hi[idx], at_lo[flips])
    return out


def _x_top(mass, omegas):
    """Top of the searched thermal arguments [0, min(5, 8 pi omega M)].

    In D the bracket is [max(0, M - 5/(8 pi omega)), M]. Its bottom x = 0
    is the D -> M limit, where every margin has a clear sign, so a
    critical dilaton closer to M than any fixed width is still bracketed.
    """
    with np.errstate(over="ignore"):
        return np.minimum(_SEARCH_TOP, 8.0 * np.pi * omegas * mass)


def find_critical_batch(mass: float, omegas) -> dict:
    """Critical dilatons d0, d1, d2 from the density-matrix route, for many frequencies.

    Returns {"d0": D, "d1": D, "d2": D}, arrays aligned with `omegas`,
    NaN where the searched bracket holds no root. All frequencies are
    searched at once in the thermal argument x, where the margins depend
    on x alone, and each root maps back with D = M - x/(8 pi omega):
    - d0 bisects the sign of the Alice/interior-partner backward witness
      margin, d2 that of the Bob/interior-partner forward margin (the
      steerability is exactly zero on one side, so the unclamped margin
      carries the sign change);
    - d1 bisects the sign of the x-derivative of the Bob/interior-partner
      forward margin on (x at d2, top of the bracket], carried exactly
      through the route (`_forward_margin_slope`).
    Nothing is taken from the closed forms in `critical_dilatons`.

    Raises ConfigError as `check_mass_and_omegas`, and ResolutionError
    when float64 cannot place a root found to CRITICAL_TOL: past a mass
    of about 1e9 the spacing of the floats near M alone exceeds the gate.
    """
    omegas = np.asarray(omegas, dtype=np.float64)
    check_mass_and_omegas(mass, omegas)
    x_hi = _x_top(mass, omegas)
    zero = np.zeros_like(x_hi)
    x0 = _root(lambda x: _margin(x, Pair.ABBAR, backward=True) > 0.0, zero, x_hi)
    x2 = _root(lambda x: _margin(x, Pair.BBBAR, backward=False) > 0.0, zero, x_hi)
    x1_lo = np.where(np.isnan(x2), 0.0, x2)
    x1 = _root(lambda x: _forward_margin_slope(x, Pair.BBBAR) > 0.0, x1_lo, x_hi)
    found = {}
    for name, x in (("d0", x0), ("d1", x1), ("d2", x2)):
        resolution = _resolution(mass, omegas, x)
        bad = np.flatnonzero(resolution > CRITICAL_TOL)
        if bad.size:
            k = bad[0]
            raise ResolutionError(
                f"dilaton resolution {resolution[k]:.2g} at mass={mass:g}, omega={omegas[k]:g} "
                f"is coarser than the {CRITICAL_TOL:g} critical-point gate: float64 cannot "
                f"place {name} more finely"
            )
        found[name] = _dilaton_at(mass, omegas, x)
    return found


def _resolution(mass, omega, x):
    """Error bound of a dilaton D = M - x/(8 pi omega) found by bisection in x.

    Four times the float64 spacing near M (the subtraction) plus the
    spacing near x mapped to D (the root in x); NaN where x is NaN. Over
    62 000 roots with M from 1e-12 to 1e12, |numeric - closed form| was
    at most 2.6 such spacings.
    """
    with np.errstate(over="ignore"):
        return 4.0 * (np.spacing(mass) + np.spacing(x) / (8.0 * np.pi * omega))


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
