"""Correlation measures for two-qubit states.

Closed-form X-state expressions sit next to general-matrix computations
so that every quantity can be obtained through two independent routes:
the witness-based steerability and branch CHSH formulas work on the six
X parameters, while the spin-flip concurrence and the correlation-matrix
CHSH signal work on the full density matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import kernels
from .density import DensityMatrix, XState, partial_trace, tensor
from .kernels import SQRT3

# Steerability below this counts as "not witnessed" when classifying regimes.
STEERING_ZERO_THRESHOLD = 1e-12


class Direction(Enum):
    """Steering direction on a two-qubit state; A is the first qubit."""

    A_TO_B = "a_to_b"
    B_TO_A = "b_to_a"


class Regime(Enum):
    """Witnessed steering regime; values double as sweep-output labels.

    NO_WAY means no steering was witnessed in either direction, not a
    proof that the state is unsteerable.
    """

    TWO_WAY = "two_way"
    ONE_WAY_FORWARD = "one_way_fwd"
    ONE_WAY_BACKWARD = "one_way_bwd"
    NO_WAY = "no_way"


@dataclass(frozen=True)
class LTriple:
    """Quadratic diagonal combinations entering the steering witness."""

    la: float
    lb: float
    lc: float


@dataclass(frozen=True)
class MeasureSet:
    """Bundle of steering, Bell, and entanglement values for one bipartition.

    `bell` is the maximal CHSH signal; `bell_branch1`/`bell_branch2` are
    the two branch values whose maximum it is (for density-matrix input
    `bell` comes from the correlation matrix instead and agrees with the
    branch maximum to numerical precision).
    """

    s_forward: float
    s_backward: float
    bell: float
    bell_branch1: float
    bell_branch2: float
    concurrence: float
    asymmetry: float
    regime: Regime


class ChshBranches(NamedTuple):
    bell: float
    branch1: float
    branch2: float


def l_triple(s: XState) -> LTriple:
    return LTriple(*kernels.l_triple(s.d11, s.d22, s.d33, s.d44))


def witness_arguments(s: XState, direction: Direction) -> tuple[float, float]:
    """Margins of the two steering-witness inequalities, before clamping.

    A positive value in either slot means steering in `direction` is
    witnessed. The steerability is the clamped, rescaled maximum of the
    two.
    """
    fwd, bwd = kernels.witness_margins(s.d11, s.d22, s.d33, s.d44, abs(s.c14), abs(s.c23))
    return fwd if direction is Direction.A_TO_B else bwd


def steerability(s: XState, direction: Direction) -> float:
    """Witnessed steerability, scaled so the Bell state gives exactly 1."""
    w1, w2 = witness_arguments(s, direction)
    return max(0.0, kernels.STEER_SCALE * max(w1, w2))


def steering_asymmetry(s: XState) -> float:
    """Absolute difference of the two directional steerabilities."""
    return abs(steerability(s, Direction.A_TO_B) - steerability(s, Direction.B_TO_A))


def classify_from_values(
    s_forward: float, s_backward: float, threshold: float = STEERING_ZERO_THRESHOLD
) -> Regime:
    fwd = s_forward > threshold
    bwd = s_backward > threshold
    if fwd and bwd:
        return Regime.TWO_WAY
    if fwd:
        return Regime.ONE_WAY_FORWARD
    if bwd:
        return Regime.ONE_WAY_BACKWARD
    return Regime.NO_WAY


def classify_steering(s: XState, threshold: float = STEERING_ZERO_THRESHOLD) -> Regime:
    """Steering regime of an X state at the given zero threshold."""
    return classify_from_values(
        steerability(s, Direction.A_TO_B), steerability(s, Direction.B_TO_A), threshold
    )


def _xstate_row(s: XState) -> list:
    """The five `kernels.xstate_measures` values of one X state, as floats."""
    params = (s.d11, s.d22, s.d33, s.d44, abs(s.c14), abs(s.c23))
    return [float(v[0]) for v in kernels.xstate_measures(*(np.array([p]) for p in params))]


def concurrence_x(s: XState) -> float:
    """Concurrence of an X state from its six parameters."""
    return _xstate_row(s)[4]


def concurrence_general(m: DensityMatrix) -> float:
    """Spin-flip concurrence of an arbitrary two-qubit density matrix.

    Independent of the X-state formula; the two agree on X states to
    numerical precision.
    """
    if m.dim != 4:
        raise ValueError(f"concurrence needs a two-qubit state, got dimension {m.dim}")
    rho = np.ascontiguousarray(m.matrix, dtype=np.complex128)
    return float(kernels.spinflip_concurrence(rho[None, :, :])[0])


def chsh_max_x(s: XState) -> ChshBranches:
    """Maximal CHSH signal of an X state together with its two branches."""
    _, _, b1, b2, _ = _xstate_row(s)
    return ChshBranches(max(b1, b2), b1, b2)


def chsh_max_general(m: DensityMatrix) -> float:
    """Maximal CHSH signal from the correlation matrix of any two-qubit state."""
    if m.dim != 4:
        raise ValueError(f"CHSH needs a two-qubit state, got dimension {m.dim}")
    rho = np.ascontiguousarray(m.matrix, dtype=np.complex128)
    return float(kernels.chsh_max(rho[None, :, :])[0])


def steering_witness_matrix(m: DensityMatrix, direction: Direction) -> DensityMatrix:
    """Witness state whose entanglement certifies steering in `direction`.

    The state is a fixed convex mixture of the input with one marginal
    padded by white noise on the other side, so it is always a valid
    density matrix; it is entangled exactly when the witness margins are
    positive.
    """
    if m.dim != 4:
        raise ValueError(f"witness needs a two-qubit state, got dimension {m.dim}")
    half_identity = DensityMatrix(0.5 * np.eye(2))
    if direction is Direction.B_TO_A:
        padded = tensor(partial_trace(m, (0,)), half_identity)
    else:
        padded = tensor(half_identity, partial_trace(m, (1,)))
    mix = m.matrix / SQRT3 + ((3.0 - SQRT3) / 3.0) * padded.matrix
    return DensityMatrix(mix)


def measure_xstate(s: XState) -> MeasureSet:
    """All closed-form measures of one X state, bundled."""
    fwd, bwd, b1, b2, conc = _xstate_row(s)
    return MeasureSet(
        s_forward=fwd,
        s_backward=bwd,
        bell=max(b1, b2),
        bell_branch1=b1,
        bell_branch2=b2,
        concurrence=conc,
        asymmetry=abs(fwd - bwd),
        regime=classify_from_values(fwd, bwd),
    )
