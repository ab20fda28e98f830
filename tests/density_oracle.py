"""Validated density-matrix reference for the tests.

Exact density-matrix arithmetic for one to three qubits, on small
validated complex matrices: the model's three-mode state built as a
projector, its two-mode reductions by partial tracing, and the steering
witness state. The package's batch route builds each reduced state as
M M^dagger of a 4x2 factor instead; the tests compare the two. Nothing
here is imported by the package.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass

import numpy as np

from dilaton_steering.dilaton import ConfigError, Pair, amplitude_arrays, check_mass_and_omegas
from dilaton_steering.kernels import SQRT3

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_EIGENVALUE_FLOOR = -1e-10
X_STRUCTURE_TOL = 1e-10
COHERENCE_TOL = 1e-12

_ALLOWED_DIMS = (2, 4, 8)

# Entries a 4x4 matrix may populate and still be an X state.
_X_POSITIONS = frozenset(
    {(0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1)}
)


class StateValidationError(ValueError):
    """An input violates a density-matrix or state-vector invariant."""


class XStructureError(StateValidationError):
    """A 4x4 matrix carries weight outside the X pattern."""


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix for 1, 2, or 3 qubits.

    Entries must be finite. Hermiticity and unit trace are enforced
    within 1e-12 and positive semidefiniteness down to an eigenvalue
    floor of -1e-10. The stored array is read-only, so instances are
    safe to share between threads.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StateValidationError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] not in _ALLOWED_DIMS:
            raise StateValidationError(
                f"dimension {m.shape[0]} unsupported, must be one of {_ALLOWED_DIMS}"
            )
        if not np.isfinite(m).all():
            raise StateValidationError("matrix has a non-finite entry")
        herm_dev = np.abs(m - m.conj().T).max()
        if herm_dev > HERMITICITY_TOL:
            raise StateValidationError(f"matrix is not Hermitian (max deviation {herm_dev:.3e})")
        tr = m.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise StateValidationError(f"trace must be 1, got {tr.real:.17g}")
        min_eig = np.linalg.eigvalsh(m)[0]
        if min_eig < PSD_EIGENVALUE_FLOOR:
            raise StateValidationError(
                f"matrix is not positive semidefinite (min eigenvalue {min_eig:.3e})"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def purity(self) -> float:
        return float((self.matrix @ self.matrix).trace().real)


@dataclass(frozen=True)
class PureState:
    """State vector with unit 2-norm, for 1, 2, or 3 qubits."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.array(self.amplitudes, dtype=np.complex128).ravel()
        if v.shape[0] not in _ALLOWED_DIMS:
            raise StateValidationError(
                f"dimension {v.shape[0]} unsupported, must be one of {_ALLOWED_DIMS}"
            )
        if not np.isfinite(v).all():
            raise StateValidationError("amplitudes have a non-finite entry")
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > TRACE_TOL:
            raise StateValidationError(f"amplitudes must have unit norm, got {norm:.17g}")
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class XState:
    """Two-qubit state with support on the diagonal and anti-diagonal only.

    Parameters are the four diagonal probabilities d11..d44 and the two
    independent coherences: c14 couples |00> with |11>, c23 couples |01>
    with |10>. Coherences may be complex; every measure in this package
    depends on their moduli only.
    """

    d11: float
    d22: float
    d33: float
    d44: float
    c14: complex = 0.0
    c23: complex = 0.0

    def __post_init__(self):
        diag = (self.d11, self.d22, self.d33, self.d44)
        if not np.isfinite(np.array(diag + (self.c14, self.c23), dtype=np.complex128)).all():
            raise StateValidationError("X-state parameters have a non-finite entry")
        if min(diag) < PSD_EIGENVALUE_FLOOR:
            raise StateValidationError(f"negative probability {min(diag):.3e}")
        if abs(sum(diag) - 1.0) > TRACE_TOL:
            raise StateValidationError(f"probabilities sum to {sum(diag):.17g}, expected 1")
        if abs(self.c14) ** 2 > self.d11 * self.d44 + COHERENCE_TOL:
            raise StateValidationError(
                f"|c14|^2 = {abs(self.c14) ** 2:.3e} exceeds d11*d44 = {self.d11 * self.d44:.3e}"
            )
        if abs(self.c23) ** 2 > self.d22 * self.d33 + COHERENCE_TOL:
            raise StateValidationError(
                f"|c23|^2 = {abs(self.c23) ** 2:.3e} exceeds d22*d33 = {self.d22 * self.d33:.3e}"
            )

    def to_matrix(self) -> DensityMatrix:
        """Rebuild the 4x4 density matrix carrying these six parameters."""
        m = np.zeros((4, 4), dtype=np.complex128)
        m[0, 0], m[1, 1], m[2, 2], m[3, 3] = self.d11, self.d22, self.d33, self.d44
        m[0, 3] = self.c14
        m[3, 0] = np.conj(self.c14)
        m[1, 2] = self.c23
        m[2, 1] = np.conj(self.c23)
        return DensityMatrix(m)


def from_pure(v: PureState) -> DensityMatrix:
    """Rank-1 projector onto a pure state."""
    return DensityMatrix(np.outer(v.amplitudes, v.amplitudes.conj()))


def partial_trace(m: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every qubit not listed in `keep`.

    Parameters
    ----------
    m : DensityMatrix
        State over n qubits; qubit 0 is the leftmost tensor factor.
    keep : sequence of int
        Ordered, nonempty strict subset of {0..n-1}. The output qubit
        order follows the order given here.
    """
    n = m.n_qubits
    keep = tuple(int(q) for q in keep)
    if not keep:
        raise ValueError("keep must name at least one qubit")
    if len(set(keep)) != len(keep):
        raise ValueError(f"keep contains repeated qubit indices: {keep}")
    if any(q < 0 or q >= n for q in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} qubit(s)")
    if len(keep) == n:
        raise ValueError("keep must be a strict subset of the qubits")

    row = list(string.ascii_lowercase[:n])
    col = list(string.ascii_lowercase[n : 2 * n])
    for q in range(n):
        if q not in keep:
            col[q] = row[q]
    out = [row[q] for q in keep] + [col[q] for q in keep]
    subscripts = "".join(row) + "".join(col) + "->" + "".join(out)
    k = len(keep)
    reduced = np.einsum(subscripts, m.matrix.reshape((2,) * (2 * n)))
    return DensityMatrix(reduced.reshape(2**k, 2**k))


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Tensor product of two density matrices."""
    return DensityMatrix(np.kron(a.matrix, b.matrix))


def as_xstate(m: DensityMatrix) -> XState:
    """Extract the six X parameters of a 4x4 density matrix.

    Raises XStructureError, naming the offending entry in 1-based row
    and column labels, if any off-pattern entry exceeds 1e-10 in modulus.
    """
    if m.dim != 4:
        raise ValueError(f"as_xstate needs a two-qubit state, got dimension {m.dim}")
    a = m.matrix
    for i in range(4):
        for j in range(4):
            if (i, j) not in _X_POSITIONS and abs(a[i, j]) > X_STRUCTURE_TOL:
                raise XStructureError(
                    f"entry ({i + 1},{j + 1}) has modulus {abs(a[i, j]):.3e}, "
                    f"above the X-structure tolerance {X_STRUCTURE_TOL:g}"
                )
    return XState(
        d11=a[0, 0].real,
        d22=a[1, 1].real,
        d33=a[2, 2].real,
        d44=a[3, 3].real,
        c14=complex(a[0, 3]),
        c23=complex(a[1, 2]),
    )


# Modes kept by the partial trace down to each bipartition.
PAIR_MODES = {Pair.AB: (0, 1), Pair.ABBAR: (0, 2), Pair.BBBAR: (1, 2)}


def tripartite_state(mass, dilaton, omega) -> DensityMatrix:
    """Pure three-mode state in the ordering (Alice, Bob, interior partner).

    Requires 0 <= dilaton < mass and a positive, finite mass and
    frequency (ConfigError otherwise).
    """
    check_mass_and_omegas(mass, [omega])
    if not (0.0 <= dilaton < mass):
        raise ConfigError(f"dilaton must satisfy 0 <= D < M, got D={dilaton}, M={mass}")
    _, _, _, c, s = amplitude_arrays(mass, omega, [dilaton])
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    v = np.zeros(8, dtype=np.complex128)
    v[0] = c[0] * inv_sqrt2  # |000>
    v[3] = s[0] * inv_sqrt2  # |011>
    v[6] = inv_sqrt2  # |110>
    return from_pure(PureState(v))


def reduced(mass, dilaton, omega, pair: Pair) -> XState:
    """Two-mode reduced state of the chosen bipartition, in X form."""
    return as_xstate(partial_trace(tripartite_state(mass, dilaton, omega), PAIR_MODES[pair]))


def steering_witness_matrix(m: DensityMatrix, backward: bool) -> DensityMatrix:
    """Witness state whose entanglement certifies steering, forward or backward.

    Forward means the first qubit steers the second. The state is a
    fixed convex mixture of the input with one marginal padded by white
    noise on the other side, so it is always a valid density matrix; it
    is entangled exactly when the witness margins of that direction are
    positive.
    """
    if m.dim != 4:
        raise ValueError(f"witness needs a two-qubit state, got dimension {m.dim}")
    half_identity = DensityMatrix(0.5 * np.eye(2))
    if backward:
        padded = tensor(partial_trace(m, (0,)), half_identity)
    else:
        padded = tensor(half_identity, partial_trace(m, (1,)))
    mix = m.matrix / SQRT3 + ((3.0 - SQRT3) / 3.0) * padded.matrix
    return DensityMatrix(mix)
