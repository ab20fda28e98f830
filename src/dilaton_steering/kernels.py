"""Batch kernels for the hot numeric paths, in numpy.

`xstate_measures`, `spinflip_concurrence` and `chsh_max` take stacked
float64/complex128 arrays and perform no validation; validated
single-state entry points live in `measures`. `l_triple` and
`witness_margins` are plain arithmetic, so `measures` calls them with
floats and `xstate_measures` with arrays: the scalar and batch
steering witnesses share one definition.
"""

from __future__ import annotations

import math

import numpy as np

SQRT3 = math.sqrt(3.0)
# Steerability scale that puts the maximally entangled state at 1.
STEER_SCALE = 8.0 / SQRT3
_LA_SMALL = 0.5 * (2.0 - SQRT3)
_LA_BIG = 0.5 * (2.0 + SQRT3)

# sigma_y (x) sigma_y: the two-qubit spin flip is real in the computational basis.
SPIN_FLIP = np.zeros((4, 4), dtype=np.complex128)
SPIN_FLIP[0, 3] = SPIN_FLIP[3, 0] = -1.0
SPIN_FLIP[1, 2] = SPIN_FLIP[2, 1] = 1.0
SPIN_FLIP.setflags(write=False)

_SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULI_KRON = np.stack([np.kron(a, b) for a in (_SX, _SY, _SZ) for b in (_SX, _SY, _SZ)])
PAULI_KRON.setflags(write=False)


def l_triple(d11, d22, d33, d44):
    """Quadratic diagonal combinations (la, lb, lc) of the steering witness."""
    cross = 0.25 * (d11 + d44) * (d22 + d33)
    p14 = d11 * d44
    p23 = d22 * d33
    return (
        _LA_SMALL * p14 + _LA_BIG * p23 + cross,
        0.25 * (d11 - d44) * (d22 - d33),
        _LA_BIG * p14 + _LA_SMALL * p23 + cross,
    )


def witness_margins(d11, d22, d33, d44, a14, a23):
    """Unclamped steering-witness margins in both directions.

    a14 and a23 are coherence moduli. Returns ((w1, w2) forward,
    (w1, w2) backward), forward meaning the first qubit steers the
    second; steering is witnessed where either margin is positive.
    """
    la, lb, lc = l_triple(d11, d22, d33, d44)
    q14 = a14 * a14
    q23 = a23 * a23
    return (q14 - la - lb, q23 - lc - lb), (q14 - la + lb, q23 - lc + lb)


def xstate_measures(d11, d22, d33, d44, a14, a23):
    """Closed-form X-state measures for stacked parameters.

    a14 and a23 are coherence moduli. Returns five arrays:
    (steer_forward, steer_backward, bell_branch1, bell_branch2, concurrence),
    with forward meaning the first qubit steers the second.
    """
    fwd, bwd = witness_margins(d11, d22, d33, d44, a14, a23)
    s_fwd = np.maximum(0.0, STEER_SCALE * np.maximum(*fwd))
    s_bwd = np.maximum(0.0, STEER_SCALE * np.maximum(*bwd))
    k1 = 4.0 * (a14 + a23) ** 2
    k2 = 4.0 * (a14 - a23) ** 2
    k3 = (d11 - d22 - d33 + d44) ** 2
    b1 = 2.0 * np.sqrt(k1 + k2)
    b2 = 2.0 * np.sqrt(k1 + k3)
    conc = 2.0 * np.maximum(0.0, np.maximum(a14 - np.sqrt(d22 * d33), a23 - np.sqrt(d11 * d44)))
    return s_fwd, s_bwd, b1, b2, conc


# Spectral weights of rho below _EIG_CLIP * (largest eigenvalue) are zeroed
# before taking the matrix square root; they are indistinguishable from 0 at
# working precision and their roots would otherwise inject sqrt(eps) noise.
_EIG_CLIP = 64.0 * np.finfo(np.float64).eps


def spinflip_concurrence(rhos):
    """Spin-flip concurrence for a stack of 4x4 density matrices.

    The flipped-overlap spectrum is obtained as the singular values of
    L^T F L with rho = L L^dagger, which keeps relative precision where
    the eigenvalues of rho (F rho* F) pass through zero.
    """
    e, v = np.linalg.eigh(rhos)
    e = np.where(e < _EIG_CLIP * e[:, -1:], 0.0, e)
    ell = v * np.sqrt(e)[:, None, :]
    a = np.swapaxes(ell, 1, 2) @ SPIN_FLIP @ ell
    lam = np.linalg.svd(a, compute_uv=False)
    return np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])


def chsh_max(rhos):
    """Maximal CHSH signal for a stack of 4x4 density matrices.

    Builds the 3x3 correlation matrix T of each state and returns
    2*sqrt of the sum of the two largest eigenvalues of T^T T.
    """
    t = np.einsum("nab,kba->nk", rhos, PAULI_KRON).real.reshape(-1, 3, 3)
    k = np.einsum("nij,nik->njk", t, t)
    ev = np.linalg.eigvalsh(k)
    return 2.0 * np.sqrt(np.maximum(0.0, ev[:, 1] + ev[:, 2]))
