"""Physics the benchmark computes on its own, apart from the program.

Nothing here imports `dilaton_steering`. The mode family is rebuilt from
its definition: the three-mode state (c|000> + s|011> + |110>)/sqrt(2)
with c^2 = 1/(1 + e^-x), s^2 = 1 - c^2 and x = 8 pi (M - D) omega. The
critical dilatons are found by bisection on their defining conditions,
and the two-qubit measures use the textbook definitions: Wootters'
R-matrix concurrence (PRL 80, 2245, 1998) and the Horodecki CHSH
criterion (Phys. Lett. A 200, 340, 1995).
"""

from __future__ import annotations

import math

import numpy as np

INV_SQRT3 = 1.0 / math.sqrt(3.0)
STEERING_ZERO = 1e-12
DEFAULT_OMEGAS = (0.5, 1.0, 1.5, 2.0)
PAIRS = ("ab", "abbar", "bbbar")
PAIR_FIELDS = (
    "s_forward",
    "s_backward",
    "bell_max",
    "bell_branch2",
    "concurrence",
    "asymmetry",
    "regime",
)


def thermal_x(mass, omega, dilaton):
    return 8.0 * np.pi * (mass - np.asarray(dilaton, dtype=np.float64)) * omega


def amplitudes(x):
    """(c^2, s^2) of the mode mixing at thermal argument x."""
    u = np.exp(-np.asarray(x, dtype=np.float64))
    return 1.0 / (1.0 + u), u / (1.0 + u)


def _bisect(f, lo, hi):
    """Root of a function that changes sign once on [lo, hi], to the last bit."""
    flo = f(lo)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        fm = f(mid)
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid


def critical_x():
    """Thermal arguments (x0, x1, x2) of the three critical dilatons.

    x0: birth of the backward exterior/interior steering, s^2/c^2 = 1/sqrt3.
    x1: maximum of the horizon-pair steering s^2 (c^2 - 1/sqrt3), found as
        the zero of its derivative in u = e^-x, which is
        (1 - u)/(1 + u)^3 - (1/sqrt3)/(1 + u)^2.
    x2: death of the horizon-pair steering, c^2 = 1/sqrt3.
    """
    x0 = _bisect(lambda x: math.exp(-x) - INV_SQRT3, 0.0, 10.0)
    x2 = _bisect(lambda x: 1.0 / (1.0 + math.exp(-x)) - INV_SQRT3, 0.0, 10.0)
    u1 = _bisect(lambda u: (1.0 - u) / (1.0 + u) ** 3 - INV_SQRT3 / (1.0 + u) ** 2, 0.0, 1.0)
    return x0, -math.log(u1), x2


def critical_dilatons(mass, omega):
    """(d0, d1, d2) at this mass and frequency; d = M - x / (8 pi omega)."""
    scale = 1.0 / (8.0 * math.pi * omega)
    return tuple(mass - x * scale for x in critical_x())


def dilaton_grid(mass, points):
    """The CLI's default grid: `points` values on [0, M (1 - 1e-6)]."""
    return np.linspace(0.0, mass * (1.0 - 1e-6), points)


def sweep_header(pairs):
    cols = ["omega", "dilaton", "x"]
    for pair in PAIRS:
        if pair in pairs:
            cols.extend(f"{pair}_{name}" for name in PAIR_FIELDS)
    return cols + ["r1", "r2", "r3", "r4", "r3_valid", "r4_valid"]


# --- two-qubit states and textbook measures ---------------------------------

_KEEP = {"ab": (0, 1), "abbar": (0, 2), "bbbar": (1, 2)}
_SY = np.array([[0, -1j], [1j, 0]])
_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex), _SY, np.diag([1.0, -1.0]).astype(complex))


def reduced_state(c, s, pair):
    """4x4 reduced state of one bipartition, traced out by explicit sums."""
    psi = np.zeros((2, 2, 2), dtype=complex)
    psi[0, 0, 0] = c / math.sqrt(2.0)
    psi[0, 1, 1] = s / math.sqrt(2.0)
    psi[1, 1, 0] = 1.0 / math.sqrt(2.0)
    keep = _KEEP[pair]
    gone = ({0, 1, 2} - set(keep)).pop()
    rho = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            acc = 0.0
            for k in range(2):
                left = [0, 0, 0]
                right = [0, 0, 0]
                left[keep[0]], left[keep[1]], left[gone] = i >> 1, i & 1, k
                right[keep[0]], right[keep[1]], right[gone] = j >> 1, j & 1, k
                acc += psi[tuple(left)] * np.conj(psi[tuple(right)])
            rho[i, j] = acc
    return rho


def _sqrtm_psd(m):
    e, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(e, 0.0, None))) @ v.conj().T


def wootters_concurrence(rho):
    """max(0, l1 - l2 - l3 - l4), l the eigenvalues of R = sqrt(sqrt(rho) rho~ sqrt(rho))."""
    flip = np.kron(_SY, _SY)
    tilde = flip @ rho.conj() @ flip
    root = _sqrtm_psd(rho)
    lam = np.sort(np.sqrt(np.clip(np.linalg.eigvalsh(root @ tilde @ root), 0.0, None)))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def horodecki_chsh(rho):
    """2 sqrt(m1 + m2), m1 >= m2 the largest eigenvalues of T^T T, T_ij = Tr(rho si x sj)."""
    t = np.array([[np.trace(rho @ np.kron(a, b)).real for b in _PAULI] for a in _PAULI])
    m = np.sort(np.linalg.eigvalsh(t.T @ t))
    return 2.0 * math.sqrt(max(0.0, m[-1] + m[-2]))


def closed_concurrence(c, s, pair):
    """The paper's closed concurrences: c, s and c s for ab, abbar and bbbar."""
    return {"ab": c, "abbar": s, "bbbar": c * s}[pair]
