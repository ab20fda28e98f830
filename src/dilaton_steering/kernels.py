"""Batch kernels for the hot numeric paths, in numpy.

Stacks hold one state per column, with the stack width n last, as the
density route in `dilaton` builds them. `xstate_measures` and `chsh_max`
take real float64 stacks only; `chsh_max` refuses any other dtype or a
stack not shaped (4, 4, n). `l_triple` and `witness_margins` are plain
arithmetic, so `xstate_measures` calls them with arrays and the
critical-point search in `dilaton` with dual numbers: one definition of
the steering witness serves both. `pair_gap` is the closed spin-flip
concurrence of a rank-2 state from two real (4, n) factor columns.

`chsh_max` calls no LAPACK routine: T sums the table's terms in a fixed
order, and K = T^T T comes from elementwise products. A real state's K
is K_yy beside a 2x2 (x, z) block, whose eigenvalues one Jacobi rotation
gives; a block already diagonal to within eps keeps its bits, as every
real X state's does. A state with a non-finite entry gives NaN.
"""

from __future__ import annotations

import math

import numpy as np

SQRT3 = math.sqrt(3.0)
# Steerability scale that puts the maximally entangled state at 1.
STEER_SCALE = 8.0 / SQRT3
_LA_SMALL = 0.5 * (2.0 - SQRT3)
_LA_BIG = 0.5 * (2.0 + SQRT3)

_SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)
# Row 3i+j holds the real part of sigma_i (x) sigma_j, transposed and
# flattened, so with one flattened real rho per column, T = _TABLE @ rho
# gives the nine correlations tr(rho sigma_i (x) sigma_j).
_TABLE = np.stack([np.kron(a, b).real.T.ravel() for a in (_SX, _SY, _SZ) for b in (_SX, _SY, _SZ)])
_TABLE.setflags(write=False)
# Nonzero entries (k, is +1) of each _TABLE row, by ascending k. chsh_max adds them from zero
# in that order at every stack width. A BLAS product's order, and so a state's last bits, moves
# with the width: gemv for one column, edge blocks for some others.
_TERMS = [[(k, c > 0) for k, c in enumerate(row) if c] for row in _TABLE.tolist()]


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


def bell_branches(d11, d22, d33, d44, a14, a23):
    """CHSH branches (b1, b2) of X states; a14 and a23 are coherence moduli."""
    k1 = 4.0 * (a14 + a23) ** 2
    k2 = 4.0 * (a14 - a23) ** 2
    k3 = (d11 - d22 - d33 + d44) ** 2
    return 2.0 * np.sqrt(k1 + k2), 2.0 * np.sqrt(k1 + k3)


def xstate_measures(d11, d22, d33, d44, a14, a23):
    """Closed-form X-state measures for stacked parameters.

    a14 and a23 are coherence moduli. Returns five arrays:
    (steer_forward, steer_backward, bell_branch1, bell_branch2, concurrence),
    with forward meaning the first qubit steers the second.
    """
    fwd, bwd = witness_margins(d11, d22, d33, d44, a14, a23)
    s_fwd = np.maximum(0.0, STEER_SCALE * np.maximum(*fwd))
    s_bwd = np.maximum(0.0, STEER_SCALE * np.maximum(*bwd))
    b1, b2 = bell_branches(d11, d22, d33, d44, a14, a23)
    conc = 2.0 * np.maximum(0.0, np.maximum(a14 - np.sqrt(d22 * d33), a23 - np.sqrt(d11 * d44)))
    return s_fwd, s_bwd, b1, b2, conc


def _flip_overlap(x, y):
    """x^T F y of (4, n) columns for the spin flip F, written out as the swap it is."""
    return x[1] * y[2] + x[2] * y[1] - x[0] * y[3] - x[3] * y[0]


def pair_gap(u, w):
    """Spin-flip concurrence sigma1 - sigma2 of real rank-2 states rho = u u^T + w w^T.

    u and w are (4, n), one state per column (another shape raises
    ValueError; a row-major pair with n = 4 passes). Any two real columns
    of a factor of rho give the same Wootters values, the singular values
    of the flipped overlap a below.

    With a = [[alpha, beta], [beta, gamma]] (alpha = u^T F u, beta =
    u^T F w, gamma = w^T F w) and a^T a = [[p, q], [q, r]]:
    sigma1^2 - sigma2^2 = hypot(p - r, 2|q|), with p - r = alpha^2 -
    gamma^2, and (sigma1 + sigma2)^2 = p + r + 2|det a|. Their
    quotient takes no difference of nearly equal singular values, so a
    gap near zero keeps absolute precision. A zero overlap (a = 0) has
    gap 0.
    """
    if not (u.ndim == 2 and u.shape[0] == 4 and u.shape == w.shape):
        raise ValueError(f"pair_gap takes two (4, n) column stacks, got {u.shape} and {w.shape}")
    alpha = _flip_overlap(u, u)
    beta = _flip_overlap(u, w)
    gamma = _flip_overlap(w, w)
    aa, bb, gg = alpha * alpha, beta * beta, gamma * gamma
    q = np.abs(alpha * beta + beta * gamma)
    num = np.hypot(aa - gg, 2.0 * q)
    den = np.sqrt(aa + 2.0 * bb + gg + 2.0 * np.abs(alpha * gamma - beta * beta))
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


_EPS = np.finfo(np.float64).eps


def chsh_max(rhos):
    """Maximal CHSH signal for a real float64 (4, 4, n) stack of density matrices.

    Builds the 3x3 correlation matrix T of each state and returns
    2*sqrt of the sum of the two largest eigenvalues of K = T^T T
    (Horodecki, Phys. Lett. A 200, 340, 1995). T is the table product,
    summed term by term, and K comes from elementwise products. A real
    state has T_xy = T_yx = T_yz = T_zy = 0 (their table rows are empty),
    so K is K_yy beside a 2x2 (x, z) block, and one Jacobi rotation
    (Golub and Van Loan, 8.5.2) gives the block's eigenvalues. A block
    whose off-diagonal entry is within eps of its diagonal is not
    rotated, so an exactly diagonal K gives its diagonal. A state with a
    non-finite entry gives NaN, without a warning; the others keep their
    values. Another dtype raises TypeError, and a stack not shaped
    (4, 4, n) ValueError; a row-major (n, 4, 4) stack with n = 4 has the
    right shape, and the guard cannot tell it.
    """
    if rhos.dtype != np.float64:
        raise TypeError(f"chsh_max takes a real float64 stack, got {rhos.dtype}")
    if not (rhos.ndim == 3 and rhos.shape[:2] == (4, 4)):
        raise ValueError(f"chsh_max takes a (4, 4, n) stack, one state per column, got {rhos.shape}")
    flat = rhos.reshape(16, -1)
    with np.errstate(invalid="ignore", over="ignore"):
        # T's nonzero rows xx, xz, yy, zx, zz: the non-empty table rows, in their order.
        t = np.zeros((5, flat.shape[1]))
        for row, terms in zip(t, filter(None, _TERMS)):
            for k, plus in terms:
                (np.add if plus else np.subtract)(row, flat[k], out=row)
        txx, txz, tyy, tzx, tzz = t
        kxx = txx * txx + tzx * tzx
        kyy = tyy * tyy
        kzz = txz * txz + tzz * tzz
        kzx = txz * txx + tzz * tzx
        finite = np.isfinite(kxx) & np.isfinite(kyy) & np.isfinite(kzz) & np.isfinite(kzx)
        # One Jacobi rotation zeroes K_zx: t = tan(theta) is the smaller root of t^2 + 2 tau t - 1 = 0
        # with tau = (K_xx - K_zz) / (2 K_zx), taken through hypot so that no square overflows, and
        # t K_zx moves from K_zz to K_xx.
        rotate = np.abs(kzx) > _EPS * np.sqrt(kzz) * np.sqrt(kxx)
        h = 0.5 * kxx - 0.5 * kzz
        den = h + np.copysign(np.hypot(h, kzx), h)
        shift = np.divide(kzx, den, out=np.zeros_like(kzx), where=rotate) * kzx
        kzz -= shift
        kxx += shift
        # The two largest of three, as a sort would order them.
        hi, lo = np.maximum(kxx, kyy), np.minimum(kxx, kyy)
        top2 = np.maximum(hi, kzz) + np.maximum(lo, np.minimum(hi, kzz))
    return 2.0 * np.sqrt(np.maximum(0.0, np.where(finite, top2, np.nan)))
