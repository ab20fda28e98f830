"""Reference spin-flip concurrences for the tests.

`spinflip_concurrence` is the general oracle for any stack of two-qubit
states: eigh, an eigen-clip, and the batched SVD of L^T F L. The
package's density route takes the closed `kernels.pair_gap` of its
rank-2 factors instead, and the tests compare the two.
`wootters_lambdas` gives the textbook definition (Wootters, PRL 80,
2245, 1998) from the eigenvalues of rho F rho* F, for well-conditioned
states.
"""

from __future__ import annotations

import numpy as np

# sigma_y (x) sigma_y: the two-qubit spin flip is real in the computational basis.
SPIN_FLIP = np.zeros((4, 4), dtype=np.complex128)
SPIN_FLIP[0, 3] = SPIN_FLIP[3, 0] = -1.0
SPIN_FLIP[1, 2] = SPIN_FLIP[2, 1] = 1.0
SPIN_FLIP.setflags(write=False)

# Spectral weights of rho below EIG_CLIP * (largest eigenvalue) are zeroed
# before taking the matrix square root; they are indistinguishable from 0 at
# working precision and their roots would otherwise inject sqrt(eps) noise.
EIG_CLIP = 64.0 * np.finfo(np.float64).eps


def spinflip_concurrence(rhos):
    """Spin-flip concurrence for a stack of 4x4 density matrices.

    The flipped-overlap spectrum is obtained as the singular values of
    L^T F L for a factor rho = L L^dagger, which keeps relative precision
    where the eigenvalues of rho (F rho* F) pass through zero; any factor
    gives the same singular values. L is the eigen-factor with the
    eigen-clip applied. A state with a non-finite entry gives NaN without
    reaching eigh, which reads one triangle only and would give a number
    for a NaN in the other.
    """
    finite = np.isfinite(rhos).all(axis=(1, 2))
    conc = np.full(rhos.shape[0], np.nan)
    e, v = np.linalg.eigh(rhos[finite])
    e = np.where(e < EIG_CLIP * e[:, -1:], 0.0, e)
    ell = v * np.sqrt(e)[:, None, :]
    lam = np.linalg.svd(np.swapaxes(ell, 1, 2) @ SPIN_FLIP @ ell, compute_uv=False)
    conc[finite] = lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]
    return np.maximum(0.0, conc)


def wootters_lambdas(rho, rank=4):
    """Descending square roots of the eigenvalues of rho F rho* F, whose
    concurrence is max(0, l1 - l2 - l3 - l4).

    rho F rho* F has rank at most rank(rho), so for a state of rank r
    only its r largest eigenvalues are kept and the rest are exactly 0;
    their computed values are noise of order eps, whose roots would be
    of order sqrt(eps).
    """
    ev = np.sort(np.linalg.eigvals(rho @ SPIN_FLIP @ rho.conj() @ SPIN_FLIP).real)[::-1]
    lam = np.zeros(4)
    lam[:rank] = np.sqrt(np.maximum(ev[:rank], 0.0))
    return lam
