"""Reference spin-flip concurrences for the kernel tests.

`spinflip_concurrence_svd` is the kernel's formula applied to every
state: eigh, the same clip, L^T F L and its batched SVD. The kernel
takes that route for every finite state and must return its bits.
`wootters_lambdas` gives the textbook definition (Wootters,
PRL 80, 2245, 1998) from the eigenvalues of rho F rho* F, for
well-conditioned states.
"""

from __future__ import annotations

import numpy as np

from dilaton_steering.kernels import _EIG_CLIP, SPIN_FLIP


def spinflip_concurrence_svd(rhos):
    """Concurrence of stacked 4x4 states from the singular values of L^T F L."""
    e, v = np.linalg.eigh(rhos)
    e = np.where(e < _EIG_CLIP * e[:, -1:], 0.0, e)
    ell = v * np.sqrt(e)[:, None, :]
    a = np.swapaxes(ell, 1, 2) @ SPIN_FLIP @ ell
    lam = np.linalg.svd(a, compute_uv=False)
    return np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])


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
