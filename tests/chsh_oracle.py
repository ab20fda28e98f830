"""Reference CHSH values for the tests, complex-general and independent of the package.

`chsh_max_eigvalsh` is the Horodecki criterion (Phys. Lett. A 200, 340,
1995) for any stack of 4x4 states, real or complex: T from this module's
own complex Pauli products, K = T^T T as a batched matmul and its
eigenvalues from LAPACK `eigvalsh`. `kernels.chsh_max`, which takes real
float64 stacks only, must agree with it to 1e-14, and give its bits
wherever K is diagonal. Both give NaN for a state with a non-finite
entry.
"""

from __future__ import annotations

import numpy as np

PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=np.complex128)
# PAULI_PRODUCTS[i, j] = sigma_i (x) sigma_j.
PAULI_PRODUCTS = np.array([[np.kron(a, b) for b in PAULIS] for a in PAULIS])
PAULI_PRODUCTS.setflags(write=False)


def correlation_products(rhos):
    """Stacked K = T^T T of the 3x3 correlation matrices T_ij = tr(rho sigma_i (x) sigma_j)."""
    t = np.einsum("nab,ijba->nij", rhos, PAULI_PRODUCTS).real
    return np.swapaxes(t, 1, 2) @ t


def chsh_max_eigvalsh(rhos):
    """2*sqrt of the sum of the two largest eigenvalues of K, through eigvalsh.

    A state with a non-finite entry gives NaN and does not reach eigvalsh.
    """
    finite = np.isfinite(rhos).all(axis=(1, 2))
    out = np.full(rhos.shape[0], np.nan)
    ev = np.linalg.eigvalsh(correlation_products(rhos[finite]))
    out[finite] = 2.0 * np.sqrt(np.maximum(0.0, ev[:, 1] + ev[:, 2]))
    return out
