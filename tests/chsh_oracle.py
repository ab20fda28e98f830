"""Reference CHSH values for the kernel tests.

`chsh_max_eigvalsh` is the former `kernels.chsh_max`: T from the complex
Pauli table, K = T^T T as a batched matmul and its eigenvalues from
LAPACK `eigvalsh`. `kernels.chsh_max` must agree with it to 1e-14, and
give its bits wherever K is diagonal.
"""

from __future__ import annotations

import numpy as np

from dilaton_steering.kernels import _CORRELATION_TABLE


def correlation_products(rhos):
    """Stacked K = T^T T of the 3x3 correlation matrices T of 4x4 states."""
    t = (rhos.reshape(-1, 16) @ _CORRELATION_TABLE).real.reshape(-1, 3, 3)
    return np.swapaxes(t, 1, 2) @ t


def chsh_max_eigvalsh(rhos):
    """2*sqrt of the sum of the two largest eigenvalues of K, through eigvalsh."""
    ev = np.linalg.eigvalsh(correlation_products(rhos))
    return 2.0 * np.sqrt(np.maximum(0.0, ev[:, 1] + ev[:, 2]))
