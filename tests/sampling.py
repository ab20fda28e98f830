"""Random X-state generators for the property tests."""

from __future__ import annotations

import numpy as np

from density_oracle import XState


def random_xstate_params(rng: np.random.Generator, n: int):
    """Sample n valid X states as stacked parameter arrays.

    Diagonals come from the flat simplex; each coherence modulus is drawn
    uniformly inside its positivity bound, with a uniform phase. Returns
    (d11, d22, d33, d44, c14, c23) with complex coherence arrays.
    """
    diag = rng.dirichlet(np.ones(4), size=n)
    d11, d22, d33, d44 = diag[:, 0], diag[:, 1], diag[:, 2], diag[:, 3]
    m14 = rng.uniform(0.0, 1.0, n) * np.sqrt(d11 * d44)
    m23 = rng.uniform(0.0, 1.0, n) * np.sqrt(d22 * d33)
    c14 = m14 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    c23 = m23 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    return d11, d22, d33, d44, c14, c23


def random_separable_xstate_params(rng: np.random.Generator, n: int, phase_terms: int = 3):
    """Sample n separable X states as stacked parameter arrays.

    Each state is an explicit convex mixture of product states: the four
    computational product projectors plus `phase_terms` pairs of the form
    (|0> + e^{ia}|1>)(|0> + e^{ib}|1>)/2 mixed equally with the opposite
    signs. Each such pair is an X state with uniform diagonal and corner
    coherences e^{-i(a+b)}/4 and e^{i(b-a)}/4, so the mixture is X-shaped
    and separable by construction.
    """
    w = rng.dirichlet(np.ones(4 + phase_terms), size=n)
    d11 = w[:, 0].copy()
    d22 = w[:, 1].copy()
    d33 = w[:, 2].copy()
    d44 = w[:, 3].copy()
    c14 = np.zeros(n, dtype=np.complex128)
    c23 = np.zeros(n, dtype=np.complex128)
    for k in range(phase_terms):
        wk = w[:, 4 + k]
        a = rng.uniform(0.0, 2.0 * np.pi, n)
        b = rng.uniform(0.0, 2.0 * np.pi, n)
        d11 += 0.25 * wk
        d22 += 0.25 * wk
        d33 += 0.25 * wk
        d44 += 0.25 * wk
        c14 += 0.25 * wk * np.exp(-1j * (a + b))
        c23 += 0.25 * wk * np.exp(1j * (b - a))
    return d11, d22, d33, d44, c14, c23


def xstate_matrices(d11, d22, d33, d44, c14, c23) -> np.ndarray:
    """Stack the 4x4 density matrices of X states given as parameter arrays."""
    n = len(d11)
    m = np.zeros((n, 4, 4), dtype=np.complex128)
    m[:, 0, 0] = d11
    m[:, 1, 1] = d22
    m[:, 2, 2] = d33
    m[:, 3, 3] = d44
    m[:, 0, 3] = c14
    m[:, 3, 0] = np.conj(c14)
    m[:, 1, 2] = c23
    m[:, 2, 1] = np.conj(c23)
    return m


def random_xstate(rng: np.random.Generator) -> XState:
    """One random valid X state."""
    d11, d22, d33, d44, c14, c23 = random_xstate_params(rng, 1)
    return XState(d11[0], d22[0], d33[0], d44[0], complex(c14[0]), complex(c23[0]))


def random_separable_xstate(rng: np.random.Generator) -> XState:
    """One random separable X state (explicit product-state mixture)."""
    d11, d22, d33, d44, c14, c23 = random_separable_xstate_params(rng, 1)
    return XState(d11[0], d22[0], d33[0], d44[0], complex(c14[0]), complex(c23[0]))


def xstate_params(states):
    """Stacked (d11, d22, d33, d44, |c14|, |c23|) of X states, as `kernels.xstate_measures` takes them."""
    names = ("d11", "d22", "d33", "d44", "c14", "c23")
    d11, d22, d33, d44, c14, c23 = (np.array([getattr(s, name) for s in states]) for name in names)
    return d11, d22, d33, d44, np.abs(c14), np.abs(c23)


def density_stack(matrices) -> np.ndarray:
    """Stack the 4x4 arrays of validated density matrices."""
    return np.array([m.matrix for m in matrices])


def column_subsets(rng: np.random.Generator, width: int):
    """Column index sets of a width-wide stack: a permutation, a random subset, and single columns."""
    yield rng.permutation(width)
    yield np.flatnonzero(rng.random(width) < 0.5)
    for j in rng.choice(width, size=min(width, 64), replace=False):
        yield np.array([j])
