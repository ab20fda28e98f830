import math

import numpy as np
import pytest

from density_oracle import (
    DensityMatrix,
    PureState,
    StateValidationError,
    XState,
    XStructureError,
    as_xstate,
    from_pure,
    partial_trace,
    tensor,
)


def bell_matrix():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[0, 3] = m[3, 0] = m[3, 3] = 0.5
    return DensityMatrix(m)


def mixing_amplitudes(mass, dilaton, omega):
    # c = 1/sqrt(e^{-x} + 1), s = 1/sqrt(e^{x} + 1)
    x = 8.0 * math.pi * (mass - dilaton) * omega
    return 1.0 / math.sqrt(math.exp(-x) + 1.0), 1.0 / math.sqrt(math.exp(x) + 1.0)


def horizon_family_matrix(c, s):
    # Literal entry pattern of the three-mode state: support on rows/columns
    # {0, 3, 6} with weights (1/2) * {c^2, cs, c; cs, s^2, s; c, s, 1}.
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0] = 0.5 * c * c
    m[0, 3] = m[3, 0] = 0.5 * c * s
    m[0, 6] = m[6, 0] = 0.5 * c
    m[3, 3] = 0.5 * s * s
    m[3, 6] = m[6, 3] = 0.5 * s
    m[6, 6] = 0.5
    return m


def random_density(rng, n_qubits, rank=3):
    dim = 2**n_qubits
    weights = rng.dirichlet(np.ones(rank))
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        rho += w * np.outer(v, v.conj())
    return DensityMatrix(rho)


class TestDensityMatrixValidation:
    def test_accepts_valid_state(self):
        m = bell_matrix()
        assert m.dim == 4
        assert m.n_qubits == 2

    def test_rejects_non_hermitian(self):
        m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        m[0, 1] = 0.3
        with pytest.raises(StateValidationError, match="Hermitian"):
            DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(StateValidationError, match="trace"):
            DensityMatrix(np.diag([0.5, 0.6]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(StateValidationError, match="semidefinite"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_rejects_unsupported_dimension(self):
        with pytest.raises(StateValidationError, match="dimension"):
            DensityMatrix(np.eye(3) / 3.0)

    def test_matrix_is_immutable(self):
        m = bell_matrix()
        with pytest.raises(ValueError):
            m.matrix[0, 0] = 0.7


class TestFromPure:
    def test_basis_state(self):
        rho = from_pure(PureState(np.array([1.0, 0.0])))
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-15)

    def test_bell_state(self):
        v = np.zeros(4)
        v[0] = v[3] = 1.0 / math.sqrt(2.0)
        rho = from_pure(PureState(v))
        assert np.allclose(rho.matrix, bell_matrix().matrix, atol=1e-15)

    def test_horizon_family_state_matches_literal_entries(self):
        c, s = mixing_amplitudes(1.0, 0.9, 1.0)
        inv = 1.0 / math.sqrt(2.0)
        v = np.zeros(8, dtype=complex)
        v[0], v[3], v[6] = c * inv, s * inv, inv
        rho = from_pure(PureState(v))
        assert np.abs(rho.matrix - horizon_family_matrix(c, s)).max() < 1e-15

    def test_purity_is_one(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v /= np.linalg.norm(v)
        assert abs(from_pure(PureState(v)).purity() - 1.0) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(StateValidationError, match="norm"):
            PureState(np.array([1.0, 1.0]))


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        red = partial_trace(bell_matrix(), (0,))
        assert np.allclose(red.matrix, 0.5 * np.eye(2), atol=1e-15)

    def test_three_mode_reduction_to_first_two(self):
        # Tracing the interior mode leaves diag(c^2, s^2, 0, 1)/2 with
        # corner coherence c/2.
        c, s = mixing_amplitudes(1.0, 0.9, 1.0)
        rho = DensityMatrix(horizon_family_matrix(c, s))
        red = partial_trace(rho, (0, 1))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 0.5 * c * c
        expected[1, 1] = 0.5 * s * s
        expected[3, 3] = 0.5
        expected[0, 3] = expected[3, 0] = 0.5 * c
        assert np.abs(red.matrix - expected).max() < 1e-15

    def test_three_mode_reduction_to_last_two(self):
        # Tracing the exterior observer leaves diag(c^2, 0, 1, s^2)/2 with
        # corner coherence cs/2.
        c, s = mixing_amplitudes(1.0, 0.9, 1.0)
        rho = DensityMatrix(horizon_family_matrix(c, s))
        red = partial_trace(rho, (1, 2))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 0.5 * c * c
        expected[2, 2] = 0.5
        expected[3, 3] = 0.5 * s * s
        expected[0, 3] = expected[3, 0] = 0.5 * c * s
        assert np.abs(red.matrix - expected).max() < 1e-15

    def test_product_input_returns_kept_factor(self):
        a = DensityMatrix(np.diag([0.7, 0.3]))
        b = DensityMatrix(np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex))
        assert np.abs(partial_trace(tensor(a, b), (0,)).matrix - a.matrix).max() < 1e-14
        assert np.abs(partial_trace(tensor(a, b), (1,)).matrix - b.matrix).max() < 1e-14

    def test_keep_order_controls_output_order(self):
        a = DensityMatrix(np.diag([0.7, 0.3]))
        b = DensityMatrix(np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex))
        c = DensityMatrix(np.diag([1.0, 0.0]))
        triple = tensor(tensor(a, b), c)
        swapped = partial_trace(triple, (1, 0))
        assert np.abs(swapped.matrix - tensor(b, a).matrix).max() < 1e-14

    def test_two_step_equals_one_step(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            rho = random_density(rng, 3)
            direct = partial_trace(rho, (0,))
            staged = partial_trace(partial_trace(rho, (0, 1)), (0,))
            assert np.abs(direct.matrix - staged.matrix).max() < 1e-13

    @pytest.mark.parametrize("keep", [(), (0, 1), (2,), (-1,), (0, 0)])
    def test_rejects_bad_keep(self, keep):
        with pytest.raises(ValueError):
            partial_trace(bell_matrix(), keep)


class TestTensor:
    def test_basis_with_mixed(self):
        a = DensityMatrix(np.diag([1.0, 0.0]))
        b = DensityMatrix(0.5 * np.eye(2))
        assert np.allclose(tensor(a, b).matrix, np.diag([0.5, 0.5, 0.0, 0.0]), atol=1e-15)

    def test_mixed_with_mixed(self):
        b = DensityMatrix(0.5 * np.eye(2))
        assert np.allclose(tensor(b, b).matrix, 0.25 * np.eye(4), atol=1e-15)

    def test_marginal_with_noise_matches_witness_admixture_term(self):
        # rho_A (x) I/2 for the exterior-pair reduction has the diagonal
        # ((d11+d22)/2, (d11+d22)/2, (d33+d44)/2, (d33+d44)/2).
        c, s = mixing_amplitudes(1.0, 0.9, 1.0)
        rho = DensityMatrix(horizon_family_matrix(c, s))
        pair = partial_trace(rho, (0, 1))
        padded = tensor(partial_trace(pair, (0,)), DensityMatrix(0.5 * np.eye(2)))
        top = 0.5 * (0.5 * c * c + 0.5 * s * s)
        expected = np.diag([top, top, 0.25, 0.25]).astype(complex)
        assert np.abs(padded.matrix - expected).max() < 1e-14


class TestXState:
    def test_bell_extraction(self):
        s = as_xstate(bell_matrix())
        assert s.d11 == s.d44 == 0.5
        assert s.c14 == 0.5
        assert s.d22 == s.d33 == 0.0 and s.c23 == 0.0

    def test_family_reduction_has_exact_structural_zeros(self):
        c, sv = mixing_amplitudes(1.0, 0.9, 1.0)
        rho = DensityMatrix(horizon_family_matrix(c, sv))
        s = as_xstate(partial_trace(rho, (0, 1)))
        assert s.d33 == 0.0
        assert s.c23 == 0.0

    def test_non_x_entry_is_named(self):
        m = np.diag([0.45, 0.45, 0.1, 0.0]).astype(complex)
        m[0, 1] = m[1, 0] = 0.1
        with pytest.raises(XStructureError, match=r"\(1,2\)"):
            as_xstate(DensityMatrix(m))

    def test_round_trip_reproduces_matrix(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            diag = rng.dirichlet(np.ones(4))
            c14 = rng.uniform(0, 1) * math.sqrt(diag[0] * diag[3]) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            c23 = rng.uniform(0, 1) * math.sqrt(diag[1] * diag[2]) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            s = XState(*diag, c14, c23)
            again = as_xstate(s.to_matrix())
            assert np.abs(again.to_matrix().matrix - s.to_matrix().matrix).max() < 1e-12

    def test_rejects_bad_probability_sum(self):
        with pytest.raises(StateValidationError, match="sum"):
            XState(0.5, 0.5, 0.5, 0.0)

    def test_rejects_negative_probability(self):
        with pytest.raises(StateValidationError, match="negative"):
            XState(1.2, -0.2, 0.0, 0.0)

    def test_rejects_oversized_coherence(self):
        with pytest.raises(StateValidationError, match="c14"):
            XState(0.5, 0.0, 0.0, 0.5, 0.6, 0.0)
        with pytest.raises(StateValidationError, match="c23"):
            XState(0.25, 0.25, 0.25, 0.25, 0.0, 0.3)

    def test_every_operation_output_satisfies_invariants(self):
        # Construction through DensityMatrix re-validates Hermiticity,
        # trace, and positivity, so surviving a round trip is the check.
        rng = np.random.default_rng(7)
        for _ in range(10):
            rho = random_density(rng, 3)
            red = partial_trace(rho, (0, 2))
            assert abs(red.matrix.trace().real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(red.matrix)[0] > -1e-10


class TestNonFiniteInput:
    """A NaN or an infinity fails every `dev > tol` comparison, so each
    validated type checks for non-finite entries before its tolerances."""

    ENTRIES = [(i, j) for i in range(4) for j in range(4)]
    BAD = [math.nan, math.inf]

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: f"rho{e[0]}{e[1]}")
    def test_density_matrix(self, entry, bad):
        m = bell_matrix().matrix.copy()
        m[entry] = bad
        with pytest.raises(StateValidationError, match="non-finite"):
            DensityMatrix(m)

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("index", range(4))
    def test_pure_state(self, index, bad):
        v = np.full(4, 0.5, dtype=complex)
        v[index] = bad
        with pytest.raises(StateValidationError, match="non-finite"):
            PureState(v)

    @pytest.mark.parametrize("bad", BAD + [complex(0.0, math.nan)])
    @pytest.mark.parametrize("index", range(6))
    def test_xstate(self, index, bad):
        params = [0.25, 0.25, 0.25, 0.25, 0.0, 0.0]
        params[index] = bad
        with pytest.raises(StateValidationError, match="non-finite"):
            XState(*params)
