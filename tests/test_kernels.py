import numpy as np
import pytest

from dilaton_steering import kernels, measures, sampling
from dilaton_steering.density import XState
from dilaton_steering.measures import Direction


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(2024)
    d11, d22, d33, d44, c14, c23 = sampling.random_xstate_params(rng, 5000)
    return {
        "params": (d11, d22, d33, d44, np.abs(c14), np.abs(c23)),
        "matrices": sampling.xstate_matrices(d11, d22, d33, d44, c14, c23),
    }


class TestBatchMatchesScalarApi:
    def test_xstate_measures_match_measure_functions(self, batch):
        d11, d22, d33, d44, a14, a23 = batch["params"]
        s_fwd, s_bwd, b1, b2, conc = kernels.xstate_measures(d11, d22, d33, d44, a14, a23)
        for i in range(0, 200):
            s = XState(d11[i], d22[i], d33[i], d44[i], a14[i], a23[i])
            assert s_fwd[i] == measures.steerability(s, Direction.A_TO_B)
            assert s_bwd[i] == measures.steerability(s, Direction.B_TO_A)
            branches = measures.chsh_max_x(s)
            assert b1[i] == branches.branch1
            assert b2[i] == branches.branch2
            assert conc[i] == measures.concurrence_x(s)

    def test_oracles_match_closed_forms(self, batch):
        _, _, b1, b2, conc = kernels.xstate_measures(*batch["params"])
        conc_oracle = kernels.spinflip_concurrence(batch["matrices"])
        bell_oracle = kernels.chsh_max(batch["matrices"])
        assert np.abs(conc - conc_oracle).max() < 1e-10
        assert np.abs(np.maximum(b1, b2) - bell_oracle).max() < 1e-10


class TestOracleEdgeCases:
    def test_concurrence_of_degenerate_corner_state(self):
        # |c14| = sqrt(d11 d44) makes one flipped-overlap weight exactly
        # zero; the factored form must not leak sqrt(eps) noise.
        m = sampling.xstate_matrices(
            np.array([0.4]), np.array([0.0]), np.array([0.0]), np.array([0.6]),
            np.array([np.sqrt(0.24)]), np.array([0.0]),
        )
        expected = 2.0 * np.sqrt(0.24)
        assert abs(kernels.spinflip_concurrence(m)[0] - expected) < 1e-13

    def test_chsh_of_pure_corner_state(self):
        m = sampling.xstate_matrices(
            np.array([0.5]), np.array([0.0]), np.array([0.0]), np.array([0.5]),
            np.array([0.5]), np.array([0.0]),
        )
        assert abs(kernels.chsh_max(m)[0] - 2.0 * np.sqrt(2.0)) < 1e-12

    def test_chsh_matches_trace_definition_on_general_states(self):
        # Full-rank states with every coherence nonzero, not only X states.
        rng = np.random.default_rng(17)
        g = rng.normal(size=(50, 4, 4)) + 1j * rng.normal(size=(50, 4, 4))
        rhos = g @ np.conj(np.swapaxes(g, 1, 2))
        rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
        paulis = kernels.PAULI_KRON.reshape(3, 3, 4, 4)
        for rho, bell in zip(rhos, kernels.chsh_max(rhos)):
            t = np.array([[np.trace(rho @ p).real for p in row] for row in paulis])
            ev = np.linalg.eigvalsh(t.T @ t)
            assert abs(bell - 2.0 * np.sqrt(ev[1] + ev[2])) < 1e-12

    def test_separable_states_have_zero_concurrence(self):
        rng = np.random.default_rng(9)
        pars = sampling.random_separable_xstate_params(rng, 2000)
        mats = sampling.xstate_matrices(*pars)
        assert kernels.spinflip_concurrence(mats).max() <= 1e-10
