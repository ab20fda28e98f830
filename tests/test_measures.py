import math

import numpy as np
import pytest

from density_oracle import DensityMatrix, XState, as_xstate, steering_witness_matrix
from chsh_oracle import chsh_max_eigvalsh
from dilaton_steering.kernels import chsh_max, l_triple, witness_margins, xstate_measures
from dilaton_steering.dilaton import REGIMES, regime_index
from sampling import density_stack, random_separable_xstate, random_xstate, xstate_params
from spinflip_oracle import spinflip_concurrence

SQRT3 = math.sqrt(3.0)
TWO_SQRT2 = 2.0 * math.sqrt(2.0)

BELL = XState(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)
MIXED = XState(0.25, 0.25, 0.25, 0.25)
# Exterior-pair reduction in the common-temperature limit: diagonal
# (1/4, 1/4, 0, 1/2) with corner coherence 1/(2 sqrt 2).
LIMIT_AB = XState(0.25, 0.25, 0.0, 0.5, 0.5 / math.sqrt(2.0), 0.0)


def closed(*states):
    """`xstate_measures` on a stack of X states: (s_fwd, s_bwd, branch1, branch2, concurrence)."""
    return xstate_measures(*xstate_params(states))


def matrices(*states):
    return density_stack(s.to_matrix() for s in states)


def regimes(*states):
    s_fwd, s_bwd, _, _, _ = closed(*states)
    return [REGIMES[i] for i in regime_index(s_fwd, s_bwd)]


class TestConcurrence:
    def test_bell_state(self):
        assert abs(closed(BELL)[4][0] - 1.0) < 1e-12
        assert abs(spinflip_concurrence(matrices(BELL))[0] - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert closed(MIXED)[4][0] == 0.0
        assert spinflip_concurrence(matrices(MIXED))[0] == 0.0

    def test_classically_correlated(self):
        rho = DensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]))
        assert spinflip_concurrence(density_stack([rho]))[0] == 0.0

    def test_limit_state_value(self):
        # 2 * (1/(2 sqrt2) - 0) = 1/sqrt2
        assert abs(closed(LIMIT_AB)[4][0] - 0.7071067811865475) < 1e-12

    def test_x_formula_matches_spin_flip_oracle(self):
        rng = np.random.default_rng(101)
        states = [random_xstate(rng) for _ in range(300)]
        assert np.abs(closed(*states)[4] - spinflip_concurrence(matrices(*states))).max() < 1e-10


class TestSteerability:
    def test_bell_state_is_normalized_to_one(self):
        s_fwd, s_bwd, _, _, _ = closed(BELL)
        assert abs(s_fwd[0] - 1.0) < 1e-12
        assert abs(s_bwd[0] - 1.0) < 1e-12

    def test_maximally_mixed_is_zero(self):
        s_fwd, s_bwd, _, _, _ = closed(MIXED)
        assert s_fwd[0] == 0.0 and s_bwd[0] == 0.0

    def test_limit_state_forward_value(self):
        # 1/2 - 1/(4 sqrt3)
        assert abs(closed(LIMIT_AB)[0][0] - 0.35566243270259357) < 1e-12

    def test_limit_state_backward_value(self):
        # 1/2 - 1/(2 sqrt3)
        assert abs(closed(LIMIT_AB)[1][0] - 0.21132486540518708) < 1e-12

    def test_sign_agrees_with_witness_margins(self):
        rng = np.random.default_rng(61)
        params = xstate_params([random_xstate(rng) for _ in range(500)])
        steer = xstate_measures(*params)[:2]
        for value, margins in zip(steer, witness_margins(*params)):
            assert np.array_equal(value > 0.0, np.maximum(*margins) > 0.0)

    def test_l_triple_identity(self):
        rng = np.random.default_rng(71)
        d11, d22, d33, d44, _, _ = xstate_params([random_xstate(rng) for _ in range(500)])
        la, _, lc = l_triple(d11, d22, d33, d44)
        assert np.abs(lc - la - SQRT3 * (d11 * d44 - d22 * d33)).max() < 1e-12


class TestWitnessMatrix:
    def test_maximally_mixed_is_fixed_point(self):
        tau = steering_witness_matrix(MIXED.to_matrix(), backward=True)
        assert np.abs(tau.matrix - 0.25 * np.eye(4)).max() < 1e-14

    def test_bell_corner_coherence(self):
        tau = steering_witness_matrix(BELL.to_matrix(), backward=True)
        assert abs(tau.matrix[0, 3] - 1.0 / (2.0 * SQRT3)) < 1e-14

    def test_x_input_produces_known_pattern(self):
        s = XState(0.3, 0.2, 0.1, 0.4, 0.2j, 0.1)
        tau = steering_witness_matrix(s.to_matrix(), backward=True)
        shift_top = (3.0 - SQRT3) / 6.0 * (s.d11 + s.d22)
        shift_bottom = (3.0 - SQRT3) / 6.0 * (s.d33 + s.d44)
        m = tau.matrix
        assert abs(m[0, 0] - (s.d11 / SQRT3 + shift_top)) < 1e-14
        assert abs(m[1, 1] - (s.d22 / SQRT3 + shift_top)) < 1e-14
        assert abs(m[2, 2] - (s.d33 / SQRT3 + shift_bottom)) < 1e-14
        assert abs(m[3, 3] - (s.d44 / SQRT3 + shift_bottom)) < 1e-14
        assert abs(m[0, 3] - s.c14 / SQRT3) < 1e-14
        assert abs(m[1, 2] - s.c23 / SQRT3) < 1e-14

    def test_witness_entanglement_tracks_steerability_sign(self):
        rng = np.random.default_rng(41)
        states = [random_xstate(rng) for _ in range(400)]
        margins = witness_margins(*xstate_params(states))
        taus, signs = [], []
        for backward, (w1, w2) in enumerate(margins):
            for s, margin in zip(states, np.maximum(w1, w2)):
                if abs(margin) < 1e-12:
                    continue
                taus.append(as_xstate(steering_witness_matrix(s.to_matrix(), bool(backward))))
                signs.append(margin > 0.0)
        assert np.array_equal(closed(*taus)[4] > 0.0, signs)
        assert len(taus) > 500

    def test_separable_inputs_give_separable_witness_and_zero_steering(self):
        rng = np.random.default_rng(51)
        states = [random_separable_xstate(rng) for _ in range(300)]
        s_fwd, s_bwd, _, _, _ = closed(*states)
        assert s_fwd.max() <= 1e-12 and s_bwd.max() <= 1e-12
        for backward in (False, True):
            taus = [steering_witness_matrix(s.to_matrix(), backward) for s in states]
            assert spinflip_concurrence(density_stack(taus)).max() <= 1e-10

    def test_steering_implies_entanglement(self):
        rng = np.random.default_rng(81)
        s_fwd, s_bwd, _, _, conc = closed(*(random_xstate(rng) for _ in range(500)))
        witnessed = np.maximum(s_fwd, s_bwd) > 1e-12
        assert np.all(conc[witnessed] > 0.0)
        assert witnessed.sum() > 50


class TestChsh:
    def test_bell_state_reaches_quantum_maximum(self):
        _, _, b1, b2, _ = closed(BELL)
        assert abs(max(b1[0], b2[0]) - TWO_SQRT2) < 1e-12
        assert abs(b1[0] - TWO_SQRT2) < 1e-12
        assert abs(b2[0] - TWO_SQRT2) < 1e-12
        assert abs(chsh_max(np.moveaxis(matrices(BELL).real, 0, -1))[0] - TWO_SQRT2) < 1e-12

    def test_maximally_mixed_has_no_signal(self):
        _, _, b1, b2, _ = closed(MIXED)
        assert max(b1[0], b2[0]) == 0.0
        assert chsh_max(np.moveaxis(matrices(MIXED).real, 0, -1))[0] < 1e-7

    def test_product_states_stay_below_local_bound(self):
        rng = np.random.default_rng(91)
        products = []
        for _ in range(100):
            p, q = rng.uniform(0.0, 1.0, 2)
            product = np.kron(np.diag([p, 1 - p]), np.diag([q, 1 - q])).astype(complex)
            products.append(DensityMatrix(product))
        assert chsh_max(np.moveaxis(density_stack(products).real, 0, -1)).max() <= 2.0 + 1e-12

    def test_branch_formulas_match_correlation_route(self):
        rng = np.random.default_rng(17)
        states = [random_xstate(rng) for _ in range(300)]
        _, _, b1, b2, _ = closed(*states)
        assert np.abs(np.maximum(b1, b2) - chsh_max_eigvalsh(matrices(*states))).max() < 1e-10

    def test_bell_is_max_of_branches(self):
        rng = np.random.default_rng(19)
        _, _, b1, b2, _ = closed(*(random_xstate(rng) for _ in range(200)))
        assert np.maximum(b1, b2).max() <= TWO_SQRT2 + 1e-12


class TestClassification:
    def test_bell_state_two_way(self):
        assert regimes(BELL) == ["two_way"]

    def test_separable_no_way(self):
        rng = np.random.default_rng(3)
        assert regimes(random_separable_xstate(rng)) == ["no_way"]

    @staticmethod
    def _interior_pair_state():
        # Interior-pair reduction at thermal argument 1: diagonal
        # (c^2/2, 0, 1/2, s^2/2) with corner cs/2; steers forward only.
        c2 = 1.0 / (1.0 + math.exp(-1.0))
        s2 = 1.0 - c2
        return XState(0.5 * c2, 0.0, 0.5, 0.5 * s2, 0.5 * math.sqrt(c2 * s2), 0.0)

    def test_one_way_forward(self):
        s = self._interior_pair_state()
        fwd, bwd, _, _, _ = closed(s)
        assert fwd[0] > 1e-12 and bwd[0] <= 1e-12
        assert regimes(s) == ["one_way_fwd"]

    def test_one_way_backward_is_mirror(self):
        s = self._interior_pair_state()
        # Swapping the qubits exchanges d22 with d33 and reverses the
        # steering direction.
        swapped = XState(s.d11, s.d33, s.d22, s.d44, s.c14, np.conj(s.c23))
        assert regimes(swapped) == ["one_way_bwd"]
        assert abs(closed(swapped)[1][0] - closed(s)[0][0]) < 1e-14


def test_witness_matrix_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        steering_witness_matrix(DensityMatrix(0.5 * np.eye(2)), backward=False)
