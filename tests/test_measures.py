import math

import numpy as np
import pytest

from dilaton_steering.density import DensityMatrix, XState, as_xstate
from dilaton_steering.measures import (
    Direction,
    Regime,
    chsh_max_general,
    chsh_max_x,
    classify_steering,
    concurrence_general,
    concurrence_x,
    l_triple,
    measure_xstate,
    steerability,
    steering_asymmetry,
    steering_witness_matrix,
    witness_arguments,
)
from sampling import random_separable_xstate, random_xstate

SQRT3 = math.sqrt(3.0)
TWO_SQRT2 = 2.0 * math.sqrt(2.0)

BELL = XState(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)
MIXED = XState(0.25, 0.25, 0.25, 0.25)
# Exterior-pair reduction in the common-temperature limit: diagonal
# (1/4, 1/4, 0, 1/2) with corner coherence 1/(2 sqrt 2).
LIMIT_AB = XState(0.25, 0.25, 0.0, 0.5, 0.5 / math.sqrt(2.0), 0.0)


class TestConcurrence:
    def test_bell_state(self):
        assert abs(concurrence_x(BELL) - 1.0) < 1e-12
        assert abs(concurrence_general(BELL.to_matrix()) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert concurrence_x(MIXED) == 0.0
        assert concurrence_general(MIXED.to_matrix()) == 0.0

    def test_classically_correlated(self):
        assert concurrence_general(DensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]))) == 0.0

    def test_limit_state_value(self):
        # 2 * (1/(2 sqrt2) - 0) = 1/sqrt2
        assert abs(concurrence_x(LIMIT_AB) - 0.7071067811865475) < 1e-12

    def test_x_formula_matches_spin_flip_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            s = random_xstate(rng)
            assert abs(concurrence_x(s) - concurrence_general(s.to_matrix())) < 1e-10


class TestSteerability:
    def test_bell_state_is_normalized_to_one(self):
        assert abs(steerability(BELL, Direction.A_TO_B) - 1.0) < 1e-12
        assert abs(steerability(BELL, Direction.B_TO_A) - 1.0) < 1e-12

    def test_maximally_mixed_is_zero(self):
        assert steerability(MIXED, Direction.A_TO_B) == 0.0
        assert steerability(MIXED, Direction.B_TO_A) == 0.0

    def test_limit_state_forward_value(self):
        # 1/2 - 1/(4 sqrt3)
        assert abs(steerability(LIMIT_AB, Direction.A_TO_B) - 0.35566243270259357) < 1e-12

    def test_limit_state_backward_value(self):
        # 1/2 - 1/(2 sqrt3)
        assert abs(steerability(LIMIT_AB, Direction.B_TO_A) - 0.21132486540518708) < 1e-12

    def test_sign_agrees_with_witness_margins(self):
        rng = np.random.default_rng(61)
        for _ in range(500):
            s = random_xstate(rng)
            for direction in Direction:
                margin = max(witness_arguments(s, direction))
                value = steerability(s, direction)
                assert (value > 0.0) == (margin > 0.0)

    def test_l_triple_identity(self):
        rng = np.random.default_rng(71)
        for _ in range(500):
            s = random_xstate(rng)
            t = l_triple(s)
            assert abs(t.lc - t.la - SQRT3 * (s.d11 * s.d44 - s.d22 * s.d33)) < 1e-12


class TestWitnessMatrix:
    def test_maximally_mixed_is_fixed_point(self):
        tau = steering_witness_matrix(MIXED.to_matrix(), Direction.B_TO_A)
        assert np.abs(tau.matrix - 0.25 * np.eye(4)).max() < 1e-14

    def test_bell_corner_coherence(self):
        tau = steering_witness_matrix(BELL.to_matrix(), Direction.B_TO_A)
        assert abs(tau.matrix[0, 3] - 1.0 / (2.0 * SQRT3)) < 1e-14

    def test_x_input_produces_known_pattern(self):
        s = XState(0.3, 0.2, 0.1, 0.4, 0.2j, 0.1)
        tau = steering_witness_matrix(s.to_matrix(), Direction.B_TO_A)
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
        checked = 0
        for _ in range(400):
            s = random_xstate(rng)
            for direction in Direction:
                margin = max(witness_arguments(s, direction))
                if abs(margin) < 1e-12:
                    continue
                tau = steering_witness_matrix(s.to_matrix(), direction)
                tau_conc = concurrence_x(as_xstate(tau))
                assert (tau_conc > 0.0) == (margin > 0.0)
                checked += 1
        assert checked > 500

    def test_separable_inputs_give_separable_witness_and_zero_steering(self):
        rng = np.random.default_rng(51)
        for _ in range(300):
            s = random_separable_xstate(rng)
            for direction in Direction:
                assert steerability(s, direction) <= 1e-12
                tau = steering_witness_matrix(s.to_matrix(), direction)
                assert concurrence_general(tau) <= 1e-10

    def test_steering_implies_entanglement(self):
        rng = np.random.default_rng(81)
        witnessed = 0
        for _ in range(500):
            s = random_xstate(rng)
            if max(steerability(s, d) for d in Direction) > 1e-12:
                witnessed += 1
                assert concurrence_x(s) > 0.0
        assert witnessed > 50


class TestChsh:
    def test_bell_state_reaches_quantum_maximum(self):
        branches = chsh_max_x(BELL)
        assert abs(branches.bell - TWO_SQRT2) < 1e-12
        assert abs(branches.branch1 - TWO_SQRT2) < 1e-12
        assert abs(branches.branch2 - TWO_SQRT2) < 1e-12
        assert abs(chsh_max_general(BELL.to_matrix()) - TWO_SQRT2) < 1e-12

    def test_maximally_mixed_has_no_signal(self):
        assert chsh_max_x(MIXED).bell == 0.0
        assert chsh_max_general(MIXED.to_matrix()) < 1e-7

    def test_product_states_stay_below_local_bound(self):
        rng = np.random.default_rng(91)
        for _ in range(100):
            p, q = rng.uniform(0.0, 1.0, 2)
            product = np.kron(np.diag([p, 1 - p]), np.diag([q, 1 - q])).astype(complex)
            assert chsh_max_general(DensityMatrix(product)) <= 2.0 + 1e-12

    def test_branch_formulas_match_correlation_route(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            s = random_xstate(rng)
            assert abs(chsh_max_x(s).bell - chsh_max_general(s.to_matrix())) < 1e-10

    def test_bell_is_max_of_branches(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            s = random_xstate(rng)
            branches = chsh_max_x(s)
            assert branches.bell == max(branches.branch1, branches.branch2)
            assert branches.bell <= TWO_SQRT2 + 1e-12


class TestClassification:
    def test_bell_state_two_way(self):
        assert classify_steering(BELL) is Regime.TWO_WAY

    def test_separable_no_way(self):
        rng = np.random.default_rng(3)
        assert classify_steering(random_separable_xstate(rng)) is Regime.NO_WAY

    @staticmethod
    def _interior_pair_state():
        # Interior-pair reduction at thermal argument 1: diagonal
        # (c^2/2, 0, 1/2, s^2/2) with corner cs/2; steers forward only.
        c2 = 1.0 / (1.0 + math.exp(-1.0))
        s2 = 1.0 - c2
        return XState(0.5 * c2, 0.0, 0.5, 0.5 * s2, 0.5 * math.sqrt(c2 * s2), 0.0)

    def test_one_way_forward(self):
        s = self._interior_pair_state()
        fwd = steerability(s, Direction.A_TO_B)
        bwd = steerability(s, Direction.B_TO_A)
        assert fwd > 1e-12 and bwd <= 1e-12
        assert classify_steering(s) is Regime.ONE_WAY_FORWARD

    def test_one_way_backward_is_mirror(self):
        s = self._interior_pair_state()
        # Swapping the qubits exchanges d22 with d33 and reverses the
        # steering direction.
        swapped = XState(s.d11, s.d33, s.d22, s.d44, s.c14, np.conj(s.c23))
        assert classify_steering(swapped) is Regime.ONE_WAY_BACKWARD
        assert abs(
            steerability(swapped, Direction.B_TO_A) - steerability(s, Direction.A_TO_B)
        ) < 1e-14

    def test_asymmetry_values(self):
        assert steering_asymmetry(BELL) == 0.0
        assert steering_asymmetry(MIXED) == 0.0
        expected = abs(
            steerability(LIMIT_AB, Direction.A_TO_B) - steerability(LIMIT_AB, Direction.B_TO_A)
        )
        assert abs(steering_asymmetry(LIMIT_AB) - expected) < 1e-15


class TestMeasureBundle:
    def test_bundle_is_consistent(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            s = random_xstate(rng)
            bundle = measure_xstate(s)
            assert bundle.bell == max(bundle.bell_branch1, bundle.bell_branch2)
            assert abs(bundle.asymmetry - abs(bundle.s_forward - bundle.s_backward)) < 1e-15
            assert bundle.concurrence == concurrence_x(s)
            assert bundle.regime is classify_steering(s)

    def test_rejects_wrong_dimension(self):
        single = DensityMatrix(0.5 * np.eye(2))
        with pytest.raises(ValueError):
            concurrence_general(single)
        with pytest.raises(ValueError):
            chsh_max_general(single)
        with pytest.raises(ValueError):
            steering_witness_matrix(single, Direction.A_TO_B)
