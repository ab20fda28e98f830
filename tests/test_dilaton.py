import decimal
import math
import re
from datetime import timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dilaton_steering
import dilaton_steering.dilaton as dl
from conftest import time_limit
from density_oracle import PAIR_MODES, PureState, from_pure, partial_trace, reduced, tripartite_state
from dilaton_steering import sweep
from dilaton_steering.dilaton import (
    CRITICAL_TOL,
    ConfigError,
    Pair,
    ResolutionError,
    amplitude_arrays,
    closed_measure_arrays,
    closed_xparams,
    critical_dilatons,
    find_critical_batch,
    monogamy_residual_arrays,
    pipeline_measure_arrays,
)
from dilaton_steering.sweep import REGIMES, regime_index
from spinflip_oracle import spinflip_concurrence

SQRT3 = math.sqrt(3.0)
EIGHT_PI = 8.0 * math.pi

# Closed-form critical dilatons at M = 1, omega = 1 (verified against
# independent bisection / golden-section on the witness margins).
D0_REF = 0.9781438029646212
D1_REF = 0.9475999102151271
D2_REF = 0.9875896801171044

MEASURE_FIELDS = ("s_forward", "s_backward", "concurrence", "bell_branch1", "bell_branch2", "bell_max")
# The dilaton next to the horizon at M = 1, where the extreme limits hold.
EXTREME = 1.0 - 1e-12


def closed_at(mass, omega, dilatons, pair):
    return closed_measure_arrays(*amplitude_arrays(mass, omega, dilatons)[1:], pair)


def pipeline_at(mass, omega, dilatons, pair):
    return pipeline_measure_arrays(*amplitude_arrays(mass, omega, dilatons)[3:], pair)


def regimes(vals):
    return [REGIMES[i] for i in regime_index(vals["s_forward"], vals["s_backward"])]


def residuals_at(mass, omega, dilatons):
    _, c2, s2, c, s = amplitude_arrays(mass, omega, dilatons)
    ab, abbar, bbbar = (closed_measure_arrays(c2, s2, c, s, pair) for pair in Pair)
    d0 = critical_dilatons(mass, [omega])["d0"][0]
    return monogamy_residual_arrays(ab, abbar, bbbar, dilatons, d0)


class TestParams:
    @pytest.mark.parametrize(
        "mass,dilaton,omega",
        [(0.0, 0.0, 1.0), (-1.0, 0.0, 1.0), (1.0, 1.0, 1.0), (1.0, 1.5, 1.0), (1.0, -0.1, 1.0), (1.0, 0.5, 0.0), (1.0, 0.5, -2.0)]
        + [(bad, 0.0, 1.0) for bad in (math.inf, -math.inf, math.nan)]
        + [(1.0, 0.5, bad) for bad in (math.inf, -math.inf, math.nan)],
    )
    def test_rejects_invalid(self, mass, dilaton, omega):
        with pytest.raises(ConfigError):
            tripartite_state(mass, dilaton, omega)


class TestDomainRule:
    """Every entry point takes (mass, omega) through `check_mass_and_omegas`."""

    ENTRY_POINTS = {
        "critical_dilatons": lambda mass, omega: critical_dilatons(mass, [1.0, omega]),
        "find_critical_batch": lambda mass, omega: find_critical_batch(mass, [1.0, omega]),
        "SweepConfig.validate": lambda mass, omega: sweep.SweepConfig(mass, (omega,)).validate(),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("argument", ["mass", "omega"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_rejects_a_mass_or_omega_off_the_domain(self, entry, argument, bad):
        point = {"mass": 1.0, "omega": 1.0, argument: bad}
        with pytest.raises(ConfigError, match=f"{argument}s? must"):
            self.ENTRY_POINTS[entry](point["mass"], point["omega"])

    def test_one_config_error_class(self):
        assert dilaton_steering.ConfigError is sweep.ConfigError is dl.ConfigError
        assert issubclass(ConfigError, ValueError)

    def test_batch_needs_a_frequency(self):
        with pytest.raises(ConfigError, match="at least one omega"):
            find_critical_batch(1.0, [])

    @pytest.mark.parametrize("omegas", [1.0, [[1.0, 2.0]]], ids=["scalar", "nested"])
    def test_batch_needs_a_flat_frequency_sequence(self, omegas):
        with pytest.raises(ConfigError, match="omegas must be a flat sequence"):
            find_critical_batch(1.0, omegas)

    def test_array_frequencies_print_as_floats(self):
        with pytest.raises(ConfigError, match=re.escape("got [1.0, inf]")):
            find_critical_batch(1.0, np.array([1.0, np.inf]))


class TestBogoliubov:
    def test_symmetric_limit(self):
        _, _, _, c, s = amplitude_arrays(1.0, 1.0, [EXTREME])
        assert abs(c[0] - 1.0 / math.sqrt(2.0)) < 1e-10
        assert abs(s[0] - 1.0 / math.sqrt(2.0)) < 1e-10

    def test_zero_dilaton_values(self):
        x, _, _, _, s = amplitude_arrays(1.0, 1.0, [0.0])
        assert abs(x[0] - EIGHT_PI) < 1e-12
        assert s[0] ** 2 < 1.3e-11 and s[0] > 0.0

    def test_hawking_temperature(self):
        # T_H = 1/(8 pi (M - D)) = omega / x.
        x, _, _, _, _ = amplitude_arrays(1.0, 1.0, [0.0])
        assert abs(1.0 / x[0] - 0.039788735772973836) < 1e-15

    def test_unitarity_across_grid(self):
        for omega in (0.5, 1.0, 2.0, 10.0):
            _, c2, s2, _, _ = amplitude_arrays(1.0, omega, np.linspace(0.0, 1.0 - 1e-9, 501))
            assert np.abs(c2 + s2 - 1.0).max() < 1e-14

    def test_amplitude_ordering(self):
        _, _, _, c, s = amplitude_arrays(1.0, 1.0, [0.0, 0.5, 0.9])
        assert np.all((0.0 < s) & (s < 1.0 / math.sqrt(2.0)) & (1.0 / math.sqrt(2.0) < c) & (c < 1.0))

    def test_no_overflow_for_large_argument(self):
        x, _, _, c, s = amplitude_arrays(1.0, 500.0, [0.0])
        assert c[0] == 1.0 and s[0] == 0.0 and math.isfinite(x[0])

    @pytest.mark.parametrize("x", [700.0, 708.5, 720.0, 740.0, 745.0, 800.0, 1400.0, 1490.0])
    def test_s_keeps_its_precision_where_e_to_the_minus_x_is_subnormal(self, x):
        # Reference s = sqrt(u/(1 + u)), u = e^{-x}, at 50 digits.
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            u = decimal.Decimal(-x).exp()
            reference = (u / (1 + u)).sqrt()
            s = float(dl._mixing(np.array([x]))[3][0])
            error = float(abs(decimal.Decimal(s) - reference))
        if reference >= decimal.Decimal(np.finfo(np.float64).tiny):
            assert error <= 4.0 * np.spacing(s)
        else:
            assert error <= 2.0 * 5e-324


class TestTripartiteState:
    def test_trace_and_purity(self):
        rho = tripartite_state(1.0, 0.3, 1.0)
        assert abs(rho.matrix.trace().real - 1.0) < 1e-14
        assert abs(rho.purity() - 1.0) < 1e-12

    def test_entries_match_literal_pattern(self):
        _, _, _, (c,), (s,) = amplitude_arrays(1.0, 1.0, [0.9])
        expected = np.zeros((8, 8), dtype=complex)
        expected[0, 0] = 0.5 * c * c
        expected[0, 3] = expected[3, 0] = 0.5 * c * s
        expected[0, 6] = expected[6, 0] = 0.5 * c
        expected[3, 3] = 0.5 * s * s
        expected[3, 6] = expected[6, 3] = 0.5 * s
        expected[6, 6] = 0.5
        assert np.abs(tripartite_state(1.0, 0.9, 1.0).matrix - expected).max() < 1e-15

    def test_zero_dilaton_is_bell_pair_with_empty_interior(self):
        # Residual interior weight at D = 0, omega = 1 is s/2 with
        # s = (e^{8 pi} + 1)^{-1/2}, about 1.7e-6.
        rho = tripartite_state(1.0, 0.0, 1.0)
        expected = np.zeros((8, 8), dtype=complex)
        expected[0, 0] = expected[0, 6] = expected[6, 0] = expected[6, 6] = 0.5
        assert np.abs(rho.matrix - expected).max() < 2e-6
        assert rho.matrix[3, 3].real < 1e-11

    def test_extreme_limit_corner_block(self):
        rho = tripartite_state(1.0, EXTREME, 1.0)
        half = 1.0 / math.sqrt(2.0)
        for (i, j), value in {(0, 0): 0.25, (0, 3): 0.25, (0, 6): 0.5 * half, (3, 3): 0.25, (3, 6): 0.5 * half, (6, 6): 0.5}.items():
            assert abs(rho.matrix[i, j] - value) < 1e-10


class TestReducedStates:
    def test_exterior_pair_limit_values(self):
        s = reduced(1.0, EXTREME, 1.0, Pair.AB)
        assert abs(s.d11 - 0.25) < 1e-10
        assert abs(s.d22 - 0.25) < 1e-10
        assert s.d33 == 0.0
        assert abs(s.d44 - 0.5) < 1e-12
        assert abs(s.c14 - 0.5 / math.sqrt(2.0)) < 1e-10
        assert s.c23 == 0.0

    def test_alice_interior_at_zero_dilaton_is_separable(self):
        s = reduced(1.0, 0.0, 1.0, Pair.ABBAR)
        assert abs(s.d11 - 0.5) < 1e-10
        assert abs(s.d33 - 0.5) < 1e-10
        assert s.d22 < 1e-10 and s.d44 == 0.0
        assert abs(s.c23) < 1e-5 and s.c14 == 0.0

    def test_interior_pair_limit_values(self):
        s = reduced(1.0, EXTREME, 1.0, Pair.BBBAR)
        assert abs(s.d11 - 0.25) < 1e-10
        assert s.d22 == 0.0
        assert abs(s.d33 - 0.5) < 1e-12
        assert abs(s.d44 - 0.25) < 1e-10
        assert abs(s.c14 - 0.25) < 1e-10

    @pytest.mark.parametrize("pair", list(Pair))
    def test_structural_zeros(self, pair):
        s = reduced(1.0, 0.4, 1.3, pair)
        if pair is Pair.AB:
            assert s.d33 == 0.0 and s.c23 == 0.0
        elif pair is Pair.ABBAR:
            assert s.d44 == 0.0 and s.c14 == 0.0
        else:
            assert s.d22 == 0.0 and s.c23 == 0.0

    @pytest.mark.parametrize("pair", list(Pair))
    def test_partial_trace_matches_literal_entries(self, pair):
        # The reduced matrices written directly in the mixing amplitudes.
        _, _, _, (c,), (s,) = amplitude_arrays(1.0, 0.8, [0.7])
        expected = np.zeros((4, 4), dtype=complex)
        if pair is Pair.AB:
            expected[0, 0], expected[1, 1], expected[3, 3] = 0.5 * c * c, 0.5 * s * s, 0.5
            expected[0, 3] = expected[3, 0] = 0.5 * c
        elif pair is Pair.ABBAR:
            expected[0, 0], expected[1, 1], expected[2, 2] = 0.5 * c * c, 0.5 * s * s, 0.5
            expected[1, 2] = expected[2, 1] = 0.5 * s
        else:
            expected[0, 0], expected[2, 2], expected[3, 3] = 0.5 * c * c, 0.5, 0.5 * s * s
            expected[0, 3] = expected[3, 0] = 0.5 * c * s
        assert np.abs(reduced(1.0, 0.7, 0.8, pair).to_matrix().matrix - expected).max() < 1e-12


class TestClosedForms:
    def test_exterior_pair_limit_anchors(self):
        m = closed_at(1.0, 1.0, [EXTREME], Pair.AB)
        assert abs(m["s_forward"][0] - 0.35566243270259357) < 1e-9
        assert abs(m["s_backward"][0] - 0.21132486540518708) < 1e-9
        assert abs(m["concurrence"][0] - 0.7071067811865475) < 1e-9
        assert abs(m["bell_max"][0] - 2.0) < 1e-6
        assert abs(m["bell_branch2"][0] - SQRT3) < 1e-6
        assert regimes(m) == ["two_way"]

    def test_interior_backward_steering_is_zero_everywhere(self):
        _, c2, s2, c, s = amplitude_arrays(1.0, 1.0, np.linspace(0.0, 1.0 - 1e-9, 2001))
        vals = closed_measure_arrays(c2, s2, c, s, Pair.BBBAR)
        assert np.all(vals["s_backward"] == 0.0)

    def test_alice_interior_at_zero_dilaton_is_uncorrelated(self):
        m = closed_at(1.0, 1.0, [0.0], Pair.ABBAR)
        assert m["s_forward"][0] < 1e-10
        assert m["s_backward"][0] == 0.0
        assert m["concurrence"][0] < 1e-5

    def test_exterior_pair_at_zero_dilaton_is_nearly_maximal(self):
        # Horizon mixing is negligible at D = 0, so the exterior pair keeps
        # the quantum maximum of the Bell signal.
        for route in (closed_at, pipeline_at):
            assert abs(route(1.0, 1.0, [0.0], Pair.AB)["bell_max"][0] - 2.0 * math.sqrt(2.0)) < 1e-9

    def test_asymmetry_at_birth_point_equals_forward_steering(self):
        # At the birth dilaton the backward steering is exactly zero, so
        # the asymmetry coincides with the forward value.
        d0 = critical_dilatons(1.0, [1.0])["d0"][0]
        m = closed_at(1.0, 1.0, [d0], Pair.ABBAR)
        assert m["s_backward"][0] <= 1e-12
        assert abs(m["asymmetry"][0] - m["s_forward"][0]) <= 1e-12

    @pytest.mark.parametrize("pair", list(Pair))
    def test_bell_is_max_of_branches(self, pair):
        _, c2, s2, c, s = amplitude_arrays(1.0, 1.0, np.linspace(0.0, 1.0 - 1e-9, 301))
        vals = closed_measure_arrays(c2, s2, c, s, pair)
        assert np.all(vals["bell_max"] >= vals["bell_branch1"] - 1e-15)
        assert np.all(vals["bell_max"] >= vals["bell_branch2"] - 1e-13)
        assert np.abs(
            vals["bell_max"] - np.maximum(vals["bell_branch1"], vals["bell_branch2"])
        ).max() < 1e-13

    @pytest.mark.parametrize("pair", list(Pair))
    def test_printed_branch_equals_rebuilt_branch2(self, pair):
        # The analytic single-branch expressions coincide with branch 2 of
        # the reduced states' correlation invariants.
        d = np.linspace(0.0, 1.0 - 1e-9, 501)
        _, c2, s2, c, s = amplitude_arrays(1.0, 1.0, d)
        vals = closed_measure_arrays(c2, s2, c, s, pair)
        d11, d22, d33, d44, a14, a23 = closed_xparams(c2, s2, c, s, pair)
        b2 = 2.0 * np.sqrt(4.0 * (a14 + a23) ** 2 + (d11 - d22 - d33 + d44) ** 2)
        assert np.abs(vals["bell_branch2"] - b2).max() < 1e-13

    def test_no_nonlocality_in_interior_partitions(self):
        d = np.linspace(0.0, 1.0 - 1e-6, 2001)
        for omega in (0.5, 1.0, 1.5, 2.0):
            _, c2, s2, c, s = amplitude_arrays(1.0, omega, d)
            for pair in (Pair.ABBAR, Pair.BBBAR):
                vals = closed_measure_arrays(c2, s2, c, s, pair)
                assert vals["bell_max"].max() <= 2.0 + 1e-12


class TestPaperClaimsOnTheDensityRoute:
    @settings(max_examples=300, deadline=None)
    @given(
        log_mass=st.floats(-8.0, 8.0),
        log_m_omega=st.floats(-8.0, 8.0),
        fraction=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_interior_pairs_are_local_and_concurrences_closed(self, log_mass, log_m_omega, fraction):
        # The steering of the pairs with an interior mode is not nonlocal,
        # so Bell nonlocality is not redistributed there; the spin-flip
        # concurrences are c, s and cs, down to s = 0 where the states
        # become rank 1.
        mass = 10.0**log_mass
        omega = 10.0**log_m_omega / mass
        _, _, _, c, s = amplitude_arrays(mass, omega, np.array([fraction * mass]))
        for pair, conc in ((Pair.AB, c), (Pair.ABBAR, s), (Pair.BBBAR, c * s)):
            vals = pipeline_measure_arrays(c, s, pair)
            if pair is not Pair.AB:
                assert vals["bell_max"][0] <= 2.0
            assert abs(vals["concurrence"][0] - conc[0]) <= 1e-10


class TestFactorRoute:
    @pytest.mark.parametrize("pair", list(Pair))
    def test_gram_of_the_factor_is_the_partial_trace(self, pair):
        # General three-mode vectors, not only the family's three amplitudes.
        rng = np.random.default_rng(11)
        v = rng.normal(size=(200, 8)) + 1j * rng.normal(size=(200, 8))
        v /= np.linalg.norm(v, axis=1)[:, None]
        m = dl._factor(v, pair)
        rho = dl._gram(m, m)
        for k in range(len(v)):
            expected = partial_trace(from_pure(PureState(v[k])), PAIR_MODES[pair]).matrix
            assert np.abs(rho[k] - expected).max() <= 1e-15

    @settings(max_examples=200, deadline=None)
    @given(
        log_mass=st.floats(-8.0, 8.0),
        log_m_omega=st.floats(-8.0, 8.0),
        fraction=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_concurrence_from_the_factor_matches_the_spinflip_oracle(self, log_mass, log_m_omega, fraction):
        mass = 10.0**log_mass
        omega = 10.0**log_m_omega / mass
        _, _, _, c, s = amplitude_arrays(mass, omega, np.array([fraction * mass]))
        for pair in Pair:
            m = dl._factor(dl._state_vectors(c, s, 1.0), pair)
            conc = pipeline_measure_arrays(c, s, pair)["concurrence"]
            assert abs(conc[0] - spinflip_concurrence(dl._gram(m, m))[0]) <= 1e-15


def complex_state_vectors(c, s, vacuum):
    """The batch route's stacked three-mode vectors as complex128: the reference of the real route."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    v = np.zeros((c.shape[0], 8), dtype=np.complex128)
    v[:, 0] = c * inv_sqrt2
    v[:, 3] = s * inv_sqrt2
    v[:, 6] = vacuum * inv_sqrt2
    return v


class TestRealRoute:
    @settings(max_examples=200, deadline=None)
    @given(
        log_mass=st.floats(-8.0, 8.0),
        log_m_omega=st.floats(-8.0, 8.0),
        fraction=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_real_stacks_give_the_complex_bits(self, log_mass, log_m_omega, fraction):
        mass = 10.0**log_mass
        omega = 10.0**log_m_omega / mass
        x, _, _, c, s = amplitude_arrays(mass, omega, np.array([fraction * mass]))

        def route():
            out = []
            for pair in Pair:
                vals = pipeline_measure_arrays(c, s, pair)
                out += [vals[key] for key in sorted(vals)]
                out += [dl._margin(x, pair, backward) for backward in (False, True)]
                out.append(dl._forward_margin_slope(x, pair))
            return out

        real = route()
        with mock.patch.object(dl, "_state_vectors", complex_state_vectors):
            reference = route()
        assert len(real) == 3 * 9
        for got, expected in zip(real, reference):
            assert got.dtype == np.float64
            assert got.tobytes() == expected.tobytes()


class TestDualPath:
    @pytest.mark.parametrize("pair", list(Pair))
    def test_pointwise_agreement(self, pair):
        dilatons = [0.0, 0.25, 0.5, 0.9, 0.97, 1.0 - 1e-9]
        for omega in (0.5, 1.0, 2.0):
            closed = closed_at(1.0, omega, dilatons, pair)
            pipe = pipeline_at(1.0, omega, dilatons, pair)
            for name in MEASURE_FIELDS:
                assert np.abs(closed[name] - pipe[name]).max() < 1e-10, name
            assert regimes(closed) == regimes(pipe)

    def test_regimes_match_the_known_structure(self):
        assert regimes(pipeline_at(1.0, 1.0, [0.99], Pair.ABBAR)) == ["two_way"]
        assert regimes(pipeline_at(1.0, 1.0, [0.99], Pair.BBBAR)) == ["no_way"]
        assert regimes(pipeline_at(1.0, 1.0, [0.95], Pair.ABBAR)) == ["one_way_fwd"]
        assert regimes(pipeline_at(1.0, 1.0, [0.95], Pair.AB)) == ["two_way"]


def in_range(d, mass):
    return 0.0 <= d < mass


class TestCriticalPoints:
    def test_closed_form_values(self):
        points = critical_dilatons(1.0, [1.0])
        assert abs(points["d0"][0] - D0_REF) < 1e-12
        assert abs(points["d1"][0] - D1_REF) < 1e-12
        assert abs(points["d2"][0] - D2_REF) < 1e-12
        assert all(in_range(points[name][0], 1.0) for name in ("d0", "d1", "d2"))

    def test_ordering_when_in_range(self):
        omegas = [0.08, 0.1, 0.5, 1.0, 3.0, 10.0]
        points = critical_dilatons(1.0, omegas)
        for k in range(len(omegas)):
            if in_range(points["d1"][k], 1.0):
                assert points["d1"][k] < points["d0"][k] < points["d2"][k] < 1.0

    def test_small_omega_is_out_of_range(self):
        points = critical_dilatons(1.0, [0.01])
        assert not any(in_range(points[name][0], 1.0) for name in ("d0", "d1", "d2"))
        assert points["d0"][0] < 0.0

    def test_arrays_align_with_the_omegas(self):
        # The closed forms of a list, as given, are those of each omega alone.
        omegas = [3.0, 0.01, 1.0, 3.0]
        points = critical_dilatons(2.0, omegas)
        assert set(points) == {"d0", "d1", "d2"}
        for name, values in points.items():
            assert values.shape == (4,)
            assert values.tolist() == [critical_dilatons(2.0, [w])[name][0] for w in omegas]

    def test_scaling_in_mass_and_frequency(self):
        (base,) = critical_dilatons(1.0, [1.0])["d0"]
        (heavier,) = critical_dilatons(2.0, [1.0])["d0"]
        assert abs((heavier - 2.0) - (base - 1.0)) < 1e-12
        (faster,) = critical_dilatons(1.0, [2.0])["d0"]
        assert abs((faster - 1.0) - 0.5 * (base - 1.0)) < 1e-12

    def test_numeric_agrees_with_closed_forms(self):
        found = find_critical_batch(1.0, [1.0])
        assert abs(found["d0"][0] - D0_REF) < 1e-8
        assert abs(found["d2"][0] - D2_REF) < 1e-8
        assert abs(found["d1"][0] - D1_REF) < 1e-6

    def test_numeric_agrees_at_other_parameters(self):
        for mass, omega in ((1.0, 0.5), (2.0, 1.0)):
            points = critical_dilatons(mass, [omega])
            found = find_critical_batch(mass, [omega])
            assert abs(found["d0"][0] - points["d0"][0]) < 1e-8
            assert abs(found["d2"][0] - points["d2"][0]) < 1e-8

    @pytest.mark.parametrize("pair", list(Pair))
    def test_margin_slope_matches_central_differences(self, pair):
        # The forward-mode derivative that locates d1, on every pair (a zero
        # coherence, as in abbar's c14, takes the flat-modulus branch).
        x = np.array([0.1, 0.5, 1.0, 2.0, 4.0])
        h = 1e-6
        fwd = lambda t: dl._margin(t, pair, backward=False)  # noqa: E731
        central = (fwd(x + h) - fwd(x - h)) / (2.0 * h)
        assert np.abs(dl._forward_margin_slope(x, pair) - central).max() < 1e-9

    def test_peak_agrees_to_1e_9(self):
        for mass, omega in ((1.0, 1.0), (1.0, 0.5), (2.0, 1.0)):
            d1 = critical_dilatons(mass, [omega])["d1"][0]
            assert abs(find_critical_batch(mass, [omega])["d1"][0] - d1) < 1e-9

    # M log-uniform over 24 decades; M omega over six, across the edges of
    # the range (d1 enters [0, M) near M omega = 0.05, d2 near 0.012).
    @settings(max_examples=80, deadline=timedelta(seconds=2))
    @given(log_mass=st.floats(-8.0, 16.0), log_m_omega=st.floats(-3.0, 3.0))
    def test_numeric_meets_the_gate_or_says_why_not(self, log_mass, log_m_omega):
        mass = 10.0**log_mass
        omega = 10.0**log_m_omega / mass
        points = critical_dilatons(mass, [omega])
        with time_limit(5.0):
            try:
                found = find_critical_batch(mass, [omega])
            except ResolutionError:
                # Below 2**29 the float spacing near M is under 1e-7: no excuse.
                assert mass >= 2.0**29
                return
        for name in ("d0", "d1", "d2"):
            numeric, closed = found[name][0], points[name][0]
            if math.isnan(numeric):
                # No root in the searched bracket.
                assert not in_range(closed, mass)
            else:
                assert abs(numeric - closed) <= CRITICAL_TOL

    def test_point_next_to_the_horizon_is_bracketed(self):
        # d2 = 1 - 6.2e-13 at omega 2e10: inside [0, M), closer to M than 1e-12.
        (d2,) = critical_dilatons(1.0, [2e10])["d2"]
        assert in_range(d2, 1.0)
        assert abs(find_critical_batch(1.0, [2e10])["d2"][0] - d2) < 1e-14

    def test_out_of_range_is_nan(self):
        found = find_critical_batch(1.0, [0.01])
        assert all(math.isnan(found[name][0]) for name in ("d0", "d1", "d2"))


class TestMonogamy:
    def test_identities_at_symmetric_limit(self):
        res = residuals_at(1.0, 1.0, [EXTREME])
        assert abs(res["r1"][0]) < 1e-12
        assert abs(res["r2"][0]) < 1e-12
        # Common value of the sum identity: 1 - 1/(2 sqrt 3).
        s_ab = closed_at(1.0, 1.0, [EXTREME], Pair.AB)["s_forward"][0]
        s_abbar = closed_at(1.0, 1.0, [EXTREME], Pair.ABBAR)["s_forward"][0]
        assert abs(s_ab + s_abbar - 0.7113248654051871) < 1e-10

    def test_backward_identities_hold_past_birth_point(self):
        res = residuals_at(1.0, 1.0, [0.99])
        assert res["valid"][0]
        assert abs(res["r3"][0]) < 1e-10
        assert abs(res["r4"][0]) < 1e-10

    def test_backward_identities_flagged_before_birth_point(self):
        res = residuals_at(1.0, 1.0, [0.5])
        assert not res["valid"][0]
        assert abs(res["r1"][0]) < 1e-12
        assert abs(res["r2"][0]) < 1e-12

    def test_forward_identities_hold_on_whole_range(self):
        res = residuals_at(1.0, 1.0, np.linspace(0.0, 1.0 - 1e-9, 101))
        assert np.abs(res["r1"]).max() < 1e-12
        assert np.abs(res["r2"]).max() < 1e-12


class TestFrequencyIndependenceAtExtremeLimit:
    def test_measures_match_across_frequencies(self):
        omegas = (0.5, 1.0, 2.0)
        for pair in Pair:
            bundles = [closed_at(1.0, w, [EXTREME], pair) for w in omegas]
            for name in ("s_forward", "s_backward", "concurrence", "bell_max"):
                values = [b[name][0] for b in bundles]
                assert max(values) - min(values) < 1e-9, (pair, name)


class TestMonotonicity:
    def test_coarse_grid_trends(self):
        d = np.linspace(0.0, 1.0 - 1e-6, 401)
        _, c2, s2, c, s = amplitude_arrays(1.0, 1.0, d)
        ab = closed_measure_arrays(c2, s2, c, s, Pair.AB)
        abbar = closed_measure_arrays(c2, s2, c, s, Pair.ABBAR)
        bbbar = closed_measure_arrays(c2, s2, c, s, Pair.BBBAR)
        assert np.all(np.diff(ab["s_forward"]) <= 1e-15)
        assert np.all(np.diff(ab["concurrence"]) <= 1e-15)
        assert np.all(np.diff(abbar["s_forward"]) >= -1e-15)
        assert np.all(np.diff(abbar["concurrence"]) >= -1e-15)
        assert np.all(np.diff(bbbar["concurrence"]) >= -1e-15)
        assert np.all(ab["s_forward"] >= ab["s_backward"] - 1e-15)
        assert np.all(abbar["s_forward"] >= abbar["s_backward"] - 1e-15)

    def test_interior_steering_rises_then_dies(self):
        d = np.linspace(0.0, 1.0 - 1e-6, 2001)
        _, c2, s2, c, s = amplitude_arrays(1.0, 1.0, d)
        fwd = closed_measure_arrays(c2, s2, c, s, Pair.BBBAR)["s_forward"]
        peak = int(np.argmax(fwd))
        step = d[1] - d[0]
        assert abs(d[peak] - D1_REF) <= step
        assert np.all(np.diff(fwd[: peak + 1]) >= -1e-15)
        dead = d >= D2_REF
        assert np.all(fwd[dead] == 0.0)
        alive = (d > 0.0) & (d < D2_REF)
        assert np.all(fwd[alive] > 0.0)

    # M log-uniform over 12 decades, M omega log-uniform in 0.1..30.
    @settings(max_examples=200, deadline=None)
    @given(log_mass=st.floats(-6.0, 6.0), log_m_omega=st.floats(-1.0, math.log10(30.0)))
    def test_interior_steering_peaks_at_d1_while_entanglement_rises(self, log_mass, log_m_omega):
        # The paper's shape claim, exactly on the float grid: the inaccessible
        # steering rises to its peak at d1 and falls after it, while the
        # inaccessible entanglement only grows with D.
        mass = 10.0**log_mass
        omega = 10.0**log_m_omega / mass
        (d1,) = critical_dilatons(mass, [omega])["d1"]
        assume(in_range(d1, mass))
        d = np.linspace(0.0, mass, 2001, endpoint=False)
        _, c2, s2, c, s = amplitude_arrays(mass, omega, d)
        bbbar = closed_measure_arrays(c2, s2, c, s, Pair.BBBAR)
        abbar = closed_measure_arrays(c2, s2, c, s, Pair.ABBAR)
        fwd = bbbar["s_forward"]
        peak = int(np.argmax(fwd))
        assert np.all(np.diff(fwd[: peak + 1]) >= 0.0)
        assert np.all(np.diff(fwd[peak:]) <= 0.0)
        assert abs(d[peak] - d1) <= d[1] - d[0]
        assert np.all(np.diff(abbar["concurrence"]) >= 0.0)
        assert np.all(np.diff(bbbar["concurrence"]) >= 0.0)
