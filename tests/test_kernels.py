import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chsh_oracle
import sampling
import spinflip_oracle as oracle
from dilaton_steering import kernels


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(2024)
    d11, d22, d33, d44, c14, c23 = sampling.random_xstate_params(rng, 5000)
    return {
        "params": (d11, d22, d33, d44, np.abs(c14), np.abs(c23)),
        "matrices": sampling.xstate_matrices(d11, d22, d33, d44, c14, c23),
    }


def random_states(rng, n, rank, dtype=float):
    """n random two-qubit states of the given rank, with every entry nonzero (not X states).

    Real by default, as `kernels.chsh_max` takes them; the spin-flip
    oracle's own tests draw complex states.
    """
    g = rng.normal(size=(n, 4, rank))
    if dtype is complex:
        g = g + 1j * rng.normal(size=(n, 4, rank))
    rhos = g @ np.conj(np.swapaxes(g, 1, 2))
    return rhos / np.trace(rhos, axis1=1, axis2=2).real[:, None, None]


def gap_of_factor(g):
    """`kernels.pair_gap` of the state g g^T / tr(g g^T) for stacked real 4x2 or 4x1 factors g."""
    g = np.moveaxis(g / np.linalg.norm(g, axis=(1, 2))[:, None, None], 0, -1)
    w = g[:, 1] if g.shape[1] == 2 else np.zeros_like(g[:, 0])
    return kernels.pair_gap(g[:, 0], w)


def column_chsh(rhos):
    """`kernels.chsh_max` of a row-major (n, 4, 4) stack, moved to one state per column."""
    return kernels.chsh_max(np.moveaxis(rhos, 0, -1))


class TestBatchMatchesScalarApi:
    def test_xstate_measures_match_measure_functions(self, batch):
        # Each state's values are the ones a one-state stack gives.
        stacked = kernels.xstate_measures(*batch["params"])
        for i in range(0, 200):
            single = kernels.xstate_measures(*(p[i : i + 1] for p in batch["params"]))
            assert [v[i] for v in stacked] == [v[0] for v in single]

    def test_oracles_match_closed_forms(self, batch):
        _, _, b1, b2, conc = kernels.xstate_measures(*batch["params"])
        conc_oracle = oracle.spinflip_concurrence(batch["matrices"])
        bell_oracle = chsh_oracle.chsh_max_eigvalsh(batch["matrices"])
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
        assert abs(oracle.spinflip_concurrence(m)[0] - expected) < 1e-13

    def test_chsh_of_pure_corner_state(self):
        m = sampling.xstate_matrices(
            np.array([0.5]), np.array([0.0]), np.array([0.0]), np.array([0.5]),
            np.array([0.5]), np.array([0.0]),
        ).real
        assert abs(column_chsh(m)[0] - 2.0 * np.sqrt(2.0)) < 1e-12

    def test_chsh_matches_trace_definition_on_general_states(self):
        # Full-rank states with every coherence nonzero, not only X states.
        rng = np.random.default_rng(17)
        g = rng.normal(size=(50, 4, 4))
        rhos = g @ np.swapaxes(g, 1, 2)
        rhos /= np.trace(rhos, axis1=1, axis2=2)[:, None, None]
        for rho, bell in zip(rhos, column_chsh(rhos)):
            t = np.array([[np.trace(rho @ p).real for p in row] for row in chsh_oracle.PAULI_PRODUCTS])
            ev = np.linalg.eigvalsh(t.T @ t)
            assert abs(bell - 2.0 * np.sqrt(ev[1] + ev[2])) < 1e-12

    def test_separable_states_have_zero_concurrence(self):
        rng = np.random.default_rng(9)
        pars = sampling.random_separable_xstate_params(rng, 2000)
        mats = sampling.xstate_matrices(*pars)
        assert oracle.spinflip_concurrence(mats).max() <= 1e-10


class TestSpinFlipConcurrence:
    @pytest.mark.parametrize("rank", [1, 2])
    def test_low_rank_matches_the_pair_gap(self, rank):
        # The density route's closed gap, on general states of rank <= 2.
        rng = np.random.default_rng(rank)
        g = rng.normal(size=(2000, 4, rank))
        rhos = g @ np.swapaxes(g, 1, 2)
        rhos /= np.trace(rhos, axis1=1, axis2=2)[:, None, None]
        assert np.abs(oracle.spinflip_concurrence(rhos) - gap_of_factor(g)).max() <= 1e-14

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_matches_textbook_wootters(self, rank):
        rhos = random_states(np.random.default_rng(10 + rank), 300, rank, complex)
        checked = 0
        for rho, conc in zip(rhos, oracle.spinflip_concurrence(rhos)):
            lam = oracle.wootters_lambdas(rho, rank)
            # Well conditioned: every kept root is far from 0, where the
            # square root would magnify the eigenvalue error.
            if lam[rank - 1] < 1e-3:
                continue
            checked += 1
            assert abs(conc - max(0.0, lam[0] - lam[1:].sum())) <= 1e-10
        assert checked >= 200

    def test_separable_rank_two_states_are_zero_to_eps(self):
        # Mixtures of two product states: sigma1 = sigma2 in exact
        # arithmetic, and the SVD must not lose that to cancellation.
        rng = np.random.default_rng(3)

        def qubits(n):
            q = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
            return q / np.linalg.norm(q, axis=1, keepdims=True)

        rhos = np.zeros((1000, 4, 4), dtype=np.complex128)
        for weight in (0.3, 0.7):
            v = (qubits(1000)[:, :, None] * qubits(1000)[:, None, :]).reshape(-1, 4)
            rhos += weight * v[:, :, None] * v[:, None, :].conj()
        assert oracle.spinflip_concurrence(rhos).max() <= 1e-14

    def test_mixed_stack_keeps_row_order(self):
        rng = np.random.default_rng(5)
        low, full = random_states(rng, 60, 2, complex), random_states(rng, 40, 4, complex)
        order = rng.permutation(100)
        mixed = np.concatenate([low, full])[order]
        conc = oracle.spinflip_concurrence(mixed)
        expected = np.concatenate(
            [oracle.spinflip_concurrence(low), oracle.spinflip_concurrence(full)]
        )
        assert np.array_equal(conc, expected[order])

    def test_empty_stack(self):
        conc = oracle.spinflip_concurrence(np.zeros((0, 4, 4), dtype=np.complex128))
        assert conc.shape == (0,)

    @pytest.mark.parametrize("factor", [0.8, 1.25])
    def test_third_eigenvalue_at_the_clip(self, factor):
        # The third eigenvalue sits just below or just above the clip, and
        # either way the concurrence is the gap of the rank-2 part: below
        # the clip its clipped columns are exact zeros, above it the
        # kept root moves the value by far less than the root itself.
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.normal(size=(50, 4, 4)))
        spectrum = np.array([0.0, factor * oracle.EIG_CLIP * 0.6, 0.4, 0.6])
        rhos = (q * spectrum) @ np.swapaxes(q, 1, 2)
        gap = gap_of_factor(q[:, :, 2:] * np.sqrt(spectrum[2:]))
        assert np.abs(oracle.spinflip_concurrence(rhos) - gap).max() <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rank=st.sampled_from([1, 2]),
        log_lam2=st.floats(-16.0, math.log10(0.5)),
    )
    def test_low_rank_states_in_any_frame_match_the_pair_gap(self, seed, rank, log_lam2):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        lam2 = 10.0**log_lam2 if rank == 2 else 0.0
        rho = (q[:, :2] * [1.0 - lam2, lam2]) @ q[:, :2].T
        rhos = (0.5 * (rho + rho.T))[None]
        gap = gap_of_factor((q[:, :2] * np.sqrt([1.0 - lam2, lam2]))[None])
        assert abs(oracle.spinflip_concurrence(rhos)[0] - gap[0]) <= 1e-13

    @pytest.mark.parametrize("support", [(1, 2), (0, 3), (1, 2, 3), (0, 2, 3), (2, 3)])
    def test_states_with_empty_diagonal_entries(self, support):
        # Zero diagonal entries off the support.
        rng = np.random.default_rng(len(support))
        g = np.zeros((200, 4, 2))
        g[:, support] = rng.normal(size=(200, len(support), 2))
        rhos = g @ np.swapaxes(g, 1, 2)
        rhos /= np.trace(rhos, axis1=1, axis2=2)[:, None, None]
        assert np.abs(oracle.spinflip_concurrence(rhos) - gap_of_factor(g)).max() <= 1e-14

    def test_a_row_major_pair_is_refused(self):
        g = np.random.default_rng(6).normal(size=(4, 2, 5))
        u, w = g[:, 0], g[:, 1]
        assert kernels.pair_gap(u, w).shape == (5,)
        for bad in ((u.T, w.T), (u, w[:, :4])):
            with pytest.raises(ValueError, match=r"\(4, n\)"):
                kernels.pair_gap(*bad)

    def test_zero_rows_are_zero_without_warning(self):
        rhos = random_states(np.random.default_rng(8), 6, 2, complex)
        rhos[[1, 4]] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            conc = oracle.spinflip_concurrence(rhos)
        assert conc[1] == 0.0 and conc[4] == 0.0
        assert np.all(conc[[0, 2, 3, 5]] > 0.0)

    @pytest.mark.parametrize("hermitian", [False, True], ids=["one-entry", "hermitian-pair"])
    @pytest.mark.parametrize(
        "entry", [(i, j) for i in range(4) for j in range(4)], ids=lambda e: f"rho{e[0]}{e[1]}"
    )
    def test_nan_rows_never_reach_eigh(self, monkeypatch, entry, hermitian):
        # A NaN anywhere makes its row NaN without reaching eigh (which reads
        # one triangle only, and would give a number for a NaN in the
        # other); the other rows keep their bits.
        clean = random_states(np.random.default_rng(4), 3, 2, complex)
        expected = oracle.spinflip_concurrence(clean)
        rhos = clean.copy()
        i, j = entry
        rhos[1, i, j] = np.nan
        if hermitian:
            rhos[1, j, i] = np.nan
        stacks = []
        eigh = np.linalg.eigh

        def recorded(a, *args, **kwargs):
            stacks.append(a.copy())
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        got = oracle.spinflip_concurrence(rhos)
        assert stacks and all(np.isfinite(a).all() for a in stacks)
        assert np.isnan(got[1])
        np.testing.assert_array_equal(got[[0, 2]], expected[[0, 2]])


def local_y_rotations(rng, n):
    """n random real local rotations R_y(a) (x) R_y(b), as an (n, 4, 4) stack.

    On a real state they turn the correlation matrix in the x-z plane,
    T -> O_a T O_b^T, so K's spectrum stays and its (x, z) block leaves
    the diagonal.
    """
    half = 0.5 * rng.uniform(0.0, 2.0 * np.pi, size=(2, n))
    cos, sin = np.cos(half), np.sin(half)
    ry = np.stack([np.stack([cos, -sin], axis=-1), np.stack([sin, cos], axis=-1)], axis=-2)
    return np.einsum("nij,nkl->nikjl", ry[0], ry[1]).reshape(n, 4, 4)


def in_random_frames(rng, rhos):
    u = local_y_rotations(rng, rhos.shape[0])
    return u @ rhos @ np.swapaxes(u, 1, 2)


CHSH_OF_DTYPE = {np.float64: column_chsh, np.complex128: chsh_oracle.chsh_max_eigvalsh}


class TestChshMax:
    @pytest.mark.parametrize("kind", ["full-rank", "pure", "complex-x", "rotated-x"])
    def test_matches_eigvalsh_reference(self, kind):
        rng = np.random.default_rng(21)
        if kind in ("complex-x", "rotated-x"):
            # A local phase makes both coherences of an X state real and keeps
            # its CHSH value, so the kernel takes the real image of each state.
            d11, d22, d33, d44, c14, c23 = sampling.random_xstate_params(rng, 3000)
            rhos = sampling.xstate_matrices(d11, d22, d33, d44, c14, c23)
            real = sampling.xstate_matrices(d11, d22, d33, d44, np.abs(c14), np.abs(c23)).real.copy()
            if kind == "rotated-x":
                rhos = real = in_random_frames(rng, real)
        else:
            rhos = real = random_states(rng, 3000, 4 if kind == "full-rank" else 1)
        got = column_chsh(real)
        assert np.abs(got - chsh_oracle.chsh_max_eigvalsh(rhos)).max() <= 1e-14

    def test_real_states_have_no_xy_yx_yz_zy_correlations(self):
        # chsh_max rests on this: the real parts of sigma_x (x) sigma_y, sigma_y (x)
        # sigma_x, sigma_y (x) sigma_z and sigma_z (x) sigma_y are zero, so K of a real
        # state is K_yy beside an (x, z) block, which is not diagonal in general.
        assert [i for i, terms in enumerate(kernels._TERMS) if not terms] == [1, 3, 5, 7]
        rng = np.random.default_rng(25)
        for rank in (1, 2, 3, 4):
            ks = chsh_oracle.correlation_products(random_states(rng, 500, rank))
            assert np.all(ks[:, 0, 1] == 0.0) and np.all(ks[:, 1, 2] == 0.0)
            assert np.all(ks[:, 0, 2] != 0.0)

    @pytest.mark.parametrize(
        "correlations",
        [(0.5, -0.1, 0.5), (0.1, -0.8, 0.1), (0.4, -0.4, 0.4), (0.9, 0.0, 0.0), (math.sqrt(0.5), 0.0, 1e-10)],
        ids=["double-top", "double-bottom", "triple", "rank-1", "near-rank-1"],
    )
    def test_degenerate_spectra_in_random_frames(self, correlations):
        # Bell-diagonal states (1 + sum_i t_i sigma_i (x) sigma_i)/4, whose K has the
        # spectrum t_i^2, Werner states among them; local rotations leave the
        # spectrum and turn the (x, z) block off its diagonal.
        rng = np.random.default_rng(22)
        bell = 0.25 * (np.eye(4) + np.einsum("i,iiab->ab", correlations, chsh_oracle.PAULI_PRODUCTS).real)
        assert np.linalg.eigvalsh(bell).min() >= 0.0
        rhos = in_random_frames(rng, np.broadcast_to(bell, (2000, 4, 4)))
        assert np.count_nonzero(chsh_oracle.correlation_products(rhos)[:, 0, 2]) > 1000
        assert np.abs(column_chsh(rhos) - chsh_oracle.chsh_max_eigvalsh(rhos)).max() <= 1e-14

    def test_diagonal_k_is_returned_with_eigvalsh_bits(self):
        # eigvalsh returns a diagonal matrix's sorted diagonal exactly while its
        # largest entry is above about 1e-146, where LAPACK starts to rescale.
        # Real X states scaled so that K's entries span 1e-100..1; equal
        # coherences make K_yy zero.
        rng = np.random.default_rng(23)
        d11, d22, d33, d44, c14, c23 = sampling.random_xstate_params(rng, 3000)
        a14, a23 = np.abs(c14), np.abs(c23)
        a14[::7] = a23[::7] = np.minimum(a14[::7], a23[::7])
        rhos = sampling.xstate_matrices(d11, d22, d33, d44, a14, a23).real
        rhos *= 10.0 ** rng.uniform(-50.0, 0.0, size=(3000, 1, 1))
        ks = chsh_oracle.correlation_products(rhos)
        assert not np.any(ks[:, [0, 0, 1], [1, 2, 2]])
        assert np.all(ks[::7, 1, 1] == 0.0)
        assert ks.max(axis=(1, 2)).min() > 1e-146
        assert np.array_equal(column_chsh(rhos), chsh_oracle.chsh_max_eigvalsh(rhos))

    def test_only_a_block_beyond_eps_of_diagonal_is_rotated(self):
        # Werner-like states, K = t^2 (1, 1, 1), with rho13 = rho31 = u eps t / 2: then
        # T_xz = u eps t and K_zx = u eps t^2, against the bound eps sqrt(K_zz) sqrt(K_xx)
        # = eps t^2. Below it K keeps its diagonal's bits; above it the rotation moves
        # K_xx and K_zz by about an ulp.
        rng = np.random.default_rng(28)
        t = rng.uniform(0.1, 0.3, size=2000)
        werner = 0.25 * (np.eye(4) + t[:, None, None] * np.einsum("iiab->ab", chsh_oracle.PAULI_PRODUCTS).real)
        plain = column_chsh(werner)

        def tilted(lo, hi):
            rhos = werner.copy()
            rhos[:, 0, 2] = rhos[:, 2, 0] = 0.5 * np.finfo(float).eps * t * rng.uniform(lo, hi, size=t.size)
            assert np.all(chsh_oracle.correlation_products(rhos)[:, 0, 2] != 0.0)
            return column_chsh(rhos)

        assert tilted(0.25, 0.9).tobytes() == plain.tobytes()
        assert np.any(tilted(1.1, 2.0) != plain)

    @pytest.mark.parametrize(
        "coherences, d11",
        [((1e160, 1e160), 0.25), ((-1e160, 1e160), 0.25), ((0.0, 0.0), 1e160)],
        ids=["K_xx", "K_yy", "K_zz"],
    )
    def test_an_x_state_whose_k_overflows_gives_nan(self, coherences, d11):
        # T is finite and K_zx = 0, but one diagonal entry of K overflows.
        rng = np.random.default_rng(29)
        d = rng.dirichlet(np.ones(4), size=3)
        c = 0.1 * rng.uniform(-1.0, 1.0, size=(2, 3))
        c[:, 1], d[1, 0] = coherences, d11
        rhos = sampling.xstate_matrices(*d.T, *c).real
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = column_chsh(rhos)
        assert np.isnan(got[1]) and np.all(np.isfinite(got[[0, 2]]))

    def test_x_states_with_real_coherences_keep_the_reference_bits(self):
        rng = np.random.default_rng(24)
        d11, d22, d33, d44, c14, c23 = sampling.random_xstate_params(rng, 3000)
        rhos = sampling.xstate_matrices(d11, d22, d33, d44, np.abs(c14), np.abs(c23)).real.copy()
        ks = chsh_oracle.correlation_products(rhos)
        assert not np.any(ks[:, [0, 0, 1], [1, 2, 2]])
        assert np.array_equal(column_chsh(rhos), chsh_oracle.chsh_max_eigvalsh(rhos))

    @pytest.mark.parametrize("width", [1, 3, 4096, 4097])
    def test_each_state_keeps_its_bits_in_any_stack(self, width):
        # General states, where T sums every table term: a one-column BLAS product
        # would sum them in another order than a wide one.
        rng = np.random.default_rng(width)
        rhos = np.moveaxis(random_states(rng, width, 4), 0, -1)
        whole = kernels.chsh_max(rhos)
        for idx in sampling.column_subsets(rng, width):
            assert kernels.chsh_max(rhos[:, :, idx]).tobytes() == whole[idx].tobytes(), idx[:4]

    def test_a_row_major_stack_is_refused(self):
        rhos = random_states(np.random.default_rng(27), 5, 4)
        with pytest.raises(ValueError, match=r"\(4, 4, n\)"):
            kernels.chsh_max(rhos)

    # The kernel takes real stacks only; a complex stack is the complex-general
    # reference's, which must keep the same contract so that the two compare.
    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "entry", [(0, 0), (0, 3), (2, 1), (3, 3)], ids=lambda e: f"rho{e[0]}{e[1]}"
    )
    def test_non_finite_row_gives_nan(self, entry, value, dtype):
        chsh = CHSH_OF_DTYPE[dtype]
        draw = complex if dtype is np.complex128 else float
        clean = random_states(np.random.default_rng(26), 3, 4, draw)
        expected = chsh(clean)
        rhos = clean.copy()
        rhos[1][entry] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = chsh(rhos)
        assert np.isnan(got[1])
        np.testing.assert_array_equal(got[[0, 2]], expected[[0, 2]])

    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_empty_stack(self, dtype):
        assert CHSH_OF_DTYPE[dtype](np.zeros((0, 4, 4), dtype=dtype)).shape == (0,)

    def test_a_complex_stack_is_refused(self):
        # (|00> + i|11>)/sqrt(2) reaches 2 sqrt(2) through T_xy = T_yx = 1. The
        # real table drops those imaginary parts, which would give 2.0.
        psi = np.array([1.0, 0.0, 0.0, 1.0j]) / math.sqrt(2.0)
        rhos = np.outer(psi, psi.conj())[None]
        np.testing.assert_allclose(chsh_oracle.chsh_max_eigvalsh(rhos), [2.0 * math.sqrt(2.0)], rtol=1e-15)
        for stack in (rhos, rhos.astype(np.complex64), rhos.real.astype(np.float32)):
            with pytest.raises(TypeError, match="float64"):
                column_chsh(stack)
