import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SIGMA_X, SIGMA_Z, random_exact_model
from dephaser import models
from dephaser.errors import SizeCapError, TimeOrderError, ValidationError
from dephaser.linalg import hermitian_expm
from dephaser.models import (
    DephasingModel,
    ExactDephasingProvider,
    IndexPairChain,
    MarkovianAnalyticModel,
    MarkovianAnalyticProvider,
    commutativity_check,
    exact_tensor,
    markovian_tensor,
    markovianity_deficit,
    semigroup_deficit,
    tensor_collapse_check,
    triviality_check,
)
from dephaser.presets import get_preset

seeds = st.integers(min_value=0, max_value=10_000)


class TestIndexPairChain:
    def test_length_mismatch(self):
        with pytest.raises(Exception):
            IndexPairChain(((0, 1),), (0.0, 1.0, 2.0))

    def test_time_order(self):
        with pytest.raises(TimeOrderError):
            IndexPairChain(((0, 1),), (1.0, 0.0))

    def test_durations(self):
        c = IndexPairChain(((0, 1), (1, 0)), (0.0, 0.5, 2.0))
        assert c.durations == (0.5, 1.5)


class TestExactTensor:
    def test_diagonal_chain_is_one(self):
        model = random_exact_model(3, 3, seed=2)
        chain = IndexPairChain(((0, 0), (2, 2), (1, 1)), (0.0, 0.3, 0.9, 1.4))
        assert abs(exact_tensor(model, chain) - 1.0) < 1e-12

    def test_scalar_blocks_phase(self):
        omega0 = 1.7
        model = DephasingModel(
            (np.array([[0.0]], dtype=complex), np.array([[omega0]], dtype=complex)),
            np.array([[1.0]], dtype=complex),
        )
        tau = 0.8
        val = exact_tensor(model, IndexPairChain(((0, 1),), (0.0, tau)))
        assert abs(val - np.exp(1j * omega0 * tau)) < 1e-12

    def test_zx_closed_form(self, zx_model):
        # tr[rho_B e^{i tau sx} e^{-i tau sz}] = cos(tau) e^{-i tau}
        tau = np.pi / 4
        val = exact_tensor(zx_model, IndexPairChain(((0, 1),), (0.0, tau)))
        assert abs(val - (0.5 - 0.5j)) < 1e-12

    def test_index_out_of_range(self, zx_provider):
        with pytest.raises(ValidationError):
            zx_provider.tensor(IndexPairChain(((0, 2),), (0.0, 1.0)))

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_modulus_bounded(self, seed):
        model = random_exact_model(2, 3, seed)
        provider = ExactDephasingProvider(model)
        rng = np.random.default_rng(seed)
        pairs = tuple((int(rng.integers(2)), int(rng.integers(2))) for _ in range(3))
        durations = rng.random(3)
        assert abs(provider.tensor_pairs(pairs, durations)) <= 1 + 1e-10

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_swap_conjugates(self, seed):
        model = random_exact_model(3, 2, seed)
        provider = ExactDephasingProvider(model)
        rng = np.random.default_rng(seed)
        pairs = [(int(rng.integers(3)), int(rng.integers(3))) for _ in range(3)]
        durations = rng.random(3)
        forward = provider.tensor_pairs(pairs, durations)
        swapped = provider.tensor_pairs([(l, j) for j, l in pairs], durations)
        assert abs(swapped - np.conj(forward)) < 1e-12

    @given(seed=seeds, k=st.integers(0, 2))
    @settings(max_examples=25, deadline=None)
    def test_inserted_zero_duration_diagonal_pair(self, seed, k):
        model = random_exact_model(2, 2, seed)
        provider = ExactDephasingProvider(model)
        rng = np.random.default_rng(seed)
        pairs = [(int(rng.integers(2)), int(rng.integers(2))) for _ in range(2)]
        durations = list(rng.random(2))
        base = provider.tensor_pairs(pairs, durations)
        extended = provider.tensor_pairs(
            pairs[:k] + [(0, 0)] + pairs[k:], durations[:k] + [0.0] + durations[k:]
        )
        assert abs(base - extended) < 1e-12

    def test_tensor_array_matches_pointwise(self, zx_provider):
        durations = (0.4, 0.7)
        arr = zx_provider.tensor_array(durations)
        for idx in np.ndindex(*arr.shape):
            pairs = [(idx[0], idx[1]), (idx[2], idx[3])]
            assert abs(arr[idx] - zx_provider.tensor_pairs(pairs, durations)) < 1e-13


class TestBlockPropagation:
    """tensor_array (propagated with ``step``) against the pointwise tensor_pairs."""

    @pytest.mark.parametrize(
        "provider",
        [
            ExactDephasingProvider(random_exact_model(3, 3, seed=21)),
            MarkovianAnalyticProvider(
                MarkovianAnalyticModel(
                    np.array([[0.0, 0.8, -0.3], [-0.8, 0.0, 1.1], [0.3, -1.1, 0.0]]),
                    np.array([[0.0, 0.5, 0.2], [0.5, 0.0, 0.9], [0.2, 0.9, 0.0]]),
                )
            ),
        ],
        ids=["exact-d3-D3", "analytic-d3"],
    )
    def test_tensor_array_matches_pointwise(self, provider):
        durations = (0.4, 0.9, 0.3)
        arr = provider.tensor_array(durations)
        assert arr.shape == (3, 3) * 3
        for idx in np.ndindex(*arr.shape):
            pairs = list(zip(idx[0::2], idx[1::2]))
            assert abs(arr[idx] - provider.tensor_pairs(pairs, durations)) < 1e-13
        assert abs(provider.tensor_array(()) - 1.0) < 1e-15

    def test_cap_checked_before_any_propagator(self, zx_provider):
        # 2^24 pair chains times D^2 = 4 environment entries exceed the budget
        with pytest.raises(SizeCapError):
            zx_provider.tensor_array([0.1] * 12)
        assert zx_provider._prop_cache == {}


class TestPropagator:
    def test_equals_hermitian_expm(self):
        model = random_exact_model(3, 4, 17)
        provider = ExactDephasingProvider(model)
        for dt in (0.0, 0.37, 1.9, -0.6):
            for j in range(model.d):
                assert np.array_equal(provider.propagator(j, dt), hermitian_expm(model.blocks[j], dt))

    def test_one_eigendecomposition_per_block(self, zx_model, monkeypatch):
        calls = []
        real = models.hermitian_eigh

        def counting(h):
            calls.append(h)
            return real(h)

        monkeypatch.setattr(models, "hermitian_eigh", counting)
        provider = ExactDephasingProvider(zx_model)
        for dt in (0.1, 0.2, 0.3):
            provider.step(np.ones((2, 2, 2, 2), dtype=complex), dt)
        assert len(calls) == zx_model.d

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_duration_rejected(self, zx_provider, dt):
        with pytest.raises(ValidationError):
            zx_provider.propagator(0, dt)


ARRAY_STEP_PROVIDERS = [
    ExactDephasingProvider(random_exact_model(3, 2, seed=41)),
    ExactDephasingProvider(random_exact_model(2, 1, seed=5)),
    MarkovianAnalyticProvider(
        MarkovianAnalyticModel(
            np.array([[0.0, 0.8, -0.3], [-0.8, 0.0, 1.1], [0.3, -1.1, 0.0]]),
            np.array([[0.0, 0.5, 0.2], [0.5, 0.0, 0.9], [0.2, 0.9, 0.0]]),
        )
    ),
]


class TestArrayDurations:
    """step(state, dt_array) against one scalar step per row of the batch."""

    @pytest.mark.parametrize("provider", ARRAY_STEP_PROVIDERS, ids=["exact-d3-D2", "exact-d2-D1", "analytic-d3"])
    def test_equals_stacked_scalar_steps(self, provider):
        rng = np.random.default_rng(3)
        d, big_d = provider.d, provider.env.shape[0]
        # a batch of 6 rows, each with two outcome axes of 2; durations repeat
        shape = (6, 2, 2, d, d, big_d, big_d)
        state = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        dt = np.array([0.7, 0.0, 1.3, 0.7, 2.9, 1.3])
        batched = provider.step(state, dt.reshape(-1, 1, 1))
        assert np.array_equal(batched, np.stack([provider.step(s, float(t)) for s, t in zip(state, dt)]))
        # one duration per outcome of the second axis instead
        batched = provider.step(state, dt[:2].reshape(1, 2))
        assert np.array_equal(batched, np.stack([provider.step(state[:, :, x], float(dt[x])) for x in range(2)], axis=2))

    @pytest.mark.parametrize("provider", ARRAY_STEP_PROVIDERS, ids=["exact-d3-D2", "exact-d2-D1", "analytic-d3"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entry_rejected(self, provider, bad):
        d, big_d = provider.d, provider.env.shape[0]
        state = np.ones((3, d, d, big_d, big_d), dtype=complex)
        with pytest.raises(ValidationError):
            provider.step(state, np.array([0.5, bad, 1.0]))

    def test_overflowing_phase_rejected(self):
        # 1e308 is finite, but the phase 1e308·w overflows for |w| = 10
        provider = ExactDephasingProvider(DephasingModel((10 * SIGMA_Z, SIGMA_X), np.eye(2) / 2))
        with pytest.raises(ValidationError):
            provider.step(np.ones((2, 2, 2, 2, 2), dtype=complex), np.array([1.0, 1e308]))

    def test_one_eigendecomposition_per_block(self, zx_model, monkeypatch):
        calls = []
        real = models.hermitian_eigh

        def counting(h):
            calls.append(h)
            return real(h)

        monkeypatch.setattr(models, "hermitian_eigh", counting)
        provider = ExactDephasingProvider(zx_model)
        state = np.ones((3, 2, 2, 2, 2), dtype=complex)
        provider.step(state, np.array([0.1, 0.2, 0.1]))
        provider.step(state, np.array([0.4, 0.5, 0.6]))
        provider.step(state[0], 0.3)
        assert len(calls) == zx_model.d


class TestMarkovianModel:
    def test_symmetry_validation(self):
        with pytest.raises(ValidationError):
            MarkovianAnalyticModel(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            MarkovianAnalyticModel(np.zeros((2, 2)), np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_single_interval(self, markov_qubit):
        eps, gamma, tau = 0.8, 0.5, 1.3
        val = markovian_tensor(markov_qubit, IndexPairChain(((0, 1),), (0.0, tau)))
        assert abs(val - np.exp(-(1j * eps + gamma / 2) * tau)) < 1e-14

    def test_semigroup_by_construction(self, markov_qubit):
        tau = 0.6
        two_steps = markovian_tensor(markov_qubit, IndexPairChain(((0, 1), (0, 1)), (0.0, tau, 2 * tau)))
        one_step = markovian_tensor(markov_qubit, IndexPairChain(((0, 1),), (0.0, 2 * tau)))
        assert abs(two_steps - one_step) < 1e-14

    def test_conjugate_pair_cancellation(self, markov_qubit):
        tau, gamma = 0.6, 0.5
        val = markovian_tensor(markov_qubit, IndexPairChain(((0, 1), (1, 0)), (0.0, tau, 2 * tau)))
        assert abs(val - np.exp(-gamma * tau)) < 1e-14

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_factorization_identity(self, seed):
        eps = np.array([[0.0, 0.8], [-0.8, 0.0]])
        gamma = np.array([[0.0, 0.5], [0.5, 0.0]])
        markov_qubit_provider = MarkovianAnalyticProvider(MarkovianAnalyticModel(eps, gamma))
        rng = np.random.default_rng(seed)
        pairs = [(int(rng.integers(2)), int(rng.integers(2))) for _ in range(4)]
        durations = rng.random(4)
        val = markov_qubit_provider.tensor_pairs(pairs, durations)
        product = 1.0 + 0j
        for (j, l), dt in zip(pairs, durations):
            product *= markov_qubit_provider.tensor_pairs([(j, l)], [dt])
        assert abs(val - product) < 1e-14


class TestDephasingMatrix:
    def test_equal_times_all_ones(self, zx_provider):
        assert np.max(np.abs(zx_provider.dephasing_matrix(0.7, 0.7) - np.ones((2, 2)))) < 1e-12

    def test_equal_blocks_all_ones(self):
        h = np.array([[1.0, 0.3], [0.3, -0.5]], dtype=complex)
        model = DephasingModel((h, h), np.diag([0.6, 0.4]).astype(complex))
        phi = ExactDephasingProvider(model).dephasing_matrix(1.9, 0.0)
        assert np.max(np.abs(phi - np.ones((2, 2)))) < 1e-12

    def test_markov_qubit_entries(self, markov_qubit_provider):
        t, s = 2.0, 0.5
        phi = markov_qubit_provider.dephasing_matrix(t, s)
        expected = np.exp(-(1j * 0.8 + 0.25) * (t - s))
        assert abs(phi[0, 1] - expected) < 1e-14
        assert abs(phi[1, 0] - np.conj(expected)) < 1e-14
        assert np.allclose(np.diag(phi), 1.0)

    def test_conjugate_symmetry_exact(self, zx_provider):
        phi = zx_provider.dephasing_matrix(1.1, 0.2)
        assert np.max(np.abs(phi - phi.conj().T)) < 1e-12

    def test_time_order_error(self, zx_provider):
        with pytest.raises(TimeOrderError):
            zx_provider.dephasing_matrix(0.0, 1.0)


class TestMarkovianityDeficit:
    def test_scalar_blocks_factorize(self):
        model = DephasingModel(
            (np.array([[0.0]], dtype=complex), np.array([[2.3]], dtype=complex)),
            np.array([[1.0]], dtype=complex),
        )
        assert markovianity_deficit(model, [0.0, 0.4, 0.9, 1.5, 2.0], 4) < 1e-12

    def test_equal_blocks_factorize(self):
        h = np.array([[1.0, 0.3], [0.3, -0.5]], dtype=complex)
        model = DephasingModel((h, h), np.diag([0.6, 0.4]).astype(complex))
        assert markovianity_deficit(model, [0.0, 0.5, 1.0, 1.5], 3) < 1e-12

    def test_commuting_nontrivial_violates(self):
        model = DephasingModel(
            (np.diag([1.0, -1.0]).astype(complex), np.diag([0.0, 2.0]).astype(complex)),
            np.diag([0.7, 0.3]).astype(complex),
        )
        assert commutativity_check(model)
        assert markovianity_deficit(model, [0.0, 0.7, 1.4, 2.1], 2) > 1e-3

    def test_one_dephasing_matrix_per_distinct_pair(self, monkeypatch):
        # the shipped markovianity config: 5 times, orders 2..4
        calls = []
        real = ExactDephasingProvider.tensor_array

        def counting(self, durations):
            calls.append(tuple(durations))
            return real(self, durations)

        monkeypatch.setattr(ExactDephasingProvider, "tensor_array", counting)
        markovianity_deficit(get_preset("scalar-phases"), [0.3, 0.8, 1.4, 2.1, 2.9], 4)
        # 16 selections of 3..5 times, plus 9 distinct consecutive pairs (all
        # pairs but the first and last time, which no selection puts adjacent)
        assert len(calls) == 16 + 9
        single = [c for c in calls if len(c) == 1]
        assert len(single) == len(set(single)) == 9

    def test_subsampled_path_runs(self, zx_model):
        # force the subsample branch with a tiny cap
        deficit = markovianity_deficit(zx_model, [0.0, 0.5, 1.0, 1.5], 2, enum_cap=1, subsample=200)
        assert deficit > 1e-3


class TestSemigroupDeficit:
    def test_analytic_model_zero(self, markov_qubit_provider):
        assert semigroup_deficit(markov_qubit_provider, 0.0, 0.8, 1.7) < 1e-14

    def test_scalar_env_zero(self):
        model = DephasingModel(
            (np.array([[0.0]], dtype=complex), np.array([[1.1]], dtype=complex)),
            np.array([[1.0]], dtype=complex),
        )
        assert semigroup_deficit(ExactDephasingProvider(model), 0.0, 0.3, 0.9) < 1e-12

    def test_zx_violates(self, zx_provider):
        # brute-force both sides of the three relevant matrix entries
        t0, t1, t2 = 0.0, np.pi / 8, np.pi / 4
        full = zx_provider.dephasing_matrix(t2, t0)
        split = zx_provider.dephasing_matrix(t2, t1) * zx_provider.dephasing_matrix(t1, t0)
        expected = np.max(np.abs(full - split))
        assert expected > 1e-4
        assert abs(semigroup_deficit(zx_provider, t0, t1, t2) - expected) < 1e-14


class TestCommutativity:
    def test_diagonal_blocks(self):
        model = DephasingModel(
            (np.diag([1.0, 2.0]).astype(complex), np.diag([3.0, -1.0]).astype(complex)),
            np.diag([0.5, 0.5]).astype(complex),
        )
        assert commutativity_check(model)

    def test_pauli_blocks(self, zx_model):
        assert not commutativity_check(zx_model)

    def test_polynomial_family(self):
        from dephaser.linalg import random_density, random_hermitian

        h = random_hermitian(3, 5)
        blocks = (h, h @ h - 0.5 * h, 2.0 * h @ h @ h + h)
        model = DephasingModel(blocks, random_density(3, 6))
        assert commutativity_check(model, tol=1e-10)


class TestTriviality:
    def test_equal_blocks_trivial(self):
        h = np.array([[1.0, 0.3], [0.3, -0.5]], dtype=complex)
        model = DephasingModel((h, h), np.diag([0.6, 0.4]).astype(complex))
        assert triviality_check(ExactDephasingProvider(model), [0.0, 0.5, 1.0])

    def test_scalar_blocks_trivial(self):
        model = DephasingModel(
            (np.array([[0.0]], dtype=complex), np.array([[1.1]], dtype=complex)),
            np.array([[1.0]], dtype=complex),
        )
        assert triviality_check(ExactDephasingProvider(model), [0.0, 0.7, 1.9])

    def test_decaying_markovian_not_trivial(self, markov_qubit_provider):
        gamma = 0.5
        assert not triviality_check(markov_qubit_provider, [0.0, 1.0 / gamma])
        phi = markov_qubit_provider.dephasing_matrix(1.0 / gamma, 0.0)
        assert abs(abs(phi[0, 1]) - np.exp(-0.5)) < 1e-12


class TestTensorCollapse:
    def test_final_diagonal_pair_always_collapses(self):
        model = random_exact_model(2, 3, seed=13)
        provider = ExactDephasingProvider(model)
        chain = IndexPairChain(((0, 1), (1, 1)), (0.0, 0.6, 1.5))
        assert tensor_collapse_check(provider, chain, 1) < 1e-12

    def test_interior_pair_markovian(self, markov_qubit_provider):
        chain = IndexPairChain(((0, 0), (0, 1)), (0.0, 0.6, 1.5))
        assert tensor_collapse_check(markov_qubit_provider, chain, 0) < 1e-14

    def test_interior_pair_noncommuting_fails(self, zx_provider):
        # env |0><0| is sigma_z-invariant, so the diagonal pair must use
        # the sigma_x block to rotate the environment state
        chain = IndexPairChain(((1, 1), (0, 1)), (0.0, 0.6, 1.5))
        assert tensor_collapse_check(zx_provider, chain, 0) > 1e-6

    def test_requires_diagonal_pair(self, zx_provider):
        chain = IndexPairChain(((0, 1), (0, 1)), (0.0, 0.6, 1.5))
        with pytest.raises(ValidationError):
            tensor_collapse_check(zx_provider, chain, 0)
