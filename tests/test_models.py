import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SIGMA_X, SIGMA_Z, random_exact_model
from dephaser import linalg, models
from dephaser.errors import SizeCapError, TimeOrderError, ValidationError
from dephaser.linalg import hermitian_expm, random_hermitian, random_unitary
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


def _env_with_eigenvalues(w, seed):
    u = random_unitary(len(w), seed)
    return (u * np.asarray(w)) @ u.conj().T


class TestGramTensor:
    """The Gram-product tensor_array against the pointwise tensor_pairs."""

    @pytest.mark.parametrize(
        "weights, rank, negative",
        [([1.0, 0.0, 0.0], 1, False), ([0.5, 0.3, 0.2], 3, False), ([0.7, 0.3 + 1e-11, -1e-11], 3, True)],
        ids=["pure", "full-rank", "negative-eigenvalue"],
    )
    def test_matches_pointwise(self, weights, rank, negative):
        blocks = tuple(random_hermitian(3, 30 + j) for j in range(3))
        env = _env_with_eigenvalues(weights, 9) if rank > 1 else np.diag(weights).astype(complex)
        provider = ExactDephasingProvider(DephasingModel(blocks, env))
        b, sign = models._env_factor(provider.env)
        assert b.shape == (3, rank)
        assert bool((sign < 0).any()) == negative
        durations = (0.4, 0.0, 1.3)
        arr = provider.tensor_array(durations)
        assert arr.shape == (3, 3) * 3
        for idx in np.ndindex(*arr.shape):
            pairs = list(zip(idx[0::2], idx[1::2]))
            assert abs(arr[idx] - provider.tensor_pairs(pairs, durations)) < 1e-12

    def test_analytic_outer_product(self, markov_qubit_provider):
        durations = (0.3, 0.0, 1.1, 0.7)
        arr = markov_qubit_provider.tensor_array(durations)
        assert arr.shape == (2, 2) * 4
        for idx in np.ndindex(*arr.shape):
            pairs = list(zip(idx[0::2], idx[1::2]))
            assert abs(arr[idx] - markov_qubit_provider.tensor_pairs(pairs, durations)) < 1e-14

    def test_analytic_cap(self, markov_qubit_provider):
        with pytest.raises(SizeCapError):
            markov_qubit_provider.tensor_array([0.1] * 12)


class TestValidatedBlocks:
    def test_first_step_makes_no_hermiticity_check(self, monkeypatch):
        model = random_exact_model(3, 4, seed=2)
        calls = []
        real = linalg.check_hermitian

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(linalg, "check_hermitian", counting)
        monkeypatch.setattr(models, "check_hermitian", counting)
        provider = ExactDephasingProvider(model)
        provider.step(np.ones((3, 3, 4, 4), dtype=complex), 0.7)
        assert calls == []

    def test_blocks_and_environment_are_read_only_copies(self):
        h, env = SIGMA_X.copy(), np.diag([1.0, 0.0]).astype(complex)
        model = DephasingModel((SIGMA_Z, h), env)
        h[0, 1] = 5.0
        env[0, 0] = 0.0
        assert model.blocks[1][0, 1] == 1.0 and model.env_state[0, 0] == 1.0
        with pytest.raises(ValueError):
            model.blocks[0][0, 0] = 2.0
        with pytest.raises(ValueError):
            model.env_state[0, 0] = 0.5


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


class TestArrayDurationsWiderEnvironments:
    """The array step is bitwise stacked scalar steps on larger environment blocks too.

    ``step`` issues one fixed-shape product per (batch row, block), so a row's
    arithmetic must not depend on the batch around it.
    """

    @pytest.mark.parametrize(
        "d, big_d", [(3, 3), (3, 4), (2, 4), (5, 2)], ids=["exact-d3-D3", "exact-d3-D4", "exact-d2-D4", "exact-d5-D2"]
    )
    def test_equals_stacked_scalar_steps(self, d, big_d):
        provider = ExactDephasingProvider(random_exact_model(d, big_d, seed=11 * d + big_d))
        rng = np.random.default_rng(d * big_d)
        shape = (5, 3, d, d, big_d, big_d)
        state = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        dt = np.array([0.4, 1.7, 0.4, 0.0, 2.3])
        batched = provider.step(state, dt.reshape(-1, 1))
        assert np.array_equal(batched, np.stack([provider.step(s, float(t)) for s, t in zip(state, dt)]))
        # and a single row, stepped alone, is the same row of a larger batch
        assert np.array_equal(provider.step(state[2:3], dt[2:3].reshape(-1, 1))[0], batched[2])

    def test_matches_per_block_products(self):
        # S[j, l] -> U_j S[j, l] U_l†, block by block, against the propagators
        provider = ExactDephasingProvider(random_exact_model(3, 4, seed=5))
        rng = np.random.default_rng(8)
        state = rng.standard_normal((2, 3, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 3, 4, 4))
        out = provider.step(state, 0.83)
        for r, j, l in np.ndindex(2, 3, 3):
            expected = provider.propagator(j, 0.83) @ state[r, j, l] @ provider.propagator(l, 0.83).conj().T
            assert np.max(np.abs(out[r, j, l] - expected)) < 1e-13


class TestDephasingTable:
    @pytest.mark.parametrize(
        "provider",
        [ExactDephasingProvider(random_exact_model(3, 2, seed=41)), ARRAY_STEP_PROVIDERS[2]],
        ids=["exact-d3-D2", "analytic-d3"],
    )
    def test_bitwise_equal_to_dephasing_matrix(self, provider):
        times = [0.3, 1.4, 0.8, 1.4, 2.9]
        table = models.DephasingTable(provider, times)
        # the repeated time 1.4 gives the pair (1.4, 1.4)
        for s, t in itertools.combinations(sorted(times), 2):
            assert np.array_equal(table.dephasing_matrix(t, s), provider.dephasing_matrix(t, s))
        with pytest.raises(KeyError):
            table.dephasing_matrix(0.3, 0.3)

    def test_one_step_for_all_pairs(self, zx_model):
        durations = []

        class CountingProvider(ExactDephasingProvider):
            def step(self, state, dt):
                durations.append(np.shape(dt))
                return super().step(state, dt)

        models.DephasingTable(CountingProvider(zx_model), [0.5, 1.0, 2.0, 3.5])
        assert durations == [(6,)]

    def test_chunks_match_one_step(self, zx_model, monkeypatch):
        times = [0.2, 0.5, 1.0, 2.0, 3.5]
        whole = models.DephasingTable(ExactDephasingProvider(zx_model), times)
        durations = []

        class CountingProvider(ExactDephasingProvider):
            def step(self, state, dt):
                durations.append(len(dt))
                return super().step(state, dt)

        # 4 pairs of d²·D² = 16 entries per step
        monkeypatch.setattr(models, "TERM_CAP", 64)
        chunked = models.DephasingTable(CountingProvider(zx_model), times)
        assert durations == [4, 4, 2]
        for s, t in itertools.combinations(times, 2):
            assert np.array_equal(chunked.dephasing_matrix(t, s), whole.dephasing_matrix(t, s))

    def test_time_order_and_empty_grid(self, zx_provider):
        table = models.DephasingTable(zx_provider, [0.5, 1.0])
        with pytest.raises(TimeOrderError):
            table.dephasing_matrix(0.5, 1.0)
        with pytest.raises(KeyError):
            table.dephasing_matrix(2.0, 1.0)
        with pytest.raises(KeyError):
            models.DephasingTable(zx_provider, []).dephasing_matrix(1.0, 0.5)

    def test_reads_match_provider(self, zx_model):
        times = [0.0, 0.4, 0.9, 1.7]
        provider = ExactDephasingProvider(zx_model)
        table = models.DephasingTable(provider, times)
        assert semigroup_deficit(table, 0.0, 0.4, 1.7) == semigroup_deficit(provider, 0.0, 0.4, 1.7)
        assert triviality_check(table, times) == triviality_check(provider, times)

    def test_overflowing_phase_rejected(self):
        provider = ExactDephasingProvider(DephasingModel((10 * SIGMA_Z, SIGMA_X), np.eye(2) / 2))
        with pytest.raises(ValidationError):
            models.DephasingTable(provider, [1.0, 2.0, 1e308])


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

    @given(
        d=st.integers(2, 3),
        big_d=st.integers(1, 3),
        raw=st.lists(st.integers(0, 12), min_size=3, max_size=6),
        max_order=st.integers(2, 4),
        seed=seeds,
    )
    @settings(max_examples=12, deadline=None)
    def test_walk_matches_per_selection_reference(self, d, big_d, raw, max_order, seed):
        # times on a coarse lattice, so repeats (zero durations) occur
        model = random_exact_model(d, big_d, seed)
        times = [0.25 * t for t in raw]
        deficit, detail = models.markovianity_deficit_detail(model, times, max_order)
        provider = ExactDephasingProvider(model)
        index_pairs = list(itertools.product(range(d), repeat=2))
        reference, tuples = 0.0, 0
        for n in range(2, max_order + 1):
            for sel in itertools.combinations(sorted(times), n + 1):
                durations = [t2 - t1 for t1, t2 in zip(sel, sel[1:])]
                phi = [{p: provider.tensor_pairs([p], [dt]) for p in index_pairs} for dt in durations]
                for pairs in itertools.product(index_pairs, repeat=n):
                    factored = np.prod([phi[k][p] for k, p in enumerate(pairs)])
                    reference = max(reference, abs(provider.tensor_pairs(pairs, durations) - factored))
                    tuples += 1
        assert abs(deficit - reference) < 1e-12
        assert detail == {"exhaustive": True, "tuples": tuples, "orders": list(range(2, max_order + 1))}

    @pytest.mark.parametrize(
        "model, times, max_order",
        [
            # the shipped markovianity config: 5 times, orders 2..4
            (get_preset("scalar-phases"), [0.3, 0.8, 1.4, 2.1, 2.9], 4),
            # an evenly spaced grid: 10 pairs but 4 distinct durations
            (random_exact_model(3, 2, seed=4), [0.0, 0.5, 1.0, 1.5, 2.0], 3),
        ],
        ids=["shipped-config", "repeated-durations"],
    )
    def test_one_exponentiation_per_distinct_duration(self, monkeypatch, model, times, max_order):
        calls = []
        real = models.spectral_expm

        def counting(w, v, tau):
            calls.append(np.asarray(tau).ravel().copy())
            return real(w, v, tau)

        monkeypatch.setattr(models, "spectral_expm", counting)
        models.markovianity_deficit(model, times, max_order)
        durations = {t2 - t1 for t1, t2 in itertools.combinations(sorted(times), 2)}
        assert len(calls) == 1
        assert sorted(calls[0]) == sorted(durations)

    def test_chunked_levels_match_unchunked(self, monkeypatch):
        model = random_exact_model(3, 2, seed=6)
        times = [0.2, 0.9, 1.3, 2.0, 2.6, 3.1]
        whole = markovianity_deficit(model, times, 4)
        # a budget of a few hundred entries per level: chunks of one or two rows
        monkeypatch.setattr(models, "TERM_CAP", 4 * 800)
        assert markovianity_deficit(model, times, 4) == whole

    def test_work_cap_checked_before_any_propagator(self, zx_model, monkeypatch):
        def forbidden(*args):
            raise AssertionError("no eigendecomposition or propagator before the cap check")

        with monkeypatch.context() as patch:
            patch.setattr(models, "hermitian_eigh", forbidden)
            patch.setattr(models, "spectral_expm", forbidden)
            # 60 times up to order 30: the first terms of the closed form pass the cap
            with pytest.raises(SizeCapError):
                markovianity_deficit(zx_model, [0.05 * k for k in range(60)], 30)
            # 4 times up to order 3 compare C(4, 3)·2^4 + C(4, 4)·2^6 = 128 entries
            patch.setattr(models, "MARKOV_WORK_CAP", 127)
            with pytest.raises(SizeCapError):
                markovianity_deficit(zx_model, [0.0, 0.5, 1.0, 1.5], 3)
        monkeypatch.setattr(models, "MARKOV_WORK_CAP", 128)
        assert models.markovianity_deficit_detail(zx_model, [0.0, 0.5, 1.0, 1.5], 3)[1]["tuples"] == 128

    def test_unitaries_of_many_durations_capped_before_any_propagator(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("no eigendecomposition or propagator before the cap check")

        monkeypatch.setattr(models, "hermitian_eigh", forbidden)
        monkeypatch.setattr(models, "spectral_expm", forbidden)
        # d = 2, D = 64, 220 distinct times at order 2: C(220, 3)·2^4 = 2.8e7 compared
        # entries pass the work cap, but the U_j of the 24090 distinct durations hold
        # 24090·2·64² = 2.0e8 entries, over TERM_CAP
        blocks = tuple(np.diag(np.linspace(-1.0, 1.0, 64) * (j + 1)).astype(complex) for j in range(2))
        model = DephasingModel(blocks, np.eye(64, dtype=complex) / 64)
        times = np.random.default_rng(0).uniform(0.0, 10.0, 220)
        with pytest.raises(SizeCapError):
            markovianity_deficit(model, times, 2)

    def test_walk_memory_within_cap(self, monkeypatch):
        # a full-rank D = 8 environment over 40 times: 39 distinct durations, 780
        # pairs and 9880 selections; with a budget of 2·10^4 entries (320 kB) per
        # walk, the unchunked walk would hold ~45 MB and per-pair U_j 1.6 MB
        model = random_exact_model(2, 8, seed=3)
        times = [float(t) for t in range(40)]
        whole = markovianity_deficit(model, times, 2)
        monkeypatch.setattr(models, "TERM_CAP", 20_000)
        tracemalloc.start()
        try:
            assert markovianity_deficit(model, times, 2) == whole
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 20_000 * 16


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
