import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SIGMA_X, SIGMA_Z, random_exact_model
import reference
from reference import (
    commutativity_check,
    factorization_deficit,
    markovianity_deficit,
    random_hermitian,
    random_unitary,
    tensor_collapse_check,
)
from dephaser import linalg, models
from dephaser.errors import ShapeError, SizeCapError, TimeOrderError, ValidationError
from dephaser.linalg import hermitian_expm
from dephaser.measurements import ProjectiveMeasurement, fourier_mub
from dephaser.models import (
    DephasingModel,
    ExactDephasingProvider,
    MarkovianAnalyticModel,
    MarkovianAnalyticProvider,
    semigroup_deficit,
    triviality_check,
)
from dephaser.presets import get_preset
from dephaser.statistics import ncgd_deficit, sandwich_identity_deficit

seeds = st.integers(min_value=0, max_value=10_000)


class TestExactTensor:
    def test_diagonal_chain_is_one(self):
        model = random_exact_model(3, 3, seed=2)
        value = ExactDephasingProvider(model).tensor_pairs(((0, 0), (2, 2), (1, 1)), (0.3, 0.6, 0.5))
        assert abs(value - 1.0) < 1e-12

    def test_scalar_blocks_phase(self):
        omega0 = 1.7
        model = DephasingModel(
            (np.array([[0.0]], dtype=complex), np.array([[omega0]], dtype=complex)),
            np.array([[1.0]], dtype=complex),
        )
        tau = 0.8
        val = ExactDephasingProvider(model).tensor_pairs(((0, 1),), (tau,))
        assert abs(val - np.exp(1j * omega0 * tau)) < 1e-12

    def test_zx_closed_form(self, zx_model):
        # tr[rho_B e^{i tau sx} e^{-i tau sz}] = cos(tau) e^{-i tau}
        tau = np.pi / 4
        val = ExactDephasingProvider(zx_model).tensor_pairs(((0, 1),), (tau,))
        assert abs(val - (0.5 - 0.5j)) < 1e-12

    @pytest.mark.parametrize("provider", ["zx_provider", "markov_qubit_provider"], ids=["exact", "analytic"])
    @pytest.mark.parametrize("pair", [lambda d: (0, d), lambda d: (-1, 0)], ids=["0-d", "minus-one-0"])
    def test_index_out_of_range(self, request, provider, pair):
        # (-1, 0) must not wrap to the (d - 1, 0) value
        provider = request.getfixturevalue(provider)
        with pytest.raises(ValidationError):
            provider.tensor_pairs([pair(provider.d)], [0.7])

    @pytest.mark.parametrize("provider", ["zx_provider", "markov_qubit_provider"], ids=["exact", "analytic"])
    def test_negative_duration(self, request, provider):
        # a backward interval has no value (0.770+0.421j on qubit-zx is not one)
        provider = request.getfixturevalue(provider)
        with pytest.raises(TimeOrderError):
            provider.tensor_pairs([(0, 1)], [-0.5])
        with pytest.raises(TimeOrderError):
            provider.tensor_pairs([(0, 1), (1, 0)], [0.5, -1e-300])
        assert abs(provider.tensor_pairs([(0, 1)], [0.0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("provider", ["zx_provider", "markov_qubit_provider"], ids=["exact", "analytic"])
    @pytest.mark.parametrize("pair", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    @pytest.mark.parametrize("dt", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_duration(self, request, provider, pair, dt):
        # the analytic provider used to return 1+0j for ((0, 0), nan) and 0j for ((0, 1), inf)
        provider = request.getfixturevalue(provider)
        with pytest.raises(ValidationError):
            provider.tensor_pairs([pair], [dt])

    @pytest.mark.parametrize("provider", ["zx_provider", "markov_qubit_provider"], ids=["exact", "analytic"])
    def test_pairs_and_durations_mismatch(self, request, provider):
        # an unmatched pair or duration must not be dropped
        provider = request.getfixturevalue(provider)
        for pairs, durations in ((((0, 1), (0, 1)), (0.5,)), (((0, 1),), (0.5, 0.5))):
            with pytest.raises(ShapeError):
                provider.tensor_pairs(pairs, durations)

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
    """tensor_array against the pointwise tensor_pairs."""

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

    def test_one_exponentiation_for_all_durations(self, monkeypatch):
        durations = (0.4, 0.9, 0.4, 0.3)
        calls = []
        real = models.spectral_expm

        def counting(w, v, tau):
            calls.append(np.asarray(tau).ravel().copy())
            return real(w, v, tau)

        monkeypatch.setattr(models, "spectral_expm", counting)
        ExactDephasingProvider(random_exact_model(3, 3, seed=21)).tensor_array(durations)
        assert len(calls) == 1 and np.array_equal(calls[0], durations)

    def test_cap_checked_before_any_propagator(self, zx_provider, monkeypatch):
        # 2^24 pair chains times D^2 = 4 environment entries exceed the budget
        def forbidden(*args):
            raise AssertionError("no propagator before the cap check")

        monkeypatch.setattr(models, "spectral_expm", forbidden)
        with pytest.raises(SizeCapError):
            zx_provider.tensor_array([0.1] * 12)
        assert zx_provider._batch is None
        assert "_eigh" not in vars(zx_provider)

    def test_cap_checked_before_any_eigendecomposition(self, zx_model, monkeypatch):
        def forbidden(*args):
            raise AssertionError("no eigendecomposition or propagator before the cap check")

        monkeypatch.setattr(models, "hermitian_eigh", forbidden)
        monkeypatch.setattr(models, "spectral_expm", forbidden)
        with pytest.raises(SizeCapError):
            ExactDephasingProvider(zx_model).tensor_array([0.1] * 12)


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
        provider.dephasings(0.7)
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


    def test_blocks_stacked_once_read_only(self, monkeypatch):
        blocks = [random_hermitian(2, seed) for seed in (1, 2, 3)]
        model = DephasingModel(tuple(blocks), np.diag([0.6, 0.4]).astype(complex))
        assert isinstance(model.blocks, np.ndarray) and not model.blocks.flags.writeable
        assert model.blocks.tobytes() == np.stack(blocks).tobytes() and model.blocks.shape == (3, 2, 2)
        assert (model.d, model.env_dim, len(model.blocks)) == (3, 2, 3)
        assert all(np.array_equal(a, b) for a, b in zip(model.blocks, blocks))
        # a mismatched block is named before any stacking
        with pytest.raises(ShapeError, match="block H_1"):
            DephasingModel((SIGMA_Z, np.eye(3)), np.diag([1.0, 0.0]).astype(complex))
        # every provider of the model decomposes the stored stack itself, once
        calls = []
        monkeypatch.setattr(models, "hermitian_eigh", lambda h: calls.append(h) or linalg.hermitian_eigh(h))
        for _ in range(2):
            ExactDephasingProvider(model).dephasings(np.array([0.3, 0.8]))
        assert len(calls) == 2 and all(h is model.blocks for h in calls)

    @pytest.mark.parametrize("j", [0, 1])
    @pytest.mark.parametrize(
        "block, error, message",
        [
            ([[np.nan, 0.0], [0.0, 0.0]], ValidationError, "block H_{j}: contains NaN/Inf entries"),
            ([[0.0, 1.0], [0.0, 0.0]], ValidationError, "block H_{j}: not Hermitian, max |M - M†| = 1.000e+00 > 1e-12"),
            # M - M† past the double range: refused by the stacked check's fallback, unwarned
            (
                [[0.5, 1e308], [-1e308, 0.5]],
                ValidationError,
                "block H_{j}: not Hermitian, max |M - M†| = inf > 1e-12",
            ),
            ([[1.0, 0.0], [0.0, -1.0], [0.0, 0.0]], ShapeError, "block H_{j}: expected a non-empty square matrix, got shape (3, 2)"),
            ([1.0, -1.0], ShapeError, "block H_{j}: expected a 2-d array, got ndim=1"),
        ],
        ids=["nan", "not-hermitian", "huge-anti-hermitian", "not-square", "not-2-d"],
    )
    def test_failing_block_named_with_the_per_block_message(self, j, block, error, message):
        blocks = [SIGMA_Z, SIGMA_X]
        blocks[j] = np.asarray(block, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as caught:
                DephasingModel(tuple(blocks), np.diag([1.0, 0.0]).astype(complex))
        assert type(caught.value) is error and str(caught.value) == message.format(j=j)

    @pytest.mark.parametrize(
        "blocks, error, message",
        [
            ((SIGMA_Z, np.eye(3)), ShapeError, "DephasingModel: block H_1 has shape (3, 3), expected (2, 2)"),
            ((np.eye(3), SIGMA_Z, SIGMA_X), ShapeError, "DephasingModel: block H_1 has shape (2, 2), expected (3, 3)"),
            ((), ValidationError, "DephasingModel: need at least one block"),
            # two failing blocks: the first is named
            ((SIGMA_Z, np.diag([np.inf, 0.0]), np.triu(np.ones((2, 2)))), ValidationError, "block H_1: contains NaN/Inf entries"),
        ],
        ids=["wrong-shape", "wrong-shape-after-a-wider-first", "no-blocks", "first-of-two-failing"],
    )
    def test_stack_faults_keep_their_messages(self, blocks, error, message):
        with pytest.raises(error) as caught:
            DephasingModel(blocks, np.diag([1.0, 0.0]).astype(complex))
        assert type(caught.value) is error and str(caught.value) == message

    def test_valid_blocks_stacked_bitwise(self):
        blocks = [random_hermitian(3, seed) for seed in (4, 5)] + [np.diag([1, 2, 3])]
        model = DephasingModel(tuple(blocks), np.eye(3, dtype=complex) / 3)
        assert model.blocks.dtype == complex and model.blocks.tobytes() == np.stack(blocks).astype(complex).tobytes()


class TestBasisPairCoefficients:
    """The Kraus coefficients of two outcome bases, kept by contents in one bounded memo."""

    @staticmethod
    def pairs():
        identity = np.eye(3, dtype=complex)[None]
        mub, general = fourier_mub(3).bases, ProjectiveMeasurement(projectors=_rank_two_pvm()).bases
        return [(identity, mub), (mub, mub), (identity, general), (general, general), (general, mub)]

    @pytest.mark.parametrize("kept", [True, False], ids=["kept", "above-bound"])
    def test_read_only_and_bitwise_reference(self, monkeypatch, kept):
        if not kept:
            monkeypatch.setattr(models, "COEFFICIENT_ENTRIES", 0)
        models._kept_coefficients.cache_clear()
        for source, target in self.pairs():
            coef, expected = models._coefficients(source, target), reference.basis_pair_coefficients(source, target)
            assert not coef.flags.writeable
            assert (coef.shape, coef.dtype) == (expected.shape, expected.dtype) and coef.tobytes() == expected.tobytes()
        assert models._kept_coefficients.cache_info().currsize == (5 if kept else 0)

    def test_kept_by_contents(self):
        models._kept_coefficients.cache_clear()
        a = models._coefficients(fourier_mub(3).bases, fourier_mub(3).bases)
        b = models._coefficients(fourier_mub(3).bases.copy(), np.array(fourier_mub(3).bases))
        assert a is b and models._kept_coefficients.cache_info().misses == 1
        c = models._coefficients(fourier_mub(3, (0.0, 0.2, 0.0)).bases, fourier_mub(3).bases)
        assert c is not a and models._kept_coefficients.cache_info().misses == 2

    def test_bounded(self):
        models._kept_coefficients.cache_clear()
        for k in range(models.COEFFICIENT_CACHE + 4):
            basis = fourier_mub(2, (0.0, 0.1 * k)).bases
            models._coefficients(basis, basis)
        assert models._kept_coefficients.cache_info().currsize == models.COEFFICIENT_CACHE
        # a rank-one PVM on d = 33 has 33³ > COEFFICIENT_ENTRIES coefficients: built, not kept
        big = fourier_mub(33).bases
        assert big.shape[0] ** 3 > models.COEFFICIENT_ENTRIES >= 32**3
        before = models._kept_coefficients.cache_info()
        coef = models._coefficients(big, big)
        assert models._kept_coefficients.cache_info() == before
        assert not coef.flags.writeable and coef.tobytes() == reference.basis_pair_coefficients(big, big).tobytes()


def _rank_two_pvm():
    u = random_unitary(3, 11)
    return [u[:, :2] @ u[:, :2].conj().T, np.outer(u[:, 2], u[:, 2].conj())]


class TestPropagator:
    def test_equals_hermitian_expm(self):
        model = random_exact_model(3, 4, 17)
        provider = ExactDephasingProvider(model)
        for dt in (0.0, 0.37, 1.9, -0.6):
            for j in range(model.d):
                assert np.array_equal(provider.propagator(j, dt), hermitian_expm(model.blocks[j], dt))

    def test_one_eigendecomposition_per_block(self, zx_model, monkeypatch):
        # one call on the stacked (d, D, D) blocks, whose result is each block's own
        calls = []
        real = models.hermitian_eigh

        def counting(h):
            calls.append(h)
            return real(h)

        monkeypatch.setattr(models, "hermitian_eigh", counting)
        provider = ExactDephasingProvider(zx_model)
        for dt in (0.1, 0.2, 0.3):
            provider.dephasings(dt)
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.stack(zx_model.blocks))

    @pytest.mark.parametrize("d, big_d", [(2, 2), (3, 4), (5, 1), (2, 8)])
    def test_stacked_eigendecomposition_bitwise_per_block(self, d, big_d):
        model = random_exact_model(d, big_d, seed=7 * d + big_d)
        w, v = ExactDephasingProvider(model)._eigh
        assert (w.shape, v.shape) == ((d, big_d), (d, big_d, big_d))
        for j, block in enumerate(model.blocks):
            wj, vj = np.linalg.eigh(block)
            assert np.array_equal(w[j], wj) and np.array_equal(v[j], vj)

    def test_cache_bounded(self, zx_model):
        provider = ExactDephasingProvider(zx_model)
        durations = np.linspace(0.0, 10.0, 10_000)
        for dt in durations:
            provider.propagator(0, float(dt))
        # the provider's one memo holds the U_j of the last duration only
        assert np.array_equal(provider._batch[0], durations[-1:])
        assert provider._batch[1].shape == (1, 2, 2, 2)
        assert np.array_equal(provider.propagator(1, float(durations[-1])), hermitian_expm(zx_model.blocks[1], durations[-1]))

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_duration_rejected(self, zx_provider, dt):
        with pytest.raises(ValidationError):
            zx_provider.propagator(0, dt)


ARRAY_PROVIDERS = [
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
    """dephasings(dt_array) against one scalar call per entry."""

    @pytest.mark.parametrize(
        "provider",
        ARRAY_PROVIDERS + [MarkovianAnalyticProvider(MarkovianAnalyticModel([[0.0, 0.7], [-0.7, 0.0]], [[0.0, 0.3], [0.3, 0.0]]))],
        ids=["exact-d3-D2", "exact-d2-D1", "analytic-d3", "analytic-d2"],
    )
    def test_equals_stacked_scalar_steps(self, provider):
        d = provider.d
        # durations repeat, on one axis and on two
        dt = np.array([0.7, 0.0, 1.3, 0.7, 2.9, 1.3])
        scalar = np.stack([provider.dephasings(float(t)) for t in dt])
        assert np.array_equal(provider.dephasings(dt), scalar)
        assert np.array_equal(provider.dephasings(dt.reshape(2, 3)), scalar.reshape(2, 3, d, d))
        # a list or a tuple reads as that array at both stages, on both providers (the analytic
        # one broadcast a list against its matrix axes), and a scalar as one duration
        for durations in (dt.tolist(), tuple(dt[:2].tolist()), (0.7,)):
            assert np.array_equal(provider.dephasings(durations), scalar[: len(durations)])
            assert provider.exponentials(durations).shape[:2] == (len(durations), d)
        assert provider.dephasings(0.7).shape == (d, d) and provider.exponentials(0.7).shape[0] == d
        if isinstance(provider, MarkovianAnalyticProvider):
            assert np.array_equal(provider.dephasings(0.7), provider.model.phi_matrix(0.7))  # a scalar keeps its bits

    @pytest.mark.parametrize("provider", ARRAY_PROVIDERS, ids=["exact-d3-D2", "exact-d2-D1", "analytic-d3"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entry_rejected(self, provider, bad):
        with pytest.raises(ValidationError):
            provider.dephasings(np.array([0.5, bad, 1.0]))

    def test_overflowing_phase_rejected(self):
        # 1e308 is finite, but the phase 1e308·w overflows for |w| = 10
        provider = ExactDephasingProvider(DephasingModel((10 * SIGMA_Z, SIGMA_X), np.eye(2) / 2))
        with pytest.raises(ValidationError):
            provider.dephasings(np.array([1.0, 1e308]))

    def test_one_eigendecomposition_per_block(self, zx_model, monkeypatch):
        calls = []
        real = models.hermitian_eigh

        def counting(h):
            calls.append(h)
            return real(h)

        monkeypatch.setattr(models, "hermitian_eigh", counting)
        provider = ExactDephasingProvider(zx_model)
        provider.dephasings(np.array([0.1, 0.2, 0.1]))
        provider.dephasings(np.array([0.4, 0.5, 0.6]))
        provider.dephasings(0.3)
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.stack(zx_model.blocks))

    @pytest.mark.parametrize("shape", [(), (7,), (3, 4), (5, 1)])
    def test_batch_deduplication_matches_unique(self, shape):
        # the distinct durations and each entry's index in dt's shape, as np.unique's inverse
        # gives them, over ties and ±0.0; a scalar is one duration
        provider = ExactDephasingProvider(random_exact_model(3, 2, seed=9))
        dt = np.random.default_rng(len(shape)).choice([0.0, 0.4, 1.3, 2.9, -0.0], shape)
        durations, expected = np.unique(dt.ravel(), return_inverse=True)
        distinct, inverse = models._distinct(dt)
        assert np.array_equal(distinct, durations) and np.array_equal(inverse, expected.reshape(shape))
        assert np.shape(inverse) == shape
        u, inverse = provider._unitaries_batch(dt)
        assert np.array_equal(inverse, expected.reshape(shape))
        assert np.array_equal(u, np.stack([provider.exponentials(float(t)) for t in durations]))


class TestArrayDurationsWiderEnvironments:
    """dephasings of an array is bitwise stacked scalar calls on larger environment blocks too.

    The Gram product is one fixed-shape product per distinct duration, so an
    entry's arithmetic must not depend on the batch around it.
    """

    @pytest.mark.parametrize(
        "d, big_d", [(3, 3), (3, 4), (2, 4), (5, 2)], ids=["exact-d3-D3", "exact-d3-D4", "exact-d2-D4", "exact-d5-D2"]
    )
    def test_equals_stacked_scalar_steps(self, d, big_d):
        provider = ExactDephasingProvider(random_exact_model(d, big_d, seed=11 * d + big_d))
        dt = np.array([0.4, 1.7, 0.4, 0.0, 2.3])
        batched = provider.dephasings(dt)
        assert np.array_equal(batched, np.stack([provider.dephasings(float(t)) for t in dt]))
        # and a single entry, computed alone, is the same entry of a larger batch
        assert np.array_equal(provider.dephasings(dt[2:3])[0], batched[2])

    def test_matches_per_block_products(self):
        # φ_jl = tr(U_j ρ_E U_l†), block pair by block pair, against the propagators
        provider = ExactDephasingProvider(random_exact_model(3, 4, seed=5))
        out = provider.dephasings(0.83)
        for j, l in np.ndindex(3, 3):
            expected = np.trace(provider.propagator(j, 0.83) @ provider.env @ provider.propagator(l, 0.83).conj().T)
            assert abs(out[j, l] - expected) < 1e-13


class TestDephasings:
    @pytest.mark.parametrize(
        "model",
        [
            DephasingModel((SIGMA_Z, SIGMA_X), np.diag([1.0, 0.0]).astype(complex)),
            DephasingModel(tuple(random_hermitian(4, 60 + j) for j in range(3)), _env_with_eigenvalues([0.4, 0.3, 0.2, 0.1], 3)),
        ],
        ids=["qubit-zx-rank-one", "random-d3-D4-full-rank"],
    )
    def test_against_hermitian_expm(self, model):
        # the Gram product against tr(U_j ρ_E U_l†) with U_j from hermitian_expm, for a
        # rank-deficient and a full-rank environment state
        durations = np.array([0.0, 0.37, 1.9, 0.37])
        phi = ExactDephasingProvider(model).dephasings(durations)
        assert phi.shape == (4, model.d, model.d)
        for k, dt in enumerate(durations):
            u = [hermitian_expm(h, dt) for h in model.blocks]
            for j, l in np.ndindex(model.d, model.d):
                assert abs(phi[k, j, l] - np.trace(u[j] @ model.env_state @ u[l].conj().T)) < 1e-13


    def test_subset_of_the_batch_read_from_the_memo(self, zx_model, monkeypatch):
        # a subset of the held durations gathers their rows; an equal set reads the batch uncopied
        provider = ExactDephasingProvider(zx_model)
        alone = ExactDephasingProvider(zx_model).dephasings(np.array([[2.5, 0.3], [2.5, 2.5]]))
        whole = provider.dephasings(np.array([0.3, 1.1, 2.5, 0.7]))
        held = provider._batch[1]
        real, calls = models.spectral_expm, []

        def counting(w, v, tau):
            calls.append(tau.size)
            return real(w, v, tau)

        monkeypatch.setattr(models, "spectral_expm", counting)
        subset = provider.dephasings(np.array([[2.5, 0.3], [2.5, 2.5]]))
        assert calls == [] and provider._batch[1] is held
        assert np.array_equal(subset, whole[[[2, 0], [2, 2]]])
        assert provider._unitaries_batch(np.array([0.7, 2.5, 1.1, 0.3]))[0] is held
        assert np.array_equal(subset, alone)
        provider.dephasings(np.array([0.3, 3.0]))
        assert calls == [2]


class TestDephasingTable:
    """The dephasing matrices of the pairs of a grid, as the readers take them:
    from the provider, one stacked read per reader and chunk."""

    @pytest.mark.parametrize(
        "provider",
        [ExactDephasingProvider(random_exact_model(3, 2, seed=41)), ARRAY_PROVIDERS[2]],
        ids=["exact-d3-D2", "analytic-d3"],
    )
    def test_bitwise_equal_to_dephasing_matrix(self, provider):
        # every pair of a grid with a repeated time, read at once as triviality_check reads them
        grid = np.sort([0.3, 1.4, 0.8, 1.4, 2.9])
        first, second = np.triu_indices(len(grid), 1)
        stacked = provider.dephasing_matrix(grid[second], grid[first])
        for k, (s, t) in enumerate(zip(grid[first], grid[second])):
            assert np.array_equal(stacked[k], provider.dephasing_matrix(t, s))
            assert np.array_equal(stacked[k], provider.dephasings(t - s))
        # the repeated time 1.4 gives the pair (1.4, 1.4), and a pair of equal times reads φ(0) = 1
        assert np.abs(provider.dephasing_matrix(1.4, 1.4) - 1.0).max() < 1e-15
        assert np.abs(provider.dephasing_matrix(0.3, 0.3) - 1.0).max() < 1e-15

    def test_one_step_for_all_pairs(self, zx_model):
        durations = []

        class CountingProvider(ExactDephasingProvider):
            def dephasings(self, dt):
                durations.append(np.shape(dt))
                return super().dephasings(dt)

        provider, times = CountingProvider(zx_model), [0.5, 1.0, 2.0, 3.5]
        assert triviality_check(provider, times) is False
        assert durations == [(6,)]
        durations.clear()
        t0, t1, t2 = np.array(list(itertools.combinations(times, 3))).T
        semigroup_deficit(provider, t0, t1, t2)
        ncgd_deficit(provider, fourier_mub(2), t0, t1, t2)
        sandwich_identity_deficit(provider, fourier_mub(2), t2, t0)
        # one read per reader: a triple's three pairs stacked, then the sandwich's pairs
        assert durations == [(3, 4), (3, 4), (4,)]

    def test_chunks_bound_the_exponentials(self, monkeypatch):
        # D = 4: a φ read holds the U_j stack, d·D² = 32 entries per duration, which the chunks
        # count, so under a cap of 1200 no φ reader exponentiates a larger array; the results
        # are the bits of the unchunked run
        model, meas, rng = random_exact_model(2, 4, seed=17), fourier_mub(2), np.random.default_rng(4)
        t1, t2, t3 = np.sort(rng.uniform(0.0, 3.0, (3, 1000)), axis=0)
        grid = rng.uniform(0.0, 3.0, 60)
        analyses = {
            "semigroup": lambda p: semigroup_deficit(p, t1, t2, t3),
            "ncgd": lambda p: ncgd_deficit(p, meas, t1, t2, t3),
            "sandwich": lambda p: sandwich_identity_deficit(p, meas, t3, t1),
            "triviality": lambda p: triviality_check(p, grid),
        }
        whole = {name: analysis(ExactDephasingProvider(model)) for name, analysis in analyses.items()}
        sizes, real = [], models.spectral_expm

        def spy(w, v, tau):
            out = real(w, v, tau)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(models, "spectral_expm", spy)
        monkeypatch.setattr(models, "TERM_CAP", 1200)
        for name, analysis in analyses.items():
            sizes.clear()
            chunked = analysis(ExactDephasingProvider(model))
            assert len(sizes) > 1 and max(sizes) <= 1200, name
            assert np.array_equal(chunked, whole[name]), name

    def test_chunks_match_one_step(self, zx_model, monkeypatch):
        t0, t1, t2 = np.array(list(itertools.combinations([0.2, 0.5, 1.0, 2.0, 3.5], 3))).T
        meas = fourier_mub(2)

        def deficits(provider):
            return (
                semigroup_deficit(provider, t0, t1, t2),
                ncgd_deficit(provider, meas, t0, t1, t2),
                sandwich_identity_deficit(provider, meas, t2, t0),
            )

        whole = deficits(ExactDephasingProvider(zx_model))
        durations = []

        class CountingProvider(ExactDephasingProvider):
            def dephasings(self, dt):
                durations.append(np.shape(dt))
                return super().dephasings(dt)

        # d = D = 2: a φ read holds d·max(d, D²) = 8 entries per duration (the U_j stack), so
        # 3·8 = 24 per semigroup or NCGD triple (beside 12 and the d⁴ = 16 of the lift), and
        # 16, the lift, per sandwich pair (beside the 8 of its one duration)
        monkeypatch.setattr(models, "TERM_CAP", 64)
        chunked = deficits(CountingProvider(zx_model))
        assert durations == [(3, 2)] * 10 + [(4,)] * 2 + [(2,)]
        for a, b in zip(chunked, whole):
            assert np.array_equal(a, b)

    def test_time_order_and_empty_grid(self, zx_provider):
        with pytest.raises(TimeOrderError):
            zx_provider.dephasing_matrix(0.5, 1.0)
        with pytest.raises(TimeOrderError):
            zx_provider.dephasing_matrix(np.array([1.0, 0.5]), np.array([0.5, 1.0]))
        # an empty read gives no matrix, and a grid of fewer than two times no pair
        assert zx_provider.dephasing_matrix(np.array([]), np.array([])).shape == (0, 2, 2)
        assert triviality_check(zx_provider, []) is True

    def test_overflowing_phase_rejected(self):
        provider = ExactDephasingProvider(DephasingModel((10 * SIGMA_Z, SIGMA_X), np.eye(2) / 2))
        with pytest.raises(ValidationError):
            triviality_check(provider, [1.0, 2.0, 1e308])
        with pytest.raises(ValidationError):
            semigroup_deficit(provider, 1.0, 2.0, 1e308)

    @pytest.mark.parametrize("provider", ARRAY_PROVIDERS, ids=["exact-d3-D2", "exact-d2-D1", "analytic-d3"])
    def test_array_reads_stack_scalar_reads(self, provider):
        s, t = np.array([[0.3, 0.8], [1.4, 1.4]]), np.array([[2.9, 1.4], [1.4, 2.9]])
        stacked = provider.dephasing_matrix(t, s)
        assert stacked.shape == (2, 2, provider.d, provider.d)
        for idx in np.ndindex(2, 2):
            assert np.array_equal(stacked[idx], provider.dephasing_matrix(t[idx], s[idx]))


class TestMarkovianModel:
    def test_symmetry_validation(self):
        with pytest.raises(ValidationError):
            MarkovianAnalyticModel(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            MarkovianAnalyticModel(np.zeros((2, 2)), np.array([[0.0, -1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize(
        "eps, gamma",
        [(np.nan, 0.5), (0.8, np.nan), (0.8, np.inf), (np.inf, 0.5)],
        ids=["eps-nan", "gamma-nan", "gamma-inf", "eps-inf"],
    )
    def test_rejects_non_finite(self, eps, gamma):
        # NaN fails no comparison, and inf - inf in the symmetry check warned
        with pytest.raises(ValidationError):
            MarkovianAnalyticModel(np.array([[0.0, eps], [-eps, 0.0]]), np.array([[0.0, gamma], [gamma, 0.0]]))

    @pytest.mark.parametrize(
        "eps, gamma, error, message",
        [
            (np.zeros((2, 3)), np.zeros((2, 3)), ShapeError, "MarkovianAnalyticModel: eps/gamma must be square and matching, got (2, 3) vs (2, 3)"),
            (np.zeros((2, 2)), np.zeros((3, 3)), ShapeError, "MarkovianAnalyticModel: eps/gamma must be square and matching, got (2, 2) vs (3, 3)"),
            ([[0.0, np.nan], [0.0, 0.0]], np.zeros((2, 2)), ValidationError, "MarkovianAnalyticModel: eps and gamma must be finite"),
            ([[0.5, 0.0], [0.0, 0.0]], np.zeros((2, 2)), ValidationError, "MarkovianAnalyticModel: diagonals of eps and gamma must vanish"),
            (np.zeros((2, 2)), [[0.0, 0.0], [0.0, 1e-300]], ValidationError, "MarkovianAnalyticModel: diagonals of eps and gamma must vanish"),
            ([[0.0, 1.0], [1.0, 0.0]], np.zeros((2, 2)), ValidationError, "MarkovianAnalyticModel: eps must be antisymmetric"),
            # eps + epsᵀ past the double range: refused, unwarned
            ([[0.0, 1e308], [1e308, 0.0]], np.zeros((2, 2)), ValidationError, "MarkovianAnalyticModel: eps must be antisymmetric"),
            (np.zeros((2, 2)), [[0.0, 1.0], [2.0, 0.0]], ValidationError, "MarkovianAnalyticModel: gamma must be symmetric"),
            (np.zeros((2, 2)), [[0.0, 1e308], [-1e308, 0.0]], ValidationError, "MarkovianAnalyticModel: gamma must be symmetric"),
            (np.zeros((2, 2)), [[0.0, -1.0], [-1.0, 0.0]], ValidationError, "MarkovianAnalyticModel: gamma must be entrywise nonnegative"),
        ],
        ids=[
            "not-square", "mismatched", "nan", "eps-diagonal", "gamma-diagonal", "eps-symmetric",
            "eps-huge-symmetric", "gamma-asymmetric", "gamma-huge-antisymmetric", "gamma-negative",
        ],
    )
    def test_each_rule_keeps_its_message(self, eps, gamma, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as caught:
                MarkovianAnalyticModel(np.asarray(eps, dtype=float), np.asarray(gamma, dtype=float))
        assert type(caught.value) is error and str(caught.value) == message

    def test_signed_zeros_pass_every_rule(self):
        eps, gamma = np.array([[-0.0, 0.7], [-0.7, 0.0]]), np.array([[0.0, 0.0], [-0.0, -0.0]])
        assert MarkovianAnalyticModel(eps, gamma).d == 2

    def test_stores_read_only_copies(self):
        eps, gamma = np.array([[0.0, 0.8], [-0.8, 0.0]]), np.array([[0.0, 0.5], [0.5, 0.0]])
        model = MarkovianAnalyticModel(eps, gamma)
        phi = model.phi_matrix(1.3)
        eps[0, 1], gamma[0, 1] = 5.0, 7.0
        assert model.eps[0, 1] == 0.8 and model.gamma[0, 1] == 0.5
        assert np.array_equal(model.phi_matrix(1.3), phi)
        for a in (model.eps, model.gamma):
            with pytest.raises(ValueError):
                a[0, 1] = 1.0

    def test_single_interval(self, markov_qubit):
        eps, gamma, tau = 0.8, 0.5, 1.3
        val = MarkovianAnalyticProvider(markov_qubit).tensor_pairs(((0, 1),), (tau,))
        assert abs(val - np.exp(-(1j * eps + gamma / 2) * tau)) < 1e-14

    def test_semigroup_by_construction(self, markov_qubit):
        tau = 0.6
        two_steps = MarkovianAnalyticProvider(markov_qubit).tensor_pairs(((0, 1), (0, 1)), (tau, tau))
        one_step = MarkovianAnalyticProvider(markov_qubit).tensor_pairs(((0, 1),), (2 * tau,))
        assert abs(two_steps - one_step) < 1e-14

    def test_conjugate_pair_cancellation(self, markov_qubit):
        tau, gamma = 0.6, 0.5
        val = MarkovianAnalyticProvider(markov_qubit).tensor_pairs(((0, 1), (1, 0)), (tau, tau))
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
    @pytest.mark.parametrize("times", [[0.0, 0.5, 1.0, 1.5], [0.0, 0.5]], ids=["4-times", "2-times"])
    def test_analytic_provider_rejected_first(self, markov_qubit_provider, times):
        # 4 times raised AttributeError ('_unitaries_batch'); 2 times returned a deficit of 0
        with pytest.raises(ValidationError, match="requires an exact model, got MarkovianAnalyticProvider"):
            models.markovianity_deficit_detail(markov_qubit_provider, times, 3)

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
        provider = ExactDephasingProvider(model)
        deficit, detail = models.markovianity_deficit_detail(provider, times, max_order)
        reference, tuples = 0.0, 0
        for n in range(2, max_order + 1):
            for sel in itertools.combinations(sorted(times), n + 1):
                value, entries = factorization_deficit(provider, [t2 - t1 for t1, t2 in zip(sel, sel[1:])])
                reference, tuples = max(reference, value), tuples + entries
        assert abs(deficit - reference) < 1e-12
        # the orders walked: selections of n + 1 times need n + 1 <= K
        orders = list(range(2, min(max_order, len(times) - 1) + 1))
        assert detail == {"tuples": tuples, "orders": orders}

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
        markovianity_deficit(model, times, max_order)
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
        provider = ExactDephasingProvider(zx_model)
        assert models.markovianity_deficit_detail(provider, [0.0, 0.5, 1.0, 1.5], 3)[1]["tuples"] == 128

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


    @pytest.mark.parametrize("provider", ARRAY_PROVIDERS, ids=["exact-d3-D2", "exact-d2-D1", "analytic-d3"])
    def test_arrays_equal_scalar_calls(self, provider):
        times = [0.0, 0.4, 0.4, 0.9, 1.7]
        t0, t1, t2 = np.array(list(itertools.combinations(times, 3))).T
        deficits = semigroup_deficit(provider, t0, t1, t2)
        assert deficits.shape == t0.shape
        scalar = [semigroup_deficit(provider, *triple) for triple in zip(t0, t1, t2)]
        assert all(isinstance(x, float) for x in scalar)
        assert np.array_equal(deficits, scalar)
        with pytest.raises(TimeOrderError):
            semigroup_deficit(provider, t0, t2, t1)

    def test_chunks_match_whole(self, zx_model, monkeypatch):
        reads = []

        class CountingProvider(ExactDephasingProvider):
            def dephasings(self, dt):
                reads.append(np.shape(dt))
                return super().dephasings(dt)

        provider = CountingProvider(zx_model)
        t0, t1, t2 = np.array(list(itertools.combinations([0.0, 0.4, 0.9, 1.7, 2.2], 3))).T
        whole = semigroup_deficit(provider, t0, t1, t2)
        # a triple's three matrices in one stacked read
        assert reads == [(3, 10)]
        reads.clear()
        # d = D = 2: three durations of d·max(d, D²) = 8 entries per triple, 24 in all: three
        # triples per chunk, one read each
        monkeypatch.setattr(models, "TERM_CAP", 72)
        assert np.array_equal(semigroup_deficit(provider, t0, t1, t2), whole)
        assert reads == [(3, 3)] * 3 + [(3, 1)]


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
        from reference import random_density, random_hermitian

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

    def test_table_and_repeated_times(self, markov_qubit_provider):
        # a pair of equal times reads φ(0) = 1, and one time has no pair
        assert triviality_check(markov_qubit_provider, [0.0, 1.0, 1.0]) is False
        assert triviality_check(markov_qubit_provider, [1.0, 1.0]) is True
        assert triviality_check(markov_qubit_provider, [0.5]) is True

    def test_decaying_markovian_not_trivial(self, markov_qubit_provider):
        gamma = 0.5
        assert not triviality_check(markov_qubit_provider, [0.0, 1.0 / gamma])
        phi = markov_qubit_provider.dephasing_matrix(1.0 / gamma, 0.0)
        assert abs(abs(phi[0, 1]) - np.exp(-0.5)) < 1e-12


class TestTensorCollapse:
    def test_final_diagonal_pair_always_collapses(self):
        model = random_exact_model(2, 3, seed=13)
        provider = ExactDephasingProvider(model)
        assert tensor_collapse_check(provider, ((0, 1), (1, 1)), (0.6, 0.9), 1) < 1e-12

    def test_interior_pair_markovian(self, markov_qubit_provider):
        assert tensor_collapse_check(markov_qubit_provider, ((0, 0), (0, 1)), (0.6, 0.9), 0) < 1e-14

    def test_interior_pair_noncommuting_fails(self, zx_provider):
        # env |0><0| is sigma_z-invariant, so the diagonal pair must use
        # the sigma_x block to rotate the environment state
        assert tensor_collapse_check(zx_provider, ((1, 1), (0, 1)), (0.6, 0.9), 0) > 1e-6

    def test_requires_diagonal_pair(self, zx_provider):
        with pytest.raises(ValidationError):
            tensor_collapse_check(zx_provider, ((0, 1), (0, 1)), (0.6, 0.9), 0)
