import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dephaser.errors import (
    NullEventError,
    ShapeError,
    SizeCapError,
    TimeOrderError,
    ValidationError,
)
from dephaser.linalg import random_density, random_unitary
from dephaser.measurements import ProjectiveMeasurement, dephasing_basis, dephasing_channel, fourier_mub, qubit_basis
from dephaser.models import (
    DephasingTable,
    ExactDephasingProvider,
    MarkovianAnalyticModel,
    MarkovianAnalyticProvider,
)
from dephaser.presets import get_preset
from dephaser.statistics import (
    JointDistribution,
    SystemPreparation,
    TimeGrid,
    _initial_state,
    _measure,
    _readout,
    conditional_probability,
    joint_distribution,
    ncgd_deficit,
    oracle_distribution,
    reduced_map,
    sandwich_identity_deficit,
)
from tests.conftest import random_exact_model

seeds = st.integers(min_value=0, max_value=10_000)


class TestTimeGrid:
    def test_durations(self):
        g = TimeGrid(0.5, (1.0, 1.0, 2.5))
        assert g.durations == (0.5, 0.0, 1.5)
        assert g.n == 3

    def test_rejects_disorder(self):
        with pytest.raises(TimeOrderError):
            TimeGrid(0.0, (2.0, 1.0))
        with pytest.raises(TimeOrderError):
            TimeGrid(1.0, (0.5,))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            TimeGrid(0.0, ())

    def test_drop(self):
        g = TimeGrid(0.0, (1.0, 2.0, 3.0))
        assert g.drop(2).times == (1.0, 3.0)
        with pytest.raises(ValidationError):
            g.drop(0)


class TestSystemPreparation:
    def test_diagonal(self):
        prep = SystemPreparation.diagonal([0.2, 0.8])
        assert prep.tag == "diagonal"
        assert abs(prep.density[1, 1] - 0.8) < 1e-15

    def test_diagonal_tag_enforced(self):
        rho = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValidationError):
            SystemPreparation(rho, "diagonal")

    def test_maximally_mixed(self):
        prep = SystemPreparation.maximally_mixed(3)
        assert np.allclose(prep.density, np.eye(3) / 3)

    def test_pure_normalizes(self):
        prep = SystemPreparation.pure([1.0, 1.0])
        assert abs(np.trace(prep.density) - 1.0) < 1e-14
        assert abs(prep.density[0, 1] - 0.5) < 1e-14

    def test_rejects_invalid_density(self):
        with pytest.raises(ValidationError):
            SystemPreparation(np.diag([0.5, 0.6]).astype(complex))


class TestJointDistribution:
    def test_validation(self):
        g = TimeGrid(0.0, (1.0,))
        with pytest.raises(ValidationError):
            JointDistribution(2, g, np.array([0.5, 0.4]))
        with pytest.raises(ValidationError):
            JointDistribution(2, g, np.array([1.1, -0.1]))
        with pytest.raises(ShapeError):
            JointDistribution(2, g, np.array([0.5, 0.25, 0.25]))
        for bad in ([np.nan, 1.0], [np.inf, 0.0]):
            with pytest.raises(ValidationError):
                JointDistribution(2, g, np.array(bad))

    def test_marginalize_drops_time(self):
        g = TimeGrid(0.0, (1.0, 2.0))
        table = np.array([0.1, 0.2, 0.3, 0.4])
        d = JointDistribution(2, g, table)
        m = d.marginalize(1)
        assert m.grid.times == (2.0,)
        assert np.allclose(m.table, [0.4, 0.6])
        assert abs(d.prob((1, 0)) - 0.3) < 1e-15

    def test_clipped(self):
        g = TimeGrid(0.0, (1.0,))
        d = JointDistribution(2, g, np.array([1.0 + 5e-11, -5e-11]))
        assert d.clipped().min() == 0.0


class TestJointVsOracle:
    """Block propagation (joint_distribution) against the global-unitary oracle."""

    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_random_models_three_times(self, seed):
        model = random_exact_model(2, 3, seed)
        provider = ExactDephasingProvider(model)
        prep = SystemPreparation.pure([0.6, 0.8j])
        meas = qubit_basis(0.9, 0.3)
        grid = TimeGrid(0.0, (0.7, 1.1, 2.0))
        fast = joint_distribution(provider, prep, meas, grid)
        slow = oracle_distribution(model, prep, meas, grid)
        assert np.max(np.abs(fast.table - slow.table)) < 1e-12

    def test_qutrit_model(self):
        model = random_exact_model(3, 2, 11)
        provider = ExactDephasingProvider(model)
        prep = SystemPreparation.maximally_mixed(3)
        meas = fourier_mub(3)
        grid = TimeGrid(0.0, (0.5, 1.4))
        fast = joint_distribution(provider, prep, meas, grid)
        slow = oracle_distribution(model, prep, meas, grid)
        assert np.max(np.abs(fast.table - slow.table)) < 1e-12

    def test_general_pvm_maximally_mixed(self, zx_model, zx_provider):
        from dephaser.measurements import ProjectiveMeasurement

        meas = ProjectiveMeasurement(
            projectors=[np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        )
        prep = SystemPreparation.maximally_mixed(2)
        grid = TimeGrid(0.0, (0.4, 1.0, 1.7))
        fast = joint_distribution(zx_provider, prep, meas, grid)
        slow = oracle_distribution(zx_model, prep, meas, grid)
        assert np.max(np.abs(fast.table - slow.table)) < 1e-12

    def test_four_times(self, zx_model, zx_provider):
        prep = SystemPreparation.diagonal([0.3, 0.7])
        meas = fourier_mub(2)
        grid = TimeGrid(0.0, (0.3, 0.9, 1.2, 2.0))
        fast = joint_distribution(zx_provider, prep, meas, grid)
        slow = oracle_distribution(zx_model, prep, meas, grid)
        assert np.max(np.abs(fast.table - slow.table)) < 1e-12

    def test_four_level_six_times(self):
        # 4^12 index-pair chains: beyond what a materialised tensor could hold
        model = random_exact_model(4, 4, 31)
        prep = SystemPreparation(random_density(4, 32))
        meas = ProjectiveMeasurement(vectors=random_unitary(4, 33))
        grid = TimeGrid(0.0, (0.2, 0.7, 0.9, 1.6, 2.3, 2.4))
        fast = joint_distribution(ExactDephasingProvider(model), prep, meas, grid)
        slow = oracle_distribution(model, prep, meas, grid)
        assert np.max(np.abs(fast.table - slow.table)) < 1e-12

    @given(
        seed=seeds,
        d=st.integers(2, 3),
        big_d=st.integers(1, 3),
        n=st.integers(1, 5),
        rank_one=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_pvms(self, seed, d, big_d, n, rank_one):
        model = random_exact_model(d, big_d, seed)
        u = random_unitary(d, seed + 1)
        if rank_one:
            meas = ProjectiveMeasurement(vectors=u)
        else:
            # two outcomes of ranks cut and d - cut, through the general-PVM path
            cut = 1 + seed % (d - 1)
            meas = ProjectiveMeasurement(projectors=[u[:, :cut] @ u[:, :cut].conj().T, u[:, cut:] @ u[:, cut:].conj().T])
        prep = SystemPreparation(random_density(d, seed + 2))
        grid = TimeGrid(0.0, tuple(np.sort(np.random.default_rng(seed).uniform(0.1, 3.0, n))))
        fast = joint_distribution(ExactDephasingProvider(model), prep, meas, grid)
        slow = oracle_distribution(model, prep, meas, grid)
        assert np.max(np.abs(fast.table - slow.table)) < 1e-12


def reference_measure(state, pstack):
    """S -> P_x S P_x onto a new outcome axis, as two einsum half products."""
    half = np.einsum("xij,...jlab->...xilab", pstack, state)
    return np.einsum("...xilab,xlk->...xikab", half, pstack)


def reference_readout(state, pstack):
    """table[..., x] = Σ_jl P_x[l, j] tr_env S[..., j, l], with np.trace."""
    return np.real(np.einsum("...jl,xlj->...x", np.trace(state, axis1=-2, axis2=-1), pstack))


KERNEL_CASES = pytest.mark.parametrize(
    "d, big_d, meas",
    [
        (2, 2, qubit_basis(0.3, 1.1)),
        (3, 4, fourier_mub(3)),
        (3, 3, fourier_mub(3)),
        (3, 1, ProjectiveMeasurement(projectors=(np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])))),
        (4, 3, ProjectiveMeasurement(vectors=random_unitary(4, 9))),
        (2, 12, fourier_mub(2)),
    ],
    ids=["qubit-D2", "mub-d3-D4", "mub-d3-D3", "rank-two-d3-D1", "random-d4-D3", "qubit-D12"],
)


class TestEngineKernels:
    """_measure and _readout against einsum references, and per batch row."""

    @KERNEL_CASES
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["no-batch", "batch-3", "batch-2x3"])
    def test_against_einsum(self, d, big_d, meas, lead):
        provider = ExactDephasingProvider(random_exact_model(d, big_d, seed=d + big_d))
        _, pstack = _initial_state(provider, SystemPreparation.maximally_mixed(d), meas, "test")
        rng = np.random.default_rng(len(lead))
        shape = lead + (d, d, big_d, big_d)
        state = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        # a contiguous state, and the strided view a step returns
        for s in (state, provider.step(state, 0.7)):
            measured = _measure(s, pstack)
            assert measured.shape == lead + (meas.n_outcomes, d, d, big_d, big_d)
            assert np.max(np.abs(measured - reference_measure(s, pstack))) < 1e-13
            table = _readout(s, pstack)
            assert table.shape == lead + (meas.n_outcomes,)
            assert np.max(np.abs(table - reference_readout(s, pstack))) < 1e-13

    @KERNEL_CASES
    def test_rows_do_not_depend_on_the_batch(self, d, big_d, meas):
        # every product has a fixed shape per row: a row alone gives the same bits
        provider = ExactDephasingProvider(random_exact_model(d, big_d, seed=d + big_d))
        _, pstack = _initial_state(provider, SystemPreparation.maximally_mixed(d), meas, "test")
        rng = np.random.default_rng(17)
        shape = (7, d, d, big_d, big_d)
        state = provider.step(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), 0.7)
        measured, table = _measure(state, pstack), _readout(state, pstack)
        for r in range(len(state)):
            assert np.array_equal(measured[r], _measure(state[r], pstack))
            assert np.array_equal(table[r], _readout(state[r], pstack))
            assert np.array_equal(measured[r : r + 3], _measure(state[r : r + 3], pstack))


class TestKnownValues:
    def test_one_time_mub_uniform_for_diagonal_prep(self, zx_provider):
        prep = SystemPreparation.diagonal([0.3, 0.7])
        dist = joint_distribution(zx_provider, prep, fourier_mub(2), TimeGrid(0.0, (1.3,)))
        assert np.max(np.abs(dist.table - 0.5)) < 1e-12

    def test_one_time_plus_state_hand_derived(self, zx_provider):
        # prep |+>, Hadamard basis, env |0><0|: phi_01(t) = e^{-it} cos t
        # so P(0) = 1/2 + Re(phi_01)/2 = (1 + cos^2 t) / 2
        t = 0.8
        prep = SystemPreparation.pure([1.0, 1.0])
        dist = joint_distribution(zx_provider, prep, fourier_mub(2), TimeGrid(0.0, (t,)))
        assert abs(dist.prob((0,)) - 0.5 * (1 + np.cos(t) ** 2)) < 1e-12

    def test_dephasing_basis_is_static(self, zx_provider):
        # measuring in the dephasing basis freezes the outcome
        prep = SystemPreparation.diagonal([0.25, 0.75])
        dist = joint_distribution(
            zx_provider, prep, dephasing_basis(2), TimeGrid(0.0, (0.5, 1.5, 2.5))
        )
        arr = dist.as_array()
        assert abs(arr[0, 0, 0] - 0.25) < 1e-12
        assert abs(arr[1, 1, 1] - 0.75) < 1e-12
        assert abs(arr.sum() - (arr[0, 0, 0] + arr[1, 1, 1])) < 1e-12

    def test_scalar_phases_matches_analytic_provider(self):
        # 1-dim environment phases equal the analytic model with eps_01 = -1
        exact = ExactDephasingProvider(get_preset("scalar-phases"))
        eps = np.array([[0.0, -1.0], [1.0, 0.0]])
        analytic = MarkovianAnalyticProvider(MarkovianAnalyticModel(eps, np.zeros((2, 2))))
        prep = SystemPreparation.pure([1.0, 1.0j])
        meas = qubit_basis(0.6, 0.2)
        grid = TimeGrid(0.0, (0.5, 1.3, 2.2))
        a = joint_distribution(exact, prep, meas, grid)
        b = joint_distribution(analytic, prep, meas, grid)
        assert np.max(np.abs(a.table - b.table)) < 1e-12


class TestCaps:
    def test_term_cap(self, zx_provider):
        prep = SystemPreparation.maximally_mixed(2)
        grid = TimeGrid(0.0, tuple(float(k) for k in range(1, 6)))
        with pytest.raises(SizeCapError):
            joint_distribution(zx_provider, prep, fourier_mub(2), grid, term_cap=100)

    def test_cap_checked_before_any_propagator(self, zx_provider):
        # the state before the last interval holds 2^20 prefixes x d^2 D^2 = 16 entries
        prep = SystemPreparation.maximally_mixed(2)
        grid = TimeGrid(0.0, tuple(0.1 * k for k in range(1, 22)))
        with pytest.raises(SizeCapError):
            joint_distribution(zx_provider, prep, fourier_mub(2), grid)
        assert zx_provider._prop_cache == {}

    def test_oracle_branch_cap(self, zx_model):
        # 2 + 4 + ... + 2^13 outcome branches
        grid = TimeGrid(0.0, tuple(float(k) for k in range(1, 14)))
        with pytest.raises(SizeCapError):
            oracle_distribution(zx_model, SystemPreparation.maximally_mixed(2), fourier_mub(2), grid)

    def test_dimension_mismatch(self, zx_provider):
        prep = SystemPreparation.maximally_mixed(3)
        with pytest.raises(ShapeError):
            joint_distribution(zx_provider, prep, fourier_mub(3), TimeGrid(0.0, (1.0,)))


class TestReducedMap:
    def test_matches_entrywise_phi(self, zx_provider):
        phi = zx_provider.dephasing_matrix(1.7, 0.4)
        lam = reduced_map(zx_provider, 1.7, 0.4)
        rho = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])
        assert np.max(np.abs(lam.apply(rho) - phi * rho)) < 1e-13

    def test_trace_preserving(self, zx_provider):
        assert reduced_map(zx_provider, 2.0, 0.0).is_trace_preserving()

    def test_time_order(self, zx_provider):
        with pytest.raises(TimeOrderError):
            reduced_map(zx_provider, 0.0, 1.0)


def real_dephasing_provider(d=2, gamma=0.5):
    g = gamma * (np.ones((d, d)) - np.eye(d))
    return MarkovianAnalyticProvider(MarkovianAnalyticModel(np.zeros((d, d)), g))


class TestNcgd:
    def test_real_dephasing_mub_sandwich_identity(self):
        # strengthened identity for unbiased bases needs a real dephasing
        # function: delta lam delta = lam delta
        dev = sandwich_identity_deficit(real_dephasing_provider(), fourier_mub(2), 2.0, 0.5)
        assert dev < 1e-12

    def test_real_dephasing_mub_ncgd_zero(self):
        dev = ncgd_deficit(real_dephasing_provider(), fourier_mub(2), 0.3, 1.1, 2.4)
        assert dev < 1e-12

    def test_real_dephasing_qutrit_ncgd_zero(self):
        dev = ncgd_deficit(real_dephasing_provider(3, 1.0), fourier_mub(3), 0.3, 1.1, 2.4)
        assert dev < 1e-12

    def test_complex_dephasing_mub_ncgd_positive(self, markov_qubit_provider):
        # eps != 0 rotates coherences and breaks the identity even though the
        # tensor factorizes
        dev = ncgd_deficit(markov_qubit_provider, fourier_mub(2), 0.3, 1.1, 2.4)
        assert dev > 1e-3

    def test_nonmarkovian_ncgd_positive(self, zx_provider):
        dev = ncgd_deficit(zx_provider, fourier_mub(2), 0.3, 1.1, 2.4)
        assert dev > 1e-3

    def test_dephasing_basis_always_ncgd(self, zx_provider):
        # the measurement compatible with the dephasing basis detects nothing
        dev = ncgd_deficit(zx_provider, dephasing_basis(2), 0.3, 1.1, 2.4)
        assert dev < 1e-12

    def test_time_order(self, markov_qubit_provider):
        with pytest.raises(TimeOrderError):
            ncgd_deficit(markov_qubit_provider, fourier_mub(2), 2.0, 1.0, 3.0)

    @pytest.mark.parametrize(
        "provider",
        [ExactDephasingProvider(random_exact_model(3, 2, seed=8)), real_dephasing_provider(3, 0.7)],
        ids=["exact-d3-D2", "analytic-d3"],
    )
    def test_table_equals_provider(self, provider):
        times = [0.3, 1.1, 1.1, 2.4, 3.0]
        table = DephasingTable(provider, times)
        meas = fourier_mub(3)
        for t1, t2, t3 in itertools.combinations(sorted(times), 3):
            assert abs(ncgd_deficit(table, meas, t1, t2, t3) - ncgd_deficit(provider, meas, t1, t2, t3)) < 1e-15
            assert abs(sandwich_identity_deficit(table, meas, t3, t1)
                       - sandwich_identity_deficit(provider, meas, t3, t1)) < 1e-15
        assert np.array_equal(reduced_map(table, 2.4, 0.3).matrix, reduced_map(provider, 2.4, 0.3).matrix)

    def test_dimension_mismatch(self, zx_provider):
        with pytest.raises(ShapeError):
            ncgd_deficit(zx_provider, fourier_mub(3), 0.3, 1.1, 2.4)
        with pytest.raises(ShapeError):
            sandwich_identity_deficit(zx_provider, fourier_mub(3), 1.1, 0.3)

    def test_ncgd_bounded_by_composition_of_sandwiches(self, markov_qubit_provider):
        # consistency between the two diagnostics on a factorizing provider
        meas = qubit_basis(0.3, 0.0)
        s1 = sandwich_identity_deficit(markov_qubit_provider, meas, 1.1, 0.3)
        n1 = ncgd_deficit(markov_qubit_provider, meas, 0.3, 1.1, 2.4)
        assert (s1 < 1e-12) or (n1 >= 0.0)


class TestConditional:
    def test_sums_to_one(self, zx_provider):
        prep = SystemPreparation.maximally_mixed(2)
        dist = joint_distribution(zx_provider, prep, fourier_mub(2), TimeGrid(0.0, (0.5, 1.5)))
        cond = conditional_probability(dist, (0,))
        assert abs(cond.sum() - 1.0) < 1e-12

    def test_matches_ratio(self, zx_provider):
        prep = SystemPreparation.pure([0.8, 0.6])
        dist = joint_distribution(zx_provider, prep, fourier_mub(2), TimeGrid(0.0, (0.5, 1.5)))
        arr = dist.as_array()
        cond = conditional_probability(dist, (1,))
        assert abs(cond[0] - arr[1, 0] / arr[1].sum()) < 1e-12

    def test_null_event(self, zx_provider):
        prep = SystemPreparation.diagonal([1.0, 0.0])
        dist = joint_distribution(
            zx_provider, prep, dephasing_basis(2), TimeGrid(0.0, (0.5, 1.5))
        )
        with pytest.raises(NullEventError):
            conditional_probability(dist, (1,))

    def test_prefix_too_long(self, zx_provider):
        prep = SystemPreparation.maximally_mixed(2)
        dist = joint_distribution(zx_provider, prep, fourier_mub(2), TimeGrid(0.0, (0.5,)))
        with pytest.raises(ValidationError):
            conditional_probability(dist, (0,))
