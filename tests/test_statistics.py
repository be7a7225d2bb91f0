import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dephaser import models, statistics
from dephaser.errors import (
    ShapeError,
    SizeCapError,
    TimeOrderError,
    ValidationError,
)
from dephaser.linalg import hermitian_expm
from dephaser.measurements import ProjectiveMeasurement, dephasing_basis, fourier_mub, qubit_basis
from dephaser.models import (
    DephasingModel,
    ExactDephasingProvider,
    MarkovianAnalyticModel,
    MarkovianAnalyticProvider,
)
from dephaser.presets import get_preset
from dephaser.statistics import (
    JointDistribution,
    SystemPreparation,
    TimeGrid,
    _build_global_hamiltonian,
    _probabilities,
    _readout,
    _root,
    joint_distribution,
    ncgd_deficit,
    oracle_distribution,
    sandwich_identity_deficit,
)
import reference
from reference import random_density, random_unitary, transfer
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

    @pytest.mark.parametrize(
        "t0, times",
        [(float("nan"), (1.0,)), (0.0, (1.0, float("nan"))), (0.0, (1.0, float("inf"))), (float("-inf"), (1.0,))],
        ids=["nan-t0", "nan-time", "inf-time", "minus-inf-t0"],
    )
    def test_rejects_non_finite(self, t0, times):
        # a NaN t0 must fail here, not later inside spectral_expm
        with pytest.raises(ValidationError):
            TimeGrid(t0, times)

    def test_drop(self):
        g = TimeGrid(0.0, (1.0, 2.0, 3.0))
        assert g.drop(2).times == (1.0, 3.0)
        with pytest.raises(ValidationError):
            g.drop(0)


class TestSystemPreparation:
    def test_diagonal(self):
        prep = SystemPreparation.diagonal([0.2, 0.8])
        assert abs(prep.density[1, 1] - 0.8) < 1e-15

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

    def test_stores_a_read_only_copy(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        prep = SystemPreparation(rho)
        rho[0, 0] = 7.0
        assert prep.density[0, 0] == 0.5 and abs(np.trace(prep.density) - 1.0) < 1e-15
        with pytest.raises(ValueError):
            prep.density[0, 0] = 7.0

    @pytest.mark.parametrize("vector", [[0.0, 0.0], [1e300, 0.0]], ids=["zero", "norm-overflows"])
    def test_pure_rejects_zero_or_overflowing_norm(self, vector):
        # a norm past the double range warned of overflow (RuntimeWarning), then gave the zero matrix
        with pytest.raises(ValidationError, match="SystemPreparation.pure"):
            SystemPreparation.pure(vector)


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
        assert abs(d.as_array()[1, 0] - 0.3) < 1e-15

    @pytest.mark.parametrize("position", [0, 3])
    def test_marginalize_position_out_of_range(self, position):
        # position n + 1 raised numpy's AxisError from the sum before the grid checked it
        d = JointDistribution(2, TimeGrid(0.0, (1.0, 2.0)), np.array([0.1, 0.2, 0.3, 0.4]))
        with pytest.raises(ValidationError, match="out of range"):
            d.marginalize(position)

    EDGES = [1.0] + [t for edge in (1 + 1e-10, 1 - 1e-10) for t in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0))]
    ENTRIES = [np.nan, np.inf, -np.inf, statistics.NEG_FLOOR, np.nextafter(statistics.NEG_FLOOR, -1.0), 0.0]

    @pytest.mark.parametrize("total", EDGES, ids=[f"{t:.17g}" for t in EDGES])
    @pytest.mark.parametrize("entry", ENTRIES, ids=[f"{e:.17g}" for e in ENTRIES])
    def test_fused_rule_agrees_with_table_by_table(self, entry, total):
        # one row holding the entry, one whose total is `total` (both of its sums exact)
        tables = np.array([[0.25] * 4, [0.5 - entry, entry, 0.0, 0.5], [0.5, 0.0, 0.0, total - 0.5]])

        def passes(table):
            try:
                statistics._check_tables(table, lambda r: f"row {r}")
            except ValidationError:
                return False
            return True

        with np.errstate(invalid="ignore"):  # -inf + inf in a row total
            fused = statistics._within_rule(tables.reshape(-1), np.add.reduce(tables, axis=-1))
            assert fused == all(passes(row) for row in tables) == passes(tables)
        # an infinite entry leaves its row a total of -inf + inf
        assert fused == (statistics.NEG_FLOOR <= entry < np.inf and abs(total - 1.0) <= statistics.NORM_TOL)

    def test_clipped(self):
        g = TimeGrid(0.0, (1.0,))
        d = JointDistribution(2, g, np.array([1.0 + 5e-11, -5e-11]))
        assert d.clipped().min() == 0.0


class TestJointVsOracle:
    """Branch-state propagation (joint_distribution) against the global-unitary oracle."""

    def test_global_hamiltonian_bitwise_the_kronecker_sum(self):
        rng = np.random.default_rng(0)
        models = [get_preset(name) for name in ("qubit-zx", "scalar-phases", "commuting-diag")]
        models += [random_exact_model(int(rng.integers(2, 6)), int(rng.integers(1, 5)), seed) for seed in range(40)]
        for model in models:
            assert _build_global_hamiltonian(model).tobytes() == reference.global_hamiltonian(model).tobytes()

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

        projectors = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        meas = ProjectiveMeasurement(projectors=projectors)
        prep = SystemPreparation.maximally_mixed(2)
        grid = TimeGrid(0.0, (0.4, 1.0, 1.7))
        fast = joint_distribution(zx_provider, prep, meas, grid)
        # the oracle reads the projectors as given, not those rebuilt from the engine's bases
        slow = oracle_distribution(zx_model, prep, reference.GivenProjectors(projectors), grid)
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
            meas = ref = ProjectiveMeasurement(vectors=u)
        else:
            # two outcomes of ranks cut and d - cut, through the general-PVM path;
            # the oracle reads the projectors as given
            cut = 1 + seed % (d - 1)
            projectors = [u[:, :cut] @ u[:, :cut].conj().T, u[:, cut:] @ u[:, cut:].conj().T]
            meas, ref = ProjectiveMeasurement(projectors=projectors), reference.GivenProjectors(projectors)
        prep = SystemPreparation(random_density(d, seed + 2))
        grid = TimeGrid(0.0, tuple(np.sort(np.random.default_rng(seed).uniform(0.1, 3.0, n))))
        fast = joint_distribution(ExactDephasingProvider(model), prep, meas, grid)
        slow = oracle_distribution(model, prep, ref, grid)
        assert np.max(np.abs(fast.table - slow.table)) < 1e-12

    def test_projectors_lifted_once(self, zx_model, monkeypatch):
        # m projector reads per oracle call, not one per (branch, outcome): 14 for this grid
        calls = []

        def counting(read):
            def projector(self, x):
                calls.append(x)
                return read(self, x)

            return projector

        monkeypatch.setattr(ProjectiveMeasurement, "projector", counting(ProjectiveMeasurement.projector))
        monkeypatch.setattr(reference.GivenProjectors, "projector", counting(reference.GivenProjectors.projector))
        prep = SystemPreparation.pure([0.6, 0.8])
        grid = TimeGrid(0.0, (0.5, 1.2, 2.0))
        meas = qubit_basis(0.47766, 0.0)
        given = reference.GivenProjectors([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        for pvm in (meas, given):
            calls.clear()
            oracle_distribution(zx_model, prep, pvm, grid)
            assert sorted(calls) == list(range(pvm.n_outcomes))


def reference_transfer(provider, state, dt, source, target):
    """E_x -> V_y† Λ_dt(V_x E_x V_x†) V_y by einsum, with Λ_dt: S[j, l] -> U_j S[j, l] U_l†
    from ``hermitian_expm`` of each block (exact provider), or S[j, l] -> φ_jl·S[j, l]
    from the model's ``phi_matrix`` (analytic one): no code of the provider's stages.
    An array ``dt``, one duration per leading row, is taken row by row."""
    lead = state.shape[:-3]
    if isinstance(dt, np.ndarray):
        dt = np.broadcast_to(dt, lead)
        rows = [reference_transfer(provider, state[idx], float(dt[idx]), source, target) for idx in np.ndindex(lead)]
        return np.array(rows).reshape(lead + rows[0].shape)
    (ms, d, rs), (mt, _, rt), big_d = source.shape, target.shape, provider.env.shape[0]
    blocks = state.reshape(lead + (ms, rs, big_d, rs, big_d))
    lifted = np.einsum("xja,...xacbe,xlb->...xjlce", source, blocks, source.conj())
    if isinstance(provider, ExactDephasingProvider):
        u = np.stack([hermitian_expm(h, dt) for h in provider.model.blocks])
        evolved = np.einsum("jac,...xjlce,lbe->...xjlab", u, lifted, u.conj())
    else:
        evolved = lifted * provider.model.phi_matrix(dt)[:, :, None, None]
    out = np.einsum("yjg,...xjlce,yld->...xygcde", target.conj(), evolved, target)
    return out.reshape(out.shape[:-4] + (rt * big_d, rt * big_d))


ANALYTIC_D3 = MarkovianAnalyticProvider(
    MarkovianAnalyticModel(
        np.array([[0.0, 0.8, -0.3], [-0.8, 0.0, 1.1], [0.3, -1.1, 0.0]]),
        np.array([[0.0, 0.5, 0.2], [0.5, 0.0, 0.9], [0.2, 0.9, 0.0]]),
    )
)
KERNEL_CASES = pytest.mark.parametrize(
    "provider, meas",
    [
        (ExactDephasingProvider(random_exact_model(2, 2, seed=4)), qubit_basis(0.3, 1.1)),
        (ExactDephasingProvider(random_exact_model(3, 4, seed=7)), fourier_mub(3)),
        (ExactDephasingProvider(random_exact_model(3, 3, seed=6)), fourier_mub(3)),
        (
            ExactDephasingProvider(random_exact_model(3, 1, seed=4)),
            ProjectiveMeasurement(projectors=(np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0]))),
        ),
        (ExactDephasingProvider(random_exact_model(4, 3, seed=7)), ProjectiveMeasurement(vectors=random_unitary(4, 9))),
        (ExactDephasingProvider(random_exact_model(2, 12, seed=14)), fourier_mub(2)),
        (
            ExactDephasingProvider(random_exact_model(4, 2, seed=3)),
            ProjectiveMeasurement(projectors=[u @ u.conj().T for u in np.split(random_unitary(4, 5), [1, 3], axis=1)]),
        ),
        (ANALYTIC_D3, fourier_mub(3)),
        (ANALYTIC_D3, ProjectiveMeasurement(projectors=(np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])))),
    ],
    ids=[
        "qubit-D2", "mub-d3-D4", "mub-d3-D3", "rank-two-d3-D1", "random-d4-D3", "qubit-D12",
        "ranks-1-2-1-d4-D2", "analytic-mub-d3", "analytic-rank-two-d3",
    ],
)


def random_branches(rng, shape):
    """Random complex branch states: the kernels are linear, so they need not be Hermitian."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestEngineKernels:
    """The stages' composition ``transfer`` against an independent einsum reference, and per batch row."""

    @KERNEL_CASES
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["no-batch", "batch-3", "batch-2x3"])
    def test_against_einsum(self, provider, meas, lead):
        bases, big_d = meas.bases, provider.env.shape[0]
        identity = np.eye(provider.d, dtype=complex)[None]
        rng = np.random.default_rng(len(lead))
        for source in (identity, bases):
            n = source.shape[-1] * big_d
            state = random_branches(rng, lead + (len(source), n, n))
            out = transfer(provider, state, 0.7, source, bases)
            assert out.shape == lead + (len(source), len(bases)) + (bases.shape[-1] * big_d,) * 2
            assert np.max(np.abs(out - reference_transfer(provider, state, 0.7, source, bases))) < 1e-13
            # one duration per leading row
            dt = np.linspace(0.0, 2.0, lead[0]).reshape(lead[:1] + (1,) * (len(lead) - 1)) if lead else 0.3
            out = transfer(provider, state, np.asarray(dt), source, bases)
            assert np.max(np.abs(out - reference_transfer(provider, state, np.asarray(dt), source, bases))) < 1e-13

    @KERNEL_CASES
    def test_rows_do_not_depend_on_the_batch(self, provider, meas):
        # every product has a fixed shape per row: a row alone gives the same bits
        bases, big_d = meas.bases, provider.env.shape[0]
        n = bases.shape[-1] * big_d
        state = random_branches(np.random.default_rng(17), (7, 2, len(bases), n, n))
        dt = np.array([0.7, 0.0, 1.3, 0.7, 2.9, 1.3, 0.4])
        batched = transfer(provider, state, dt[:, None], bases, bases)
        for r in range(len(state)):
            assert np.array_equal(batched[r], transfer(provider, state[r], float(dt[r]), bases, bases))
            assert np.array_equal(batched[r : r + 3], transfer(provider, state[r : r + 3], dt[r : r + 3, None], bases, bases))

    def test_probabilities_are_traces(self):
        state = random_branches(np.random.default_rng(5), (4, 3, 6, 6))
        assert np.max(np.abs(_probabilities(state) - np.trace(state, axis1=-2, axis2=-1).real)) < 1e-14

    def test_root_is_rho_times_env(self, zx_provider):
        prep = SystemPreparation(random_density(2, 3))
        root, identity = _root(zx_provider, prep, fourier_mub(2), "test")
        assert np.array_equal(root[0], np.kron(prep.density, zx_provider.env))
        assert np.array_equal(identity[0], np.eye(2))


class TestGridKernels:
    """``kernels`` of ``exponentials`` over an array of durations, and ``apply``, as the engine uses them."""

    @KERNEL_CASES
    def test_array_kernels_equal_scalar_kernels(self, provider, meas):
        # a kernel's bits do not depend on the durations exponentiated with it
        bases = meas.bases
        identity = np.eye(provider.d, dtype=complex)[None]
        dt = np.array([[0.7, 0.0, 1.3], [0.7, 2.9, 0.4]])
        for source in (identity, bases):
            for shape in ((6,), (2, 3)):
                exponentials = provider.exponentials(dt.reshape(shape))
                batched = provider.kernels(exponentials, source, bases)
                for idx in np.ndindex(shape):
                    alone = provider.exponentials(float(dt.reshape(shape)[idx]))
                    assert np.array_equal(exponentials[idx], alone)
                    assert np.array_equal(batched[idx], provider.kernels(alone, source, bases))

    @KERNEL_CASES
    def test_apply_of_array_kernels_is_transfer(self, provider, meas):
        # one kernel per row, against the transfer of the same durations and
        # against the kernels of the distinct durations gathered per row (the level walk's)
        bases, big_d = meas.bases, provider.env.shape[0]
        n = bases.shape[-1] * big_d
        state = random_branches(np.random.default_rng(23), (5, len(bases), n, n))
        dt = np.array([0.7, 0.0, 1.3, 0.7, 2.9])
        out = provider.apply(state, provider.kernels(provider.exponentials(dt), bases, bases), bases, bases)
        assert out.shape == (5, len(bases), len(bases), n, n)
        assert np.array_equal(out, transfer(provider, state, dt, bases, bases))
        durations, inverse = models._distinct(dt)
        gathered = provider.kernels(provider.exponentials(durations), bases, bases)[inverse]
        assert np.array_equal(out, provider.apply(state, gathered, bases, bases))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_one_eigendecomposition_two_exponentiations(self, monkeypatch, n):
        # one eigendecomposition and one exponentiation, of all n durations at once
        eigh, expm = [], []
        real_eigh, real_expm = models.hermitian_eigh, models.spectral_expm

        def counting_eigh(h):
            eigh.append(h.shape)
            return real_eigh(h)

        def counting_expm(w, v, tau):
            expm.append(np.shape(tau))
            return real_expm(w, v, tau)

        def forbidden(*args, **kwargs):
            raise AssertionError("no deduplication of a grid's durations")

        model = random_exact_model(3, 4, seed=31)
        prep, meas = SystemPreparation(random_density(3, 2)), fourier_mub(3)
        grid = TimeGrid(0.0, tuple(0.4 * k for k in range(1, n + 1)))
        monkeypatch.setattr(models, "hermitian_eigh", counting_eigh)
        monkeypatch.setattr(models, "spectral_expm", counting_expm)
        monkeypatch.setattr(ExactDephasingProvider, "_unitaries_batch", forbidden)
        with monkeypatch.context() as patch:
            patch.setattr(np, "unique", forbidden)
            table = joint_distribution(ExactDephasingProvider(model), prep, meas, grid).table
        assert eigh == [(3, 4, 4)]
        assert expm == [(n, 1)]
        assert np.max(np.abs(table - oracle_distribution(model, prep, meas, grid).table)) < 1e-12

    @pytest.mark.parametrize("provider_case", ["exact", "analytic"])
    def test_one_time_grid_reads_the_root_out(self, monkeypatch, provider_case):
        # n = 1: the first kernel's effects read the root out; nothing is built
        # from an empty array of durations, and no branch state is built at all
        if provider_case == "exact":
            model = random_exact_model(3, 4, seed=5)
            provider, cls = ExactDephasingProvider(model), ExactDephasingProvider
        else:
            provider, cls = ANALYTIC_D3, MarkovianAnalyticProvider
        calls, taus = [], []
        real_expm = models.spectral_expm

        def counting_expm(w, v, tau):
            taus.append(np.size(tau))
            return real_expm(w, v, tau)

        def recording(name):
            real = getattr(cls, name)

            def stage(self, *args):
                calls.append((name, np.size(args[0])))
                return real(self, *args)

            return stage

        monkeypatch.setattr(models, "spectral_expm", counting_expm)
        for name in ("exponentials", "kernels", "apply", "effects"):
            monkeypatch.setattr(cls, name, recording(name))
        prep, meas, grid = SystemPreparation(random_density(3, 8)), fourier_mub(3), TimeGrid(0.2, (1.1,))
        table = joint_distribution(provider, prep, meas, grid).table
        assert [name for name, _ in calls] == ["exponentials", "kernels", "effects"]
        assert all(size > 0 for _, size in calls)
        if provider_case == "exact":
            assert taus == [1]
            assert np.max(np.abs(table - oracle_distribution(model, prep, meas, grid).table)) < 1e-12
        else:
            assert taus == []
            repeated = joint_distribution(provider, prep, meas, TimeGrid(0.2, (1.1, 1.1))).marginalize(2)
            assert np.max(np.abs(table - repeated.table)) < 1e-12


class TestReadout:
    """``effects`` and ``_readout`` against the traces of the branch states ``apply`` builds."""

    @KERNEL_CASES
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["no-batch", "batch-3", "batch-2x3"])
    def test_against_traced_apply(self, provider, meas, lead):
        bases, big_d = meas.bases, provider.env.shape[0]
        identity = np.eye(provider.d, dtype=complex)[None]
        rng = np.random.default_rng(40 + len(lead))
        for source in (identity, bases):
            n = source.shape[-1] * big_d
            state = random_branches(rng, lead + (len(source), n, n))
            # one kernel for every row, then one per leading row
            per_row = np.linspace(0.1, 2.0, lead[0]).reshape(lead[:1] + (1,) * (len(lead) - 1)) if lead else 0.3
            for dt in (0.7, np.asarray(per_row)):
                kernels = provider.kernels(provider.exponentials(dt), source, bases)
                effects = provider.effects(kernels, source, bases)
                assert effects.shape[-4:] == (len(source), len(bases), n, n)
                out = _readout(state, effects)
                assert out.shape == lead + (len(source), len(bases))
                assert np.max(np.abs(out - _probabilities(provider.apply(state, kernels, source, bases)))) < 1e-13

    @KERNEL_CASES
    def test_rows_do_not_depend_on_the_batch(self, provider, meas):
        # one effect per row, gathered from the distinct durations as the level walk does
        bases, big_d = meas.bases, provider.env.shape[0]
        n = bases.shape[-1] * big_d
        state = random_branches(np.random.default_rng(19), (7, 2, len(bases), n, n))
        durations, inverse = models._distinct(np.array([0.7, 0.0, 1.3, 0.7, 2.9, 1.3, 0.4])[:, None])
        kernels = provider.kernels(provider.exponentials(durations), bases, bases)
        effects = provider.effects(kernels, bases, bases)[inverse]
        batched = _readout(state, effects)
        assert batched.shape == (7, 2, len(bases), len(bases))
        for r in range(len(state)):
            assert np.array_equal(batched[r], _readout(state[r], effects[r]))
            assert np.array_equal(batched[r : r + 3], _readout(state[r : r + 3], effects[r : r + 3]))


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
        assert abs(dist.as_array()[0] - 0.5 * (1 + np.cos(t) ** 2)) < 1e-12

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


    def test_analytic_general_pvm_matches_oracle(self):
        # scalar blocks h_j are the analytic model eps[j, l] = h_j - h_l, gamma = 0,
        # so the oracle of the exact model checks the analytic provider's transfer
        h = np.array([0.0, 0.9, -0.4])
        exact = DephasingModel(tuple(np.array([[x]], dtype=complex) for x in h), np.ones((1, 1), dtype=complex))
        analytic = MarkovianAnalyticProvider(MarkovianAnalyticModel(h[:, None] - h[None, :], np.zeros((3, 3))))
        u = random_unitary(3, 21)
        projectors = [u[:, :1] @ u[:, :1].conj().T, u[:, 1:] @ u[:, 1:].conj().T]
        rank_one = ProjectiveMeasurement(vectors=u)
        # the oracle reads a general PVM's projectors as given
        for meas, ref in ((rank_one, rank_one), (ProjectiveMeasurement(projectors=projectors), reference.GivenProjectors(projectors))):
            prep = SystemPreparation(random_density(3, 22))
            grid = TimeGrid(0.1, (0.5, 1.3, 1.3, 2.2))
            fast = joint_distribution(analytic, prep, meas, grid)
            slow = oracle_distribution(exact, prep, ref, grid)
            assert np.max(np.abs(fast.table - slow.table)) < 1e-12


SET_UP_CASES = pytest.mark.parametrize(
    "make, meas",
    [
        (lambda: ExactDephasingProvider(random_exact_model(3, 2, seed=5)), lambda: fourier_mub(3)),
        (lambda: ExactDephasingProvider(get_preset("qubit-zx")), lambda: qubit_basis(0.4, 0.3)),
        (lambda: MarkovianAnalyticProvider(get_preset("markov-real-qudit")), lambda: fourier_mub(3)),
    ],
    ids=["exact-d3", "qubit-zx", "analytic"],
)


class TestSetUpOncePerObject:
    """What depends only on the model, the measurement or the grid is built once per
    object (the block stack, the basis-pair coefficients, the identity basis, the
    durations), never across providers, and never shows in the bits."""

    def test_second_call_builds_no_coefficients(self, monkeypatch):
        builds, real = [], models._basis_pair

        def counting(source, target):
            builds.append((source.shape, target.shape))
            return real(source, target)

        monkeypatch.setattr(models, "_basis_pair", counting)
        model, prep = random_exact_model(3, 2, seed=5), SystemPreparation.maximally_mixed(3)
        grid = TimeGrid(0.0, (0.4, 0.9, 1.7))
        models._kept_coefficients.cache_clear()
        joint_distribution(ExactDephasingProvider(model), prep, fourier_mub(3), grid)
        # out of the identity basis, and between outcome bases
        assert builds == [((1, 3, 3), (3, 3, 1)), ((3, 3, 1), (3, 3, 1))]
        # a fresh provider, and an equal measurement built again
        joint_distribution(ExactDephasingProvider(model), prep, fourier_mub(3), grid)
        assert len(builds) == 2

    @SET_UP_CASES
    @pytest.mark.parametrize("times", [(0.7,), (0.4, 0.9, 1.7)], ids=["n1", "n3"])
    def test_cache_state_never_shows(self, monkeypatch, make, meas, times):
        prep, grid = SystemPreparation.maximally_mixed(make().d), TimeGrid(0.1, times)
        models._kept_coefficients.cache_clear()
        statistics._identity.cache_clear()
        cold = joint_distribution(make(), prep, meas(), grid).table
        warm = joint_distribution(make(), prep, meas(), TimeGrid(0.1, times)).table
        monkeypatch.setattr(models, "COEFFICIENT_ENTRIES", 0)  # built per call
        uncached = joint_distribution(make(), prep, meas(), grid).table
        assert cold.tobytes() == warm.tobytes() == uncached.tobytes()

    def test_identity_basis_shared_read_only(self, zx_provider):
        prep = SystemPreparation.maximally_mixed(2)
        _, a = _root(zx_provider, prep, fourier_mub(2), "test")
        _, b = _root(ExactDephasingProvider(get_preset("qubit-zx")), prep, qubit_basis(0.3, 0.0), "test")
        assert a is b and a.shape == (1, 2, 2) and not a.flags.writeable

    def test_grid_durations_stored_read_only(self):
        grid = TimeGrid(0.5, (1.0, 1.0, 2.5))
        assert not grid._durations.flags.writeable and grid._durations.dtype == float
        assert grid._durations.tolist() == list(grid.durations) == [0.5, 0.0, 1.5]
        # not a field: equality and hashing read t0 and the times
        assert grid == TimeGrid(0.5, [1, 1, 2.5]) and hash(grid) == hash(TimeGrid(0.5, (1.0, 1.0, 2.5)))

    @SET_UP_CASES
    def test_provider_reads_the_stored_durations(self, make, meas):
        provider, seen = make(), []
        real = provider.exponentials
        provider.exponentials = lambda dt: seen.append(dt) or real(dt)
        grid = TimeGrid(0.0, (0.4, 0.9, 1.7))
        joint_distribution(provider, SystemPreparation.maximally_mixed(provider.d), meas(), grid)
        assert len(seen) == 1 and seen[0] is grid._durations

    def test_each_provider_decomposes_its_model(self, monkeypatch):
        calls, real = [], models.hermitian_eigh
        monkeypatch.setattr(models, "hermitian_eigh", lambda h: calls.append(h) or real(h))
        model, prep, grid = random_exact_model(3, 2, seed=5), SystemPreparation.maximally_mixed(3), TimeGrid(0.0, (0.4, 0.9))
        for _ in range(3):
            joint_distribution(ExactDephasingProvider(model), prep, fourier_mub(3), grid)
        assert len(calls) == 3


class TestCaps:
    def test_term_cap(self, zx_model, monkeypatch):
        # 5 qubit times, D = 2: the branch states after 4 measurements hold
        # 2^4·r²·D² = 64 entries, more than ρ⊗ρ_E and the first K·E (16 each)
        # and the 2^5 table
        prep, meas = SystemPreparation.maximally_mixed(2), fourier_mub(2)
        grid = TimeGrid(0.0, tuple(float(k) for k in range(1, 6)))
        monkeypatch.setattr(statistics, "TERM_CAP", 64)
        table = joint_distribution(ExactDephasingProvider(zx_model), prep, meas, grid).table
        assert np.max(np.abs(table - oracle_distribution(zx_model, prep, meas, grid).table)) < 1e-12
        monkeypatch.setattr(statistics, "TERM_CAP", 63)
        with pytest.raises(SizeCapError):
            joint_distribution(ExactDephasingProvider(zx_model), prep, meas, grid)

    def test_cap_checked_before_any_propagator(self, zx_provider, monkeypatch):
        # the branch states before the last interval hold 2^22 outcome tuples x r^2 D^2 = 4 entries
        def forbidden(*args):
            raise AssertionError("no propagator before the cap check")

        monkeypatch.setattr(models, "spectral_expm", forbidden)
        prep = SystemPreparation.maximally_mixed(2)
        grid = TimeGrid(0.0, tuple(0.1 * k for k in range(1, 24)))
        with pytest.raises(SizeCapError):
            joint_distribution(zx_provider, prep, fourier_mub(2), grid)
        assert zx_provider._batch is None
        assert "_eigh" not in vars(zx_provider)

    def test_cap_checked_before_any_eigendecomposition(self, zx_model, monkeypatch):
        def forbidden(*args):
            raise AssertionError("no eigendecomposition or propagator before the cap check")

        monkeypatch.setattr(models, "hermitian_eigh", forbidden)
        monkeypatch.setattr(models, "spectral_expm", forbidden)
        grid = TimeGrid(0.0, tuple(0.1 * k for k in range(1, 24)))
        with pytest.raises(SizeCapError):
            joint_distribution(ExactDephasingProvider(zx_model), SystemPreparation.maximally_mixed(2), fourier_mub(2), grid)

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
    """The reduced map Λ_{t,s} = diag(vec φ(t, s)), read as the dephasing matrix."""

    def test_trace_preserving(self, zx_provider):
        # tr Λ(X) = tr X for all X  <=>  vec(1)†·Λ = vec(1)†  <=>  φ has a unit diagonal
        assert np.max(np.abs(np.diag(zx_provider.dephasing_matrix(2.0, 0.0)) - 1.0)) <= 1e-10

    def test_time_order(self, zx_provider):
        with pytest.raises(TimeOrderError):
            zx_provider.dephasing_matrix(0.0, 1.0)


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


def _rank_two_projectors(d, seed):
    """Two projectors of ranks 2 and d - 2 (d >= 3) on a random basis, or for
    d = 2 one rank-2 projector (the identity)."""
    u = random_unitary(d, seed)
    return [u[:, :2] @ u[:, :2].conj().T] + [u[:, 2:] @ u[:, 2:].conj().T] * (d > 2)


def _mixed_rank_projectors(d, seed):
    """Ranks (2, 1, ..., 1) on a random basis."""
    u = random_unitary(d, seed)
    return [u[:, :2] @ u[:, :2].conj().T] + [np.outer(u[:, x], u[:, x].conj()) for x in range(2, d)]


def _general(projectors):
    """A general PVM and, for the references, its projectors as given."""
    return ProjectiveMeasurement(projectors=projectors), reference.GivenProjectors(projectors)


def _rank_one(meas):
    """A rank-one PVM, its own reference: its bases are its given columns."""
    return meas, meas


TRANSITION_MEASUREMENTS = {
    "fourier-mub": lambda d: _rank_one(fourier_mub(d)),
    "dephasing-basis": lambda d: _rank_one(dephasing_basis(d)),
    "random-rank-one": lambda d: _rank_one(ProjectiveMeasurement(vectors=random_unitary(d, 17 + d))),
    "rank-two": lambda d: _general(_rank_two_projectors(d, 23 + d)),
    "mixed-rank": lambda d: _general(_mixed_rank_projectors(d, 29 + d)),
}

TRANSITION_PROVIDERS = {
    "exact-d2-D4": ExactDephasingProvider(random_exact_model(2, 4, seed=71)),
    "exact-d3-D2": ExactDephasingProvider(random_exact_model(3, 2, seed=72)),
    "exact-d4-D3": ExactDephasingProvider(random_exact_model(4, 3, seed=73)),
    "exact-d5-D4": ExactDephasingProvider(random_exact_model(5, 4, seed=74)),
    "analytic-d2": MarkovianAnalyticProvider(MarkovianAnalyticModel(np.array([[0.0, 0.8], [-0.8, 0.0]]), np.array([[0.0, 0.5], [0.5, 0.0]]))),
    "analytic-d3-real": real_dephasing_provider(3, 0.7),
}


class TestTransitionFormula:
    """The R×R formulas of ncgd_deficit and sandwich_identity_deficit against
    the d²×d² composition of tests/reference.py, on grids with a repeated time."""

    TIMES = [0.3, 1.1, 1.1, 2.4, 3.0, 4.2]

    @pytest.fixture(params=list(TRANSITION_PROVIDERS), ids=list(TRANSITION_PROVIDERS))
    def provider(self, request):
        return TRANSITION_PROVIDERS[request.param]

    @pytest.fixture(params=list(TRANSITION_MEASUREMENTS), ids=list(TRANSITION_MEASUREMENTS))
    def measurement(self, request, provider):
        """(PVM, reference): the references compose the projectors as given."""
        return TRANSITION_MEASUREMENTS[request.param](provider.d)

    def triples(self):
        return np.array(list(itertools.combinations(sorted(self.TIMES), 3))).T

    def test_matches_reference_composition(self, provider, measurement):
        measurement, ref = measurement
        t1, t2, t3 = self.triples()
        ncgd = ncgd_deficit(provider, measurement, t1, t2, t3)
        sandwich = sandwich_identity_deficit(provider, measurement, t3, t1)
        assert ncgd.shape == sandwich.shape == t1.shape
        for k, triple in enumerate(zip(t1, t2, t3)):
            assert abs(ncgd[k] - reference.ncgd_deficit(provider, ref, *triple)) < 1e-12
            assert abs(sandwich[k] - reference.sandwich_identity_deficit(provider, ref, triple[2], triple[0])) < 1e-12

    def test_array_equals_scalar_calls(self, provider, measurement):
        measurement = measurement[0]
        t1, t2, t3 = self.triples()
        ncgd = ncgd_deficit(provider, measurement, t1, t2, t3)
        sandwich = sandwich_identity_deficit(provider, measurement, t3, t1)
        scalar = [ncgd_deficit(provider, measurement, *triple) for triple in zip(t1, t2, t3)]
        assert all(isinstance(x, float) for x in scalar)
        assert np.array_equal(ncgd, scalar)
        assert np.array_equal(sandwich, [sandwich_identity_deficit(provider, measurement, t, s) for t, s in zip(t3, t1)])

    def test_broadcasts_and_keeps_shape(self):
        provider, meas = TRANSITION_PROVIDERS["exact-d3-D2"], fourier_mub(3)
        t2 = np.array([[0.5, 0.9], [1.2, 1.6]])
        ncgd = ncgd_deficit(provider, meas, 0.2, t2, 2.0)
        assert ncgd.shape == (2, 2)
        assert ncgd[1, 0] == ncgd_deficit(provider, meas, 0.2, 1.2, 2.0)
        with pytest.raises(TimeOrderError):
            ncgd_deficit(provider, meas, 0.2, np.array([0.5, 2.5]), 2.0)

    def test_chunked_lift_matches_whole(self, monkeypatch):
        # d = 3: d⁴ = 81 entries per lifted matrix, and a triple's three Q†·Λ of this PVM's R = 5
        # channel basis hold 3·5·9 = 135, so a cap of 200 takes one triple, or two pairs, per chunk
        meas = ProjectiveMeasurement(projectors=_mixed_rank_projectors(3, 5))
        t1, t2, t3 = self.triples()
        reads = []

        class RecordingProvider(ExactDephasingProvider):
            def dephasings(self, dt):
                reads.append(np.shape(dt)[-1])
                return super().dephasings(dt)

        provider = RecordingProvider(TRANSITION_PROVIDERS["exact-d3-D2"].model)
        whole = ncgd_deficit(provider, meas, t1, t2, t3), sandwich_identity_deficit(provider, meas, t3, t1)
        assert reads == [len(t1)] * 2
        reads.clear()
        monkeypatch.setattr(models, "TERM_CAP", 200)
        chunked = ncgd_deficit(provider, meas, t1, t2, t3), sandwich_identity_deficit(provider, meas, t3, t1)
        # one read per chunk: the three pairs of a triple stacked, then the sandwich's pairs
        assert reads == [1] * len(t1) + [2] * (len(t1) // 2)
        assert np.array_equal(chunked[0], whole[0]) and np.array_equal(chunked[1], whole[1])

    @pytest.mark.parametrize(
        "meas", [ProjectiveMeasurement(projectors=(np.eye(2),)), fourier_mub(2)], ids=["one-outcome", "mub"]
    )
    def test_chunks_hold_the_transitions_within_cap(self, monkeypatch, meas):
        # on a D = 1 qubit a triple's three Q†·Λ, 3·R·d² entries (48 for the identity PVM,
        # R = 4; 24 for the Fourier basis, R = 2), outgrow its lifted matrix, d⁴ = 16
        provider = TRANSITION_PROVIDERS["analytic-d2"]
        t1, t2, t3 = np.sort(np.random.default_rng(5).uniform(0.0, 3.0, (3, 1000)), axis=0)
        whole = ncgd_deficit(provider, meas, t1, t2, t3)
        held, real = [], statistics._transitions

        def spy(provider, measurement, t, s, caller):
            a, g, q = real(provider, measurement, t, s, caller)
            held.append(max(a.size * q.shape[1], g.size))  # Q†·Λ holds R entries per entry of a
            return a, g, q

        monkeypatch.setattr(statistics, "_transitions", spy)
        monkeypatch.setattr(models, "TERM_CAP", 1200)
        chunked = ncgd_deficit(provider, meas, t1, t2, t3)
        assert len(held) > 1 and max(held) <= 1200
        assert chunked.tobytes() == whole.tobytes()

    def test_times_checked_once_per_call(self, monkeypatch):
        # the order rule runs once, in _max_per_entry; each chunk reads φ by dephasings(t - s),
        # not through dephasing_matrix, which would check its times again
        checked, real = [], models._ordered
        monkeypatch.setattr(models, "_ordered", lambda caller, *args: checked.append(caller) or real(caller, *args))
        monkeypatch.setattr(models, "TERM_CAP", 200)  # several chunks per call
        provider, meas = TRANSITION_PROVIDERS["exact-d3-D2"], fourier_mub(3)
        t1, t2, t3 = self.triples()
        ncgd_deficit(provider, meas, t1, t2, t3)
        sandwich_identity_deficit(provider, meas, t3, t1)
        models.semigroup_deficit(provider, t1, t2, t3)
        assert checked == ["ncgd_deficit", "sandwich_identity_deficit", "semigroup_deficit"]

    def test_classical_reading_rank_one(self):
        # for a rank-one PVM, G_xy = tr(P_x Λ(P_y)): the transition matrix between outcomes
        provider, meas = TRANSITION_PROVIDERS["exact-d3-D2"], fourier_mub(3)
        phi = provider.dephasing_matrix(1.7, 0.4)
        g = statistics._transitions(provider, meas, 1.7, 0.4, "test")[1]
        expected = [[np.trace(meas.projector(x) @ (phi * meas.projector(y))) for y in range(3)] for x in range(3)]
        assert np.max(np.abs(g - np.array(expected))) < 1e-14

