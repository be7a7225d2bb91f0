import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from dephaser.errors import ShapeError, ValidationError
from dephaser.measurements import (
    PhaseVector,
    ProjectiveMeasurement,
    dephasing_basis,
    dephasing_channel,
    fourier_mub,
    mub_check,
    qubit_basis,
)

dims = st.integers(min_value=2, max_value=5)
angles = st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False)


class TestPhaseVector:
    def test_gauge_fixing(self):
        pv = PhaseVector((0.3, 1.0, 2.0))
        assert pv.phases[0] == 0.0
        assert abs(pv.phases[1] - 0.7) < 1e-15
        assert abs(pv.phases[2] - 1.7) < 1e-15

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            PhaseVector((0.0, float("inf")))

    def test_gauge_equivalence_gives_same_basis(self):
        a = fourier_mub(3, PhaseVector((0.0, 0.4, 1.1)))
        b = fourier_mub(3, PhaseVector((5.0, 5.4, 6.1)))
        assert np.max(np.abs(a.vectors - b.vectors)) < 1e-12


class TestProjectiveMeasurement:
    def test_rank_one_projector(self):
        m = dephasing_basis(3)
        p1 = m.projector(1)
        assert np.allclose(p1, np.diag([0.0, 1.0, 0.0]))
        assert m.is_rank_one and m.n_outcomes == 3

    def test_rejects_nonorthonormal(self):
        with pytest.raises(ValidationError):
            ProjectiveMeasurement(vectors=np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_vectors(self, entry):
        # a NaN Gram deviation fails no > test, so NaN vectors used to be accepted
        with pytest.raises(ValidationError):
            ProjectiveMeasurement(vectors=np.full((2, 2), entry))
        with pytest.raises(ValidationError):
            ProjectiveMeasurement(vectors=np.array([[1.0, 0.0], [0.0, entry]]))

    @pytest.mark.parametrize(
        "given",
        [{"projectors": []}, {"vectors": np.zeros((0, 0))}, {"projectors": [np.zeros((0, 0))]}],
        ids=["no-projectors", "no-vectors", "empty-projector"],
    )
    def test_rejects_empty(self, given):
        # an IndexError and a numpy "zero-size array to reduction" ValueError before
        with pytest.raises(ValidationError):
            ProjectiveMeasurement(**given)

    def test_rejects_both_arguments(self):
        with pytest.raises(ValidationError):
            ProjectiveMeasurement(vectors=np.eye(2), projectors=[np.eye(2)])

    def test_general_projectors(self):
        # rank 2 + rank 1 decomposition of a qutrit identity
        p0 = np.diag([1.0, 1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 0.0, 1.0]).astype(complex)
        m = ProjectiveMeasurement(projectors=[p0, p1])
        assert not m.is_rank_one
        assert m.n_outcomes == 2
        assert np.allclose(m.projector(0), p0)

    def test_rejects_nonorthogonal_projectors(self):
        p0 = np.diag([1.0, 1.0]).astype(complex) / 1.0
        with pytest.raises(ValidationError):
            ProjectiveMeasurement(projectors=[p0, p0])

    def test_rejects_incomplete_projectors(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValidationError):
            ProjectiveMeasurement(projectors=[p0])

    def test_projectors_idempotent(self):
        m = qubit_basis(0.7, 1.3)
        for x in range(2):
            p = m.projector(x)
            assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.max(np.abs(m.projector(0) + m.projector(1) - np.eye(2))) < 1e-12

    @pytest.mark.parametrize("outcome", [-1, 2], ids=["minus-one", "m"])
    def test_outcome_out_of_range(self, outcome):
        # -1 must not wrap to the last outcome
        with pytest.raises(ValidationError):
            fourier_mub(2).projector(outcome)


    @pytest.mark.parametrize("outcome", [1.5, float("nan"), "1"], ids=["1.5", "nan", "string"])
    def test_non_integral_outcome(self, outcome):
        # 1.5 must not escape as numpy's bare IndexError
        with pytest.raises(ValidationError):
            fourier_mub(2).projector(outcome)
        assert np.array_equal(fourier_mub(2).projector(np.int64(1)), fourier_mub(2).projector(1))

    def test_rank_one_projectors_are_rank_one(self):
        # projectors of rank one give the same kind of PVM as their columns
        u = fourier_mub(3).vectors
        m = ProjectiveMeasurement(projectors=[np.outer(u[:, x], u[:, x].conj()) for x in range(3)])
        assert m.is_rank_one and m.n_outcomes == 3 and m.vectors.shape == (3, 3)
        assert mub_check(dephasing_basis(3), m)
        assert np.max(np.abs(np.abs(m.vectors.conj().T @ u) - np.eye(3))) < 1e-12
        # with a zero projector added, m = d + 1 outcomes: not rank-one, though r = 1
        padded = ProjectiveMeasurement(projectors=[np.outer(u[:, x], u[:, x].conj()) for x in range(3)] + [np.zeros((3, 3))])
        assert padded.bases.shape == (4, 3, 1) and not padded.is_rank_one and padded.vectors is None
        with pytest.raises(ValidationError, match="only rank-one PVMs"):
            mub_check(dephasing_basis(3), padded)

    @pytest.mark.parametrize(
        "meas",
        [fourier_mub(d) for d in range(2, 8)] + [qubit_basis(0.1 * k, 0.37 * k - 2.0) for k in range(35)],
        ids=[f"fourier-{d}" for d in range(2, 8)] + [f"qubit-{k}" for k in range(35)],
    )
    def test_rank_one_projector_is_outer_product(self, meas):
        # bit for bit, where a BLAS v @ v† product may move the last bit
        for x in range(meas.n_outcomes):
            v = meas.vectors[:, x]
            assert np.array_equal(meas.projector(x), np.outer(v, v.conj()))

    def test_general_projector_matches_given(self):
        from dephaser.linalg import random_unitary

        u = random_unitary(5, 11)
        given = [u[:, :2] @ u[:, :2].conj().T, u[:, 2:3] @ u[:, 2:3].conj().T, u[:, 3:] @ u[:, 3:].conj().T]
        m = ProjectiveMeasurement(projectors=given)
        assert not m.is_rank_one and m.vectors is None
        for x, p in enumerate(given):
            assert np.max(np.abs(m.projector(x) - p)) < 1e-14


class TestOutcomeBases:
    """``bases`` spans each outcome's range: P_x = V_x V_x†, zero-padded to the largest rank."""

    def test_rank_one_columns(self):
        meas = fourier_mub(3)
        assert meas.bases.shape == (3, 3, 1)
        for x in range(3):
            assert np.array_equal(meas.bases[x, :, 0], meas.vectors[:, x])

    def test_read_only(self):
        meas = fourier_mub(3)
        for array in (meas.bases, meas.vectors):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    def test_general_ranks_padded(self):
        from dephaser.linalg import random_unitary

        u = random_unitary(4, 5)
        parts = np.split(u, [1, 3], axis=1)  # ranks 1, 2 and 1
        meas = ProjectiveMeasurement(projectors=[v @ v.conj().T for v in parts] + [np.zeros((4, 4))])
        bases = meas.bases
        assert bases.shape == (4, 4, 2)
        for x, v in enumerate(parts + [np.zeros((4, 0))]):
            # against the given projector, not projector(x), which is read from bases
            assert np.max(np.abs(bases[x] @ bases[x].conj().T - v @ v.conj().T)) < 1e-14
            assert not bases[x, :, v.shape[1] :].any()
            assert np.max(np.abs(bases[x].conj().T @ bases[x] - np.diag([1.0] * v.shape[1] + [0.0] * (2 - v.shape[1])))) < 1e-14
        with pytest.raises(ValueError):
            bases[0, 0, 0] = 1.0

    def test_rejects_oblique_projectors(self):
        # idempotent, orthogonal to each other and summing to 1, but not Hermitian
        p = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            ProjectiveMeasurement(projectors=[p, np.eye(2) - p])


class TestFourierMub:
    @given(d=dims)
    @settings(max_examples=20, deadline=None)
    def test_unbiased_against_dephasing_basis(self, d):
        assert mub_check(dephasing_basis(d), fourier_mub(d))

    def test_qubit_no_phase_is_hadamard(self):
        m = fourier_mub(2)
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        assert np.max(np.abs(m.vectors - h)) < 1e-12

    @given(d=dims, a=angles, b=angles)
    @settings(max_examples=30, deadline=None)
    def test_phases_preserve_unbiasedness(self, d, a, b):
        phases = PhaseVector(tuple(np.linspace(a, b, d)))
        assert mub_check(dephasing_basis(d), fourier_mub(d, phases))

    def test_phase_count_mismatch(self):
        with pytest.raises(ShapeError):
            fourier_mub(3, PhaseVector((0.0, 1.0)))

    def test_columns_orthonormal(self):
        v = fourier_mub(4).vectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-12


class TestQubitBasis:
    def test_theta_zero_is_computational(self):
        m = qubit_basis(0.0, 0.0)
        assert np.allclose(np.abs(m.vectors), np.eye(2))

    def test_theta_pi_over_4_is_unbiased(self):
        assert mub_check(dephasing_basis(2), qubit_basis(np.pi / 4, 0.9))

    @given(theta=angles, phi=angles)
    @settings(max_examples=40, deadline=None)
    def test_always_orthonormal(self, theta, phi):
        v = qubit_basis(theta, phi).vectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(2))) < 1e-12

    @pytest.mark.parametrize("theta, phi", [(np.inf, 0.0), (0.0, np.nan), (-np.inf, np.inf)], ids=["theta-inf", "phi-nan", "both"])
    def test_rejects_non_finite_angles(self, theta, phi):
        # checked before cos/sin, which warn on an infinite angle
        with pytest.raises(ValidationError):
            qubit_basis(theta, phi)

    def test_overlap_with_computational(self):
        theta = 0.37
        m = qubit_basis(theta, 2.0)
        p0 = abs(m.vectors[0, 0]) ** 2
        assert abs(p0 - np.cos(theta) ** 2) < 1e-12


class TestMubCheck:
    def test_same_basis_not_unbiased(self):
        assert not mub_check(dephasing_basis(3), dephasing_basis(3))

    def test_rejects_general_pvm(self):
        p0 = np.diag([1.0, 1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 0.0, 1.0]).astype(complex)
        general = ProjectiveMeasurement(projectors=[p0, p1])
        with pytest.raises(ValidationError):
            mub_check(general, dephasing_basis(3))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            mub_check(dephasing_basis(2), dephasing_basis(3))


class TestDephasingChannel:
    """The channel as its d²×d² array Δ = Q·Q†, applied to vec ρ."""

    def test_kills_off_diagonals_in_own_basis(self):
        delta = dephasing_channel(dephasing_basis(2))
        assert isinstance(delta, np.ndarray) and delta.shape == (4, 4)
        rho = np.array([[0.6, 0.3 - 0.1j], [0.3 + 0.1j, 0.4]])
        out = reference.unvec(delta @ reference.vec(rho), 2)
        assert np.allclose(out, np.diag([0.6, 0.4]))

    def test_idempotent(self):
        delta = dephasing_channel(fourier_mub(3))
        assert np.max(np.abs(delta @ delta - delta)) < 1e-12

    def test_trace_preserving(self):
        # tr Δ(X) = tr X for all X  <=>  vec(1)†·Δ = vec(1)†
        ident = reference.vec(np.eye(2)).conj()
        assert np.max(np.abs(ident @ dephasing_channel(qubit_basis(0.4, 0.2)) - ident)) <= 1e-10

    def test_general_pvm_channel(self):
        p0 = np.diag([1.0, 1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 0.0, 1.0]).astype(complex)
        delta = dephasing_channel(ProjectiveMeasurement(projectors=[p0, p1]))
        rho = np.full((3, 3), 1.0 / 3, dtype=complex)
        out = reference.unvec(delta @ reference.vec(rho), 3)
        # coherences inside the rank-2 block survive, cross-block ones die
        assert abs(out[0, 1] - 1.0 / 3) < 1e-12
        assert abs(out[0, 2]) < 1e-12


def _random_pvms():
    """Name -> (PVM, its reference): a rank-one PVM is its own (its bases are its
    given columns), a general one has its given projectors."""
    from dephaser.linalg import random_unitary

    u = random_unitary(4, 9)
    rank_two = [u[:, :2] @ u[:, :2].conj().T, u[:, 2:] @ u[:, 2:].conj().T]
    with_zero = [u[:, :2] @ u[:, :2].conj().T, u[:, 2:3] @ u[:, 2:3].conj().T, u[:, 3:] @ u[:, 3:].conj().T, np.zeros((4, 4))]
    rank_one = {"fourier-mub": fourier_mub(3), "dephasing-basis": dephasing_basis(4), "random-rank-one": ProjectiveMeasurement(vectors=u)}
    general = {"rank-two": rank_two, "mixed-rank-with-zero": with_zero}
    return {name: (meas, meas) for name, meas in rank_one.items()} | {
        name: (ProjectiveMeasurement(projectors=ps), reference.GivenProjectors(ps)) for name, ps in general.items()
    }


class TestChannelBasis:
    """Q: orthonormal columns vec(V_x e_a e_b† V_x†), R = Σ r_x² of them, with Q·Q† = Σ_x P_x^T ⊗ P_x."""

    @pytest.mark.parametrize("name", list(_random_pvms()))
    def test_spans_the_channel(self, name):
        meas, ref = _random_pvms()[name]
        q = meas.channel_basis
        ranks = [round(np.trace(ref.projector(x)).real) for x in range(ref.n_outcomes)]
        assert q.shape == (meas.d**2, sum(r * r for r in ranks))
        assert np.max(np.abs(q.conj().T @ q - np.eye(q.shape[1]))) < 1e-14
        assert np.max(np.abs(q @ q.conj().T - reference.channel_matrix(ref))) < 1e-14

    def test_cached_and_read_only(self):
        meas = fourier_mub(2)
        assert meas.channel_basis is meas.channel_basis
        with pytest.raises(ValueError):
            meas.channel_basis[0, 0] = 1.0
