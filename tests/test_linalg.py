import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from dephaser.errors import SizeCapError, ValidationError
from dephaser.linalg import (
    Superoperator,
    check_density,
    check_hermitian,
    choi_matrix,
    conjugation_superoperator,
    hermitian_eigh,
    hermitian_expm,
    is_completely_positive,
    kron,
    random_density,
    random_hermitian,
    random_unitary,
    sandwich_superoperator,
    spectral_expm,
    unvec,
    vec,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)

dims = st.integers(min_value=1, max_value=5)
seeds = st.integers(min_value=0, max_value=10_000)
taus = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


class TestHermitianExpm:
    def test_zero_generator(self):
        u = hermitian_expm(np.zeros((3, 3)), 1.7)
        assert np.allclose(u, np.eye(3), atol=1e-14)

    def test_pauli_z_pi(self):
        u = hermitian_expm(SIGMA_Z, np.pi)
        assert np.allclose(u, -np.eye(2), atol=1e-12)

    def test_pauli_x_quarter_turn_vs_scaling_squaring(self):
        # independent oracle: scipy's scaling-and-squaring expm
        tau = np.pi / 4
        u = hermitian_expm(SIGMA_X, tau)
        expected = scipy.linalg.expm(-1j * tau * SIGMA_X)
        assert np.max(np.abs(u - expected)) < 1e-12
        assert abs(u[0, 0] - np.cos(tau)) < 1e-12
        assert abs(u[0, 1] - (-1j) * np.sin(tau)) < 1e-12

    @given(dim=dims, seed=seeds, tau=taus)
    @settings(max_examples=60, deadline=None)
    def test_inverse_property(self, dim, seed, tau):
        h = random_hermitian(dim, seed)
        prod = hermitian_expm(h, tau) @ hermitian_expm(h, -tau)
        assert np.max(np.abs(prod - np.eye(dim))) < 1e-10

    @given(dim=dims, seed=seeds, tau=taus, sigma=taus)
    @settings(max_examples=60, deadline=None)
    def test_one_parameter_group(self, dim, seed, tau, sigma):
        h = random_hermitian(dim, seed)
        lhs = hermitian_expm(h, tau + sigma)
        rhs = hermitian_expm(h, tau) @ hermitian_expm(h, sigma)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_output_is_unitary(self):
        u = hermitian_expm(random_hermitian(4, 3), 2.2)
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            hermitian_expm(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    def test_rejects_nonfinite_tau(self):
        with pytest.raises(ValidationError):
            hermitian_expm(SIGMA_Z, float("nan"))


class TestSpectralExpm:
    def test_vectorised_equals_one_at_a_time(self):
        blocks = [random_hermitian(3, s) for s in range(4)]
        w, v = (np.stack(a) for a in zip(*(hermitian_eigh(h) for h in blocks)))
        taus = np.array([0.0, -0.6, 1.9])
        u = spectral_expm(w, v, taus[:, None])
        assert u.shape == (3, 4, 3, 3)
        for k, tau in enumerate(taus):
            for j, h in enumerate(blocks):
                assert np.array_equal(u[k, j], hermitian_expm(h, tau))

    @pytest.mark.parametrize("tau", [1e308, -1e308, float("inf"), float("nan")])
    def test_overflowing_phase_rejected_without_warnings(self, tau):
        # |w| = 10 makes 1e308·w overflow; numpy must not warn on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                hermitian_expm(10 * SIGMA_Z, tau)


class TestKron:
    def test_identities(self):
        assert np.allclose(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_block_structure(self):
        a, b = 2.5, -1.0
        out = kron(np.diag([a, b]), np.eye(2))
        assert np.allclose(out, np.diag([a, a, b, b]))

    def test_trace_multiplicativity(self):
        a = random_hermitian(2, 1) + 1j * 0
        b = random_hermitian(3, 2)
        assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            kron(np.eye(100), np.eye(100))


def assemble_choi(s: Superoperator) -> np.ndarray:
    """Oracle: apply the channel to each matrix unit and assemble."""
    d = s.d
    out = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            out += np.kron(unit, s.apply(unit))
    return out


class TestChoi:
    def test_identity_channel(self):
        s = conjugation_superoperator(np.eye(2))
        c = choi_matrix(s)
        assert abs(np.trace(c) - 2) < 1e-12
        evals = np.linalg.eigvalsh(c)
        assert np.sum(evals > 1e-10) == 1  # rank one

    def test_dephasing_channel_qubit(self):
        e0, e1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        mat = np.kron(e0, e0) + np.kron(e1, e1)
        s = Superoperator(2, mat)
        c = choi_matrix(s)
        assert np.max(np.abs(c - assemble_choi(s))) < 1e-14
        assert np.allclose(c, np.diag([1.0, 0.0, 0.0, 1.0]))

    def test_transpose_map_not_cp(self):
        # transpose: vec index swap; column stacking makes it the SWAP matrix
        swap = np.zeros((4, 4))
        for r in range(2):
            for c in range(2):
                swap[c * 2 + r, r * 2 + c] = 1.0
        s = Superoperator(2, swap)
        c = choi_matrix(s)
        assert np.max(np.abs(c - assemble_choi(s))) < 1e-14
        assert abs(np.linalg.eigvalsh(c).min() - (-1.0)) < 1e-12
        assert not is_completely_positive(s)

    @given(dim=st.integers(2, 4), seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_unitary_conjugation_is_cp_trace_d(self, dim, seed):
        u = random_unitary(dim, seed)
        s = conjugation_superoperator(u)
        c = choi_matrix(s)
        assert np.linalg.eigvalsh(0.5 * (c + c.conj().T)).min() > -1e-10
        assert abs(np.trace(c) - dim) < 1e-10
        assert s.is_trace_preserving()

    @given(dim=st.integers(2, 3), seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_choi_matches_assembly(self, seed, dim):
        a = random_hermitian(dim, seed)
        b = random_hermitian(dim, seed + 1)
        s = sandwich_superoperator(a, b)
        assert np.max(np.abs(choi_matrix(s) - assemble_choi(s))) < 1e-12


class TestVec:
    def test_roundtrip(self):
        m = random_hermitian(3, 0)
        assert np.allclose(unvec(vec(m), 3), m)

    def test_column_stacking_order(self):
        m = np.array([[1, 2], [3, 4]])
        assert list(vec(m)) == [1, 3, 2, 4]


class TestRandomInstances:
    def test_determinism(self):
        assert np.array_equal(random_hermitian(4, 42), random_hermitian(4, 42))
        assert np.array_equal(random_density(3, 42), random_density(3, 42))

    def test_density_valid(self):
        rho = check_density(random_density(3, 7))
        assert abs(np.trace(rho) - 1) < 1e-14

    def test_hermitian_real_spectrum(self):
        h = check_hermitian(random_hermitian(4, 11))
        evals = np.linalg.eigvals(h)
        assert np.max(np.abs(evals.imag)) < 1e-12

    def test_dim_validation(self):
        with pytest.raises(ValidationError):
            random_hermitian(0, 1)
