import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from dephaser.errors import SizeCapError, ValidationError
from dephaser.linalg import (
    check_density,
    check_hermitian,
    hermitian_eigh,
    hermitian_expm,
    kron,
    spectral_expm,
)
from reference import random_density, random_hermitian

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


class TestHugeFiniteEntries:
    # numpy warned of an overflow in M - M† or in the trace before the refusal
    @pytest.mark.parametrize(
        "check, matrix, match",
        [
            (check_hermitian, [[0.5, 1e308], [-1e308, 0.5]], r"max \|M - M†\| = inf"),
            (check_density, [[0.5, 1e308], [-1e308, 0.5]], r"max \|M - M†\| = inf"),
            (check_density, np.diag([1e308, 1e308]), "trace = inf,"),
        ],
        ids=["hermitian", "density-hermitian", "density-trace"],
    )
    def test_refused_without_warnings(self, check, matrix, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=match):
                check(matrix)


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
