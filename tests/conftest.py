import numpy as np
import pytest

from dephaser.models import DephasingModel, ExactDephasingProvider, MarkovianAnalyticModel, MarkovianAnalyticProvider

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


@pytest.fixture
def zx_model():
    """Noncommuting qubit model: H_0 = sigma_z, H_1 = sigma_x, env |0><0|."""
    return DephasingModel((SIGMA_Z, SIGMA_X), np.diag([1.0, 0.0]).astype(complex))


@pytest.fixture
def zx_provider(zx_model):
    return ExactDephasingProvider(zx_model)


@pytest.fixture
def markov_qubit():
    """Analytic qubit with rotation eps = 0.8 and decay gamma = 0.5."""
    eps = np.array([[0.0, 0.8], [-0.8, 0.0]])
    gamma = np.array([[0.0, 0.5], [0.5, 0.0]])
    return MarkovianAnalyticModel(eps, gamma)


@pytest.fixture
def markov_qubit_provider(markov_qubit):
    return MarkovianAnalyticProvider(markov_qubit)


def random_exact_model(d, big_d, seed):
    from reference import random_density, random_hermitian

    blocks = tuple(random_hermitian(big_d, seed + 101 * j) for j in range(d))
    return DephasingModel(blocks, random_density(big_d, seed + 7))
