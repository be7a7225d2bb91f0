"""Named model instances used in configs, tests and the CLI."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .models import DephasingModel, MarkovianAnalyticModel

_SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _qubit_zx() -> DephasingModel:
    # noncommuting blocks, pure environment state: generically non-Markovian
    return DephasingModel((_SIGMA_Z, _SIGMA_X), np.diag([1.0, 0.0]).astype(complex))


def _scalar_phases() -> DephasingModel:
    # one-dimensional environment: pure phases, factorizes exactly
    return DephasingModel(
        (np.array([[0.0]], dtype=complex), np.array([[1.0]], dtype=complex)),
        np.array([[1.0]], dtype=complex),
    )


def _commuting_diag() -> DephasingModel:
    # commuting diagonal blocks with a mixed environment state: |phi| < 1
    # generically, so the dephasing is nontrivial and cannot factorize
    return DephasingModel(
        (np.diag([1.0, -1.0]).astype(complex), np.diag([0.0, 2.0]).astype(complex)),
        np.diag([0.7, 0.3]).astype(complex),
    )


def _markov_real_qudit() -> MarkovianAnalyticModel:
    # d = 3, eps = 0 and a uniform gamma = 1 between distinct levels
    return MarkovianAnalyticModel(np.zeros((3, 3)), np.ones((3, 3)) - np.eye(3))


PRESETS = {
    "qubit-zx": (_qubit_zx, "exact qubit, H_0 = sigma_z, H_1 = sigma_x, env |0><0| (non-Markovian)"),
    "scalar-phases": (_scalar_phases, "exact qubit with 1-dim environment: pure phases, Markovian"),
    "commuting-diag": (_commuting_diag, "commuting diagonal blocks, mixed env state: nontrivial dephasing"),
    "markov-real-qudit": (_markov_real_qudit, "analytic d=3 model, eps = 0, uniform gamma = 1 (real dephasing)"),
}


def get_preset(name: str):
    try:
        factory, _ = PRESETS[name]
    except KeyError:
        raise ValidationError(f"unknown preset {name!r}; available: {sorted(PRESETS)}") from None
    return factory()


def preset_listing():
    return [(name, desc) for name, (_, desc) in sorted(PRESETS.items())]
