"""Multitime statistics and classicality diagnostics for pure-dephasing qudits."""

from .classicality import (
    ClassicalityReport,
    classicality_report,
    kolmogorov_deficit,
    markov_qubit_violation_closed,
    search_nonclassicality_witness,
    theta_sweep,
)
from .linalg import hermitian_expm, kron
from .measurements import ProjectiveMeasurement, dephasing_basis, dephasing_channel, fourier_mub, qubit_basis
from .models import (
    DephasingModel,
    DephasingTensorProvider,
    ExactDephasingProvider,
    MarkovianAnalyticModel,
    MarkovianAnalyticProvider,
    semigroup_deficit,
    triviality_check,
)
from .statistics import (
    JointDistribution,
    SystemPreparation,
    TimeGrid,
    joint_distribution,
    ncgd_deficit,
    oracle_distribution,
    sandwich_identity_deficit,
)

__version__ = "0.1.0"
