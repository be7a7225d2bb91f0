"""Multitime statistics and classicality diagnostics for pure-dephasing qudits."""

from .classicality import (
    ClassicalityReport,
    classicality_report,
    delta_count,
    kolmogorov_deficit,
    markov_qubit_violation_closed,
    qubit_two_time_deficit_closed,
    qubit_two_time_deficit_simplified,
    search_nonclassicality_witness,
    theta_sweep,
)
from .linalg import (
    choi_matrix,
    hermitian_expm,
    kron,
    random_density,
    random_hermitian,
    random_unitary,
    Superoperator,
)
from .measurements import (
    PhaseVector,
    ProjectiveMeasurement,
    dephasing_basis,
    dephasing_channel,
    fourier_mub,
    mub_check,
    qubit_basis,
)
from .models import (
    DephasingModel,
    DephasingTensorProvider,
    ExactDephasingProvider,
    MarkovianAnalyticModel,
    MarkovianAnalyticProvider,
    markovianity_deficit,
    semigroup_deficit,
    triviality_check,
)
from .statistics import (
    JointDistribution,
    SystemPreparation,
    TimeGrid,
    conditional_probability,
    joint_distribution,
    ncgd_deficit,
    oracle_distribution,
    reduced_map,
    sandwich_identity_deficit,
)

__version__ = "0.1.0"
