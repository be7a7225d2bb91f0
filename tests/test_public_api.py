"""The names the ``dephaser`` package exports, and the helpers it no longer has.

Helpers that only tests called were retired from the library; the ones tests
still use as references live in ``tests/reference.py``.  So did second views
of one quantity and parameters that only shadowed a named tolerance or cap.
"""

import importlib
import inspect
import pkgutil

import pytest

import dephaser
from dephaser import config, linalg, measurements, models

RETIRED = (
    "conditional_probability",
    "NULL_EVENT_FLOOR",
    "NullEventError",
    "delta_count",
    "mub_check",
    "markovianity_deficit",
    "random_hermitian",
    "random_density",
    "random_unitary",
    "qubit_two_time_deficit_closed",
    "qubit_two_time_deficit_simplified",
    "_check_closed_form",
)

# a second view of a stored quantity: the reference reads the one form instead
RETIRED_ATTRIBUTES = (
    (measurements.ProjectiveMeasurement, "vectors"),
    (measurements.ProjectiveMeasurement, "is_rank_one"),
    (config.ExperimentConfig, "d"),
)

# a parameter that only shadowed the named tolerance or cap its function reads
RETIRED_PARAMETERS = (
    (linalg.check_hermitian, "tol"),
    (linalg.check_density, "min_eig"),
    (linalg.kron, "cap"),
    (models.triviality_check, "tol"),
)

MODULES = [importlib.import_module(f"dephaser.{m.name}") for m in pkgutil.iter_modules(dephaser.__path__)]


def test_exports_twenty_eight_public_names():
    submodules = {m.__name__.rpartition(".")[2] for m in MODULES}
    public = [n for n in vars(dephaser) if not n.startswith("_") and n not in submodules]
    assert len(public) == 28


@pytest.mark.parametrize("name", RETIRED)
def test_retired_name_is_bound_nowhere(name):
    for module in [dephaser, *MODULES]:
        assert not hasattr(module, name), f"{module.__name__} still binds {name}"


@pytest.mark.parametrize("owner, name", RETIRED_ATTRIBUTES, ids=[f"{o.__name__}.{n}" for o, n in RETIRED_ATTRIBUTES])
def test_retired_attribute_is_gone(owner, name):
    assert not hasattr(owner, name)


@pytest.mark.parametrize("function, name", RETIRED_PARAMETERS, ids=[f"{f.__name__}-{n}" for f, n in RETIRED_PARAMETERS])
def test_retired_parameter_is_gone(function, name):
    assert name not in inspect.signature(function).parameters


def test_only_errors_binds_numbers():
    # the integer and real tests of library arguments live in one place, errors._integer and errors._real
    assert [m.__name__ for m in [dephaser, *MODULES] if hasattr(m, "numbers")] == ["dephaser.errors"]
