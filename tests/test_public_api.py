"""The names the ``dephaser`` package exports, and the helpers it no longer has.

Helpers that only tests called were retired from the library; the ones tests
still use as references live in ``tests/reference.py``.  So did second views
of one quantity and parameters that only shadowed a named tolerance or cap.
"""

import importlib
import inspect
import pkgutil
import re

import pytest

import dephaser
from dephaser import config, linalg, measurements, models, presets

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
    # the two-mode output writer of ``dephaser run``, replaced by ``cli._write_outputs``
    "_pending",
    "_staged",
    "_atomic_write",
    "_write_json",
    "_write_csv",
    "_write_distribution",
    # config's own quoting rule, replaced by ``errors._shown``
    "shown",
    # the last input wrapper: ``fourier_mub`` reads its phases through ``errors._sequence``
    "PhaseVector",
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
    # presets are built with no arguments, so a preset's parameters are constants
    (presets._markov_real_qudit, "d"),
    (presets._markov_real_qudit, "gamma"),
)

MODULES = [importlib.import_module(f"dephaser.{m.name}") for m in pkgutil.iter_modules(dephaser.__path__)]


def test_exports_twenty_seven_public_names():
    submodules = {m.__name__.rpartition(".")[2] for m in MODULES}
    public = [n for n in vars(dephaser) if not n.startswith("_") and n not in submodules]
    assert len(public) == 27


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


def test_only_errors_raises_time_order_error():
    # every ordered-times check goes through one rule, errors._ordered
    raising = [m.__name__ for m in [dephaser, *MODULES] if re.search(r"raise\s+[\w.]*TimeOrderError", inspect.getsource(m))]
    assert raising == ["dephaser.errors"]


def test_only_errors_raises_size_cap_error():
    # every size cap goes through one rule, errors._capped
    raising = [m.__name__ for m in [dephaser, *MODULES] if re.search(r"raise\s+[\w.]*SizeCapError", inspect.getsource(m))]
    assert raising == ["dephaser.errors"]


def test_cli_keeps_no_cap():
    # the caps of a run live in its analysis's size estimate (config.ANALYSES), read by validate too
    cli = importlib.import_module("dephaser.cli")
    assert [name for name in vars(cli) if name.endswith("_CAP") and name != "EXIT_CAP"] == []
    assert "_capped" not in inspect.getsource(cli)
