"""The names the ``dephaser`` package exports, and the helpers it no longer has.

Seven helpers that only tests called were retired from the library; the ones
tests still use as references live in ``tests/reference.py``.
"""

import importlib
import pkgutil

import pytest

import dephaser

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
)

MODULES = [importlib.import_module(f"dephaser.{m.name}") for m in pkgutil.iter_modules(dephaser.__path__)]


def test_exports_thirty_public_names():
    submodules = {m.__name__.rpartition(".")[2] for m in MODULES}
    public = [n for n in vars(dephaser) if not n.startswith("_") and n not in submodules]
    assert len(public) == 30


@pytest.mark.parametrize("name", RETIRED)
def test_retired_name_is_bound_nowhere(name):
    for module in [dephaser, *MODULES]:
        assert not hasattr(module, name), f"{module.__name__} still binds {name}"
