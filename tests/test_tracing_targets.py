"""Every name the benchmark's tracer wraps is bound in the package.

``perfbench/tracing.py`` replaces each (owner, attribute) of its ``TARGETS``
at run time, reading a method from the class ``__dict__``; a name the package
no longer binds would only fail the traced benchmark.  The file is read from
its path and executed in a fresh namespace, so nothing is written beside it.
"""

import importlib
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing_targets():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    with open(path) as fh:
        namespace = {"__name__": "perfbench_tracing"}
        exec(compile(fh.read(), path, "exec"), namespace)
    return namespace["TARGETS"]


TARGETS = _tracing_targets()


@pytest.mark.parametrize("layer, owner, attr", TARGETS, ids=[f"{o}.{a}" for _, o, a in TARGETS])
def test_target_bound(layer, owner, attr):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    if cls:
        obj = getattr(obj, cls)
        # the tracer reads methods from the class body, not through inheritance
        assert attr in vars(obj), f"{layer}: {owner} defines no {attr} in its class body"
    else:
        assert callable(getattr(obj, attr, None)), f"{layer}: {owner}.{attr} is not bound"
