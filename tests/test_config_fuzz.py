"""Seeded fuzzing of config documents through ``dephaser run``.

Each example takes one small valid config and changes one value anywhere in it
(or deletes it): a wrong type, a huge, non-finite or non-integral number, an
empty or ragged array, or an unknown kind.  Every run must end with a
documented exit code (0, 2, 3 or 4), one JSON object on stderr when it fails,
no exception and no RuntimeWarning, within a fixed wall time.
"""

import contextlib
import io
import json
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from dephaser import cli
from reference import HUGE_ANTI_HERMITIAN, HUGE_DIAGONAL

Z = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
X = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
ENV = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]

# one small valid document per analysis kind, together using every section kind that
# carries numbers or arrays, and a qutrit with an analytic generator, so that d = 3
# generators are fuzzed too (the CP rule of config); each runs in milliseconds
BASES = {
    "classicality": {
        "version": 1,
        "model": {"kind": "exact", "blocks": [Z, X], "env_state": ENV},
        "preparation": {"kind": "diagonal", "weights": [1.0, 0.0]},
        "measurement": {"kind": "mub", "phases": [0.0, 0.3]},
        "grid": {"t0": 0.0, "times": [0.8, 1.6, 2.4]},
        "analysis": {"kind": "classicality", "max_order": 3, "tolerance": 1e-9},
    },
    "ncgd": {
        "version": 1,
        "model": {"kind": "markovian", "eps": [[0.0, 0.8], [-0.8, 0.0]], "gamma": [[0.0, 0.5], [0.5, 0.0]]},
        "preparation": {"kind": "pure", "vector": [[0.6, 0.0], [0.0, 0.8]]},
        "measurement": {"kind": "qubit", "theta": 0.7, "phi": 0.2},
        "grid": {"t0": 0.1, "times": [0.5, 1.0, 1.5, 2.0]},
        "analysis": {"kind": "ncgd"},
    },
    "markovianity": {
        "version": 1,
        "model": {"kind": "exact", "preset": "qubit-zx"},
        "preparation": {"kind": "explicit", "matrix": [[[0.5, 0.0], [0.1, 0.1]], [[0.1, -0.1], [0.5, 0.0]]]},
        "grid": {"t0": 0.0, "times": [0.4, 0.9, 1.3, 2.0]},
        "analysis": {"kind": "markovianity", "max_order": 3},
    },
    "theta-sweep": {
        "version": 1,
        "model": {"kind": "exact", "preset": "qubit-zx"},
        "preparation": {"kind": "diagonal", "weights": [0.9, 0.1]},
        "grid": {"t0": 0.0, "times": [0.8, 1.6]},
        "analysis": {"kind": "theta-sweep", "theta_points": 9},
    },
    "qutrit-markovian": {
        "version": 1,
        # eps_jl = ω_j − ω_l for ω = (0, 0.7, 1.5) and a uniform gamma: a CP generator
        "model": {
            "kind": "markovian",
            "eps": [[0.0, -0.7, -1.5], [0.7, 0.0, -0.8], [1.5, 0.8, 0.0]],
            "gamma": [[0.0, 0.6, 0.6], [0.6, 0.0, 0.6], [0.6, 0.6, 0.0]],
        },
        "preparation": {"kind": "diagonal", "weights": [0.5, 0.3, 0.2]},
        "measurement": {"kind": "mub", "phases": [0.0, 0.3, 0.5]},
        "grid": {"t0": 0.0, "times": [0.5, 1.1, 1.8]},
        "analysis": {"kind": "classicality", "max_order": 3},
    },
    "oracle-check": {
        "version": 1,
        "model": {"kind": "exact", "preset": "qubit-zx"},
        "preparation": {"kind": "maximally-mixed"},
        "measurement": {"kind": "explicit", "vectors": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
        "grid": {"t0": 0.0, "times": [0.5, 1.2, 1.9]},
        "analysis": {"kind": "oracle-check"},
    },
}

NAN, INF = float("nan"), float("inf")
DELETE = object()
WRONG_TYPES = [None, True, False, "a", "", [], {}, [1.0, 2.0], {"kind": "mub"}]
NUMBERS = [-1, 0, 1, 2, 3, 5, 2.5, -0.5, 1e-300, 1e15, 1e300, 10**30, 10**400, 2**53 + 1, -(10**30),
           NAN, INF, -INF, "1e400", "nan", str(10**30)]
ARRAYS = [[], [[]], [[]] * 2, [[1.0, 0.0], [1.0]], [1.0, [2.0]], [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
          [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]], [[0.0, 1.0], [-1.0]], [0.5] * 7]
KINDS = ["bogus", "", "EXACT", "exact", "markovian", "mub", "dephasing", "qubit", "explicit", "diagonal", "pure",
         "maximally-mixed", *cli._RUNNERS]

#: the wall time a run may take: each base runs in milliseconds, and a size cap is
#: checked before any propagator
RUN_SECONDS = 10.0

#: an integer field and its least value: an int node at or above it is valid
INTEGER_FIELDS = {("analysis", "max_order"): 2, ("analysis", "theta_points"): 1}


def _paths(node, prefix=()):
    """Every position in a document: the root, each dict key and each list index."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


CASES = [(kind, path) for kind, doc in BASES.items() for path in _paths(doc)]


def _mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    if not path:
        return {} if value is DELETE else value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(command, path, outdir):
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([command, str(path)] + (["--out", str(outdir)] if command == "run" else []))
    return code, err.getvalue(), time.perf_counter() - start


@given(
    case=st.sampled_from(CASES),
    value=st.sampled_from([DELETE, *WRONG_TYPES, *NUMBERS, *ARRAYS, *KINDS]),
)
@example(case=("classicality", ("analysis", "max_order")), value=10**30)
@example(case=("markovianity", ("analysis", "max_order")), value=10**400)
@example(case=("theta-sweep", ("analysis", "theta_points")), value=2**53 + 1)
# one value swaps an antisymmetric eps for another whose generator is not CP at d = 3
@example(case=("qutrit-markovian", ("model", "eps")), value=[[0.0, 0.7, 0.7], [-0.7, 0.0, 0.7], [-0.7, -0.7, 0.0]])
# finite entries whose Hermiticity or trace check overflows: numpy warned before the refusal
@example(case=("markovianity", ("preparation", "matrix")), value=HUGE_ANTI_HERMITIAN)
@example(case=("markovianity", ("preparation", "matrix")), value=HUGE_DIAGONAL)
@example(case=("classicality", ("model", "blocks", 0)), value=HUGE_ANTI_HERMITIAN)
@settings(max_examples=600, deadline=None, derandomize=True)
def test_every_run_ends_in_a_documented_exit(scratch, case, value):
    kind, path = case
    doc = _mutated(BASES[kind], path, value)
    config = scratch / "config.json"
    config.write_text(json.dumps(doc))
    code, err, seconds = _run("run", config, scratch / "out")
    assert code in (0, 2, 3, 4)
    assert seconds < RUN_SECONDS
    if code:
        lines = err.splitlines()
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "message"}
    if path in INTEGER_FIELDS and type(value) is int and value >= INTEGER_FIELDS[path]:
        # a valid integer, however large: a run may only refuse it at a size cap, and
        # validate reads the same size estimate
        assert code in (0, 3)
        assert _run("validate", config, None)[0] == code


@pytest.mark.parametrize("kind", sorted(BASES))
def test_bases_run(scratch, kind):
    config = scratch / "config.json"
    config.write_text(json.dumps(BASES[kind]))
    assert _run("run", config, scratch / "out")[0] == 0
