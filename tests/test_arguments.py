"""The one argument rule of the library (``dephaser.errors``), entry point by entry point.

A count, order, position, outcome or index is any ``numbers.Integral`` but ``bool``,
and a real-valued scalar is finite, each within its bounds; an array of reals (times,
pools, angles, phases, weights) is an int or float array, or an iterable of finite
reals none of which is a ``bool``, and one-dimensional where a sequence is taken.
Anything else raises exactly ``ValidationError`` (no ``TypeError``, ``OverflowError``,
``IndexError`` or ``AxisError`` from Python or numpy, and no ``ShapeError`` or
``TimeOrderError`` standing in for it) before any propagator is built, its message
quoting the value in a few dozen characters.  ``np.int64`` values are accepted and
come back as Python ``int``.  Times that must not decrease go through one order rule:
times out of order raise exactly ``TimeOrderError``, and time arrays that do not
broadcast together exactly ``ShapeError``, again before any propagator, the message
naming the public caller first and quoting only the first pair out of order.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from dephaser import cli, errors, models
from dephaser.classicality import (
    ClassicalityReport,
    classicality_report,
    kolmogorov_deficit,
    markov_qubit_violation_closed,
    search_nonclassicality_witness,
    theta_sweep,
)
from dephaser.errors import ShapeError, TimeOrderError, ValidationError
from dephaser.measurements import dephasing_basis, fourier_mub, qubit_basis
from dephaser.models import ExactDephasingProvider, markovianity_deficit_detail, semigroup_deficit, triviality_check
from dephaser.statistics import JointDistribution, SystemPreparation, TimeGrid, ncgd_deficit, sandwich_identity_deficit

NAN, INF = float("nan"), float("inf")


def uniform(n: int) -> JointDistribution:
    """The uniform 2-outcome n-time table on the grid 0.5, 1.0, ..., built with no propagator."""
    return JointDistribution(2, TimeGrid(0.0, tuple(0.5 * k for k in range(1, n + 1))), np.full(2**n, 0.5**n))


def witness(c, **kwargs):
    return search_nonclassicality_witness(c.exact, c.prep, c.mub, **{"t0": 0.0, "horizon": 3.0, **kwargs})


@pytest.fixture
def c(zx_model, markov_qubit_provider):
    """Fresh objects per case: an exact provider that has built no propagator yet."""
    return SimpleNamespace(
        exact=ExactDephasingProvider(zx_model),
        analytic=markov_qubit_provider,
        prep=SystemPreparation.diagonal([1.0, 0.0]),
        mub=fourier_mub(2),
        report=ClassicalityReport(3, 1e-9, 0.0, (0.5,)),
        fine=uniform(3),
        coarse=JointDistribution(2, TimeGrid(0.0, (0.5, 1.5)), np.full(4, 0.25)),  # position 2 deleted
    )


# name: (call of the argument, an accepted value, a value out of its bounds)
INTEGERS = {
    "verdict-order": (lambda c, v: c.report.verdict(v), 3, 4),
    "drop-position": (lambda c, v: c.fine.grid.drop(v), 3, 4),
    "marginalize-position": (lambda c, v: c.fine.marginalize(v), 1, 0),
    "kolmogorov-position": (lambda c, v: kolmogorov_deficit(c.fine, c.coarse, v), 2, 3),
    "joint-distribution-outcomes": (lambda c, v: JointDistribution(v, TimeGrid(0.0, (1.0,)), [0.5, 0.5]), 2, 0),
    "markovianity-max-order": (lambda c, v: markovianity_deficit_detail(c.exact, (0.5, 1.0, 1.5), v), 2, 1),
    "fourier-mub-d": (lambda c, v: fourier_mub(v), 2, 1),
    "dephasing-basis-d": (lambda c, v: dephasing_basis(v), 2, 1),
    "maximally-mixed-d": (lambda c, v: SystemPreparation.maximally_mixed(v), 2, 0),
    "projector-outcome": (lambda c, v: c.mub.projector(v), 1, 2),
    "exact-tensor-pairs-index": (lambda c, v: c.exact.tensor_pairs([(v, 0)], [0.5]), 1, 2),
    "analytic-tensor-pairs-index": (lambda c, v: c.analytic.tensor_pairs([(0, v)], [0.5]), 1, -1),
    "propagator-j": (lambda c, v: c.exact.propagator(v, 0.5), 1, 2),
    "report-max-order": (lambda c, v: classicality_report(c.exact, c.prep, c.mub, (0.5, 1.2), v), 3, 1),
    "witness-order": (lambda c, v: witness(c, order=v, points_per_interval=2), 3, 1),
    "witness-position": (lambda c, v: witness(c, position=v, points_per_interval=2), 1, 3),
    "witness-points": (lambda c, v: witness(c, points_per_interval=v), 1, 0),
    "witness-draws": (lambda c, v: witness(c, random_draws=v, points_per_interval=2), 1, -1),
    "witness-seed": (lambda c, v: witness(c, seed=v, points_per_interval=2), 1, -1),
    "theta-sweep-x2": (lambda c, v: theta_sweep(c.exact, 0.2, [0.1, 0.6], 1.6, 0.8, x2=v), 1, 2),
    "markov-closed-x3": (lambda c, v: markov_qubit_violation_closed(0.8, 0.5, v, 0, 2.0, 1.0, 0.5), 1, 2),
    "markov-closed-x1": (lambda c, v: markov_qubit_violation_closed(0.8, 0.5, 0, v, 2.0, 1.0, 0.5), 1, -1),
}

# name: (call of the argument, an accepted value, a value out of its bounds or None)
REALS = {
    "report-tol": (lambda c, v: classicality_report(c.exact, c.prep, c.mub, (0.5, 1.2), 3, tol=v), 1e-9, -1e-3),
    "report-t0": (lambda c, v: classicality_report(c.exact, c.prep, c.mub, (0.5, 1.2), 3, t0=v), 0.0, None),
    "witness-t0": (lambda c, v: witness(c, t0=v, points_per_interval=2), 0.0, None),
    "witness-horizon": (lambda c, v: witness(c, horizon=v, points_per_interval=2), 3.0, None),
    "witness-threshold": (lambda c, v: witness(c, threshold=v, points_per_interval=2), 1e-3, None),
    "theta-sweep-p": (lambda c, v: theta_sweep(c.exact, v, [0.1, 0.6], 1.6, 0.8), 0.2, 1.5),
    "theta-sweep-t2": (lambda c, v: theta_sweep(c.exact, 0.2, [0.1, 0.6], v, 0.8), 1.6, None),
    "theta-sweep-t0": (lambda c, v: theta_sweep(c.exact, 0.2, [0.1, 0.6], 1.6, 0.8, t0=v), 0.0, None),
    "markov-closed-epsilon": (lambda c, v: markov_qubit_violation_closed(v, 0.5, 0, 0, 2.0, 1.0, 0.5), 0.8, None),
    "markov-closed-t3": (lambda c, v: markov_qubit_violation_closed(0.8, 0.5, 0, 0, v, 1.0, 0.5), 2.0, None),
    "qubit-basis-theta": (lambda c, v: qubit_basis(v, 0.0), 0.3, None),
    "qubit-basis-phi": (lambda c, v: qubit_basis(0.3, v), 0.0, None),
    "time-grid-t0": (lambda c, v: TimeGrid(v, (0.5, 1.0)), 0.0, None),
}

BAD_INTEGERS = {
    "float": lambda valid, out: valid + 0.5,
    "integral-float": lambda valid, out: float(valid),
    "numpy-float": lambda valid, out: np.float64(valid),
    "true": lambda valid, out: True,
    "false": lambda valid, out: False,
    "nan": lambda valid, out: NAN,
    "text": lambda valid, out: str(valid),
    "out-of-range": lambda valid, out: out,
    "numpy-out-of-range": lambda valid, out: np.int64(out),
    "past-repr-range": lambda valid, out: 10**5000 if out > valid else -(10**5000),  # repr raises past 4300 digits
}

BAD_REALS = {
    "true": lambda valid, out: True,
    "nan": lambda valid, out: NAN,
    "inf": lambda valid, out: INF,
    "minus-inf": lambda valid, out: -INF,
    "past-double-range": lambda valid, out: 10**400,
    "text": lambda valid, out: str(valid),
    "out-of-range": lambda valid, out: out,
}

# name: (call of the array, an accepted tuple of integral floats); each call's result
# compares with np.testing.assert_equal
ARRAYS = {
    "time-grid-times": (lambda c, v: TimeGrid(0.0, v), (1.0, 2.0)),
    "report-pool": (lambda c, v: classicality_report(c.exact, c.prep, c.mub, v, 3).to_dict(), (1.0, 2.0)),
    "markovianity-times": (lambda c, v: markovianity_deficit_detail(c.exact, v, 2), (1.0, 2.0, 3.0)),
    "triviality-grid": (lambda c, v: triviality_check(c.exact, v), (1.0, 2.0)),
    "dephasing-matrix-t": (lambda c, v: c.exact.dephasing_matrix(v, 0.0), (1.0, 2.0)),
    "dephasing-matrix-s": (lambda c, v: c.exact.dephasing_matrix(3.0, v), (1.0, 2.0)),
    "semigroup-times": (lambda c, v: semigroup_deficit(c.exact, 0.0, v, 3.0), (1.0, 2.0)),
    "ncgd-times": (lambda c, v: ncgd_deficit(c.exact, c.mub, v, 2.0, 3.0), (1.0, 2.0)),
    "sandwich-times": (lambda c, v: sandwich_identity_deficit(c.exact, c.mub, 3.0, v), (1.0, 2.0)),
    "exact-tensor-pairs-durations": (lambda c, v: c.exact.tensor_pairs([(0, 1), (1, 0)], v), (1.0, 2.0)),
    "analytic-tensor-pairs-durations": (lambda c, v: c.analytic.tensor_pairs([(0, 1), (1, 0)], v), (1.0, 2.0)),
    "theta-sweep-thetas": (lambda c, v: theta_sweep(c.exact, 0.2, v, 1.6, 0.8), (0.0, 1.0)),
    "phase-vector": (lambda c, v: fourier_mub(2, v).bases, (0.0, 1.0)),
    "diagonal-weights": (lambda c, v: SystemPreparation.diagonal(v).density, (1.0, 0.0)),
}


def last(entry):
    """The valid tuple with its last entry replaced by ``entry``."""
    return lambda valid: valid[:-1] + (entry,)


BAD_ARRAYS = {
    "text-entry": lambda valid: valid[:-1] + (str(valid[-1]),),
    "true-entry": last(True),
    "false-entry": last(False),
    "complex-entry": lambda valid: valid[:-1] + (complex(valid[-1]),),
    "none-entry": last(None),
    "nan-entry": last(NAN),
    "inf-entry": last(INF),
    "minus-inf-entry": last(-INF),
    "numpy-nan-entry": last(np.float64(NAN)),
    "past-double-range-entry": last(10**400),
    "nan-array": lambda valid: np.array(valid[:-1] + (NAN,)),
    "text-sequence": lambda valid: "12",
    "true-sequence": lambda valid: True,
    "none-sequence": lambda valid: None,
    "bool-array": lambda valid: np.array([True, False]),
}

# a generator, a set (as a pool) and np.float64 entries pass as they are, and an int or float array as a whole
ACCEPTED_ARRAYS = {
    "int-array": lambda valid: np.array(valid).astype(int),
    "float-array": np.array,
    "generator": lambda valid: (t for t in valid),
    "numpy-entries": lambda valid: tuple(map(np.float64, valid)),
    "int-entries": lambda valid: tuple(map(int, valid)),
}

CASES = [
    pytest.param(call, bad(valid, out), id=f"{name}-{kind}")
    for table, bads in ((INTEGERS, BAD_INTEGERS), (REALS, BAD_REALS))
    for name, (call, valid, out) in table.items()
    for kind, bad in bads.items()
    if not (kind == "out-of-range" and out is None)
] + [
    pytest.param(call, bad(valid), id=f"{name}-{kind}")
    for name, (call, valid) in ARRAYS.items()
    for kind, bad in BAD_ARRAYS.items()
    if not (name == "phase-vector" and kind == "none-sequence")  # None is fourier_mub's default, zero phases
]


@pytest.fixture
def no_propagator(monkeypatch):
    def forbidden(*args):
        raise AssertionError("no propagator before the argument checks")

    monkeypatch.setattr(models, "spectral_expm", forbidden)


@pytest.mark.parametrize("call, value", CASES)
def test_bad_argument_raises_validation_error_first(c, no_propagator, call, value):
    with pytest.raises(ValidationError) as caught:
        call(c, value)
    assert type(caught.value) is ValidationError
    assert c.exact._eig is None


@pytest.mark.parametrize(
    "call, valid",
    [pytest.param(call, valid, id=name) for name, (call, valid, _) in INTEGERS.items()],
)
def test_numpy_integer_accepted(c, call, valid):
    assert type(call(c, np.int64(valid))) is type(call(c, valid))


@pytest.mark.parametrize(
    "call, valid, form",
    [
        pytest.param(call, valid, form, id=f"{name}-{kind}")
        for name, (call, valid) in ARRAYS.items()
        for kind, form in ACCEPTED_ARRAYS.items()
    ]
    + [pytest.param(ARRAYS["report-pool"][0], (1.0, 2.0, 1.0), set, id="report-pool-set")],
)
def test_array_forms_give_the_result_of_a_tuple_of_floats(c, call, valid, form):
    np.testing.assert_equal(call(c, form(valid)), call(c, valid))


NAN_TIME_CALLS = {
    "ncgd": lambda c: ncgd_deficit(c.exact, c.mub, NAN, 1.0, 2.0),
    "sandwich": lambda c: sandwich_identity_deficit(c.exact, c.mub, 1.0, NAN),
    "semigroup": lambda c: semigroup_deficit(c.exact, 0.0, NAN, 2.0),
}


@pytest.mark.parametrize(
    "thetas, message",
    [
        (0.3, "thetas must be a 1-d sequence of reals, got shape ()"),
        ([], "need a sequence of one or more angles"),
        (np.array([[0.1, 0.6]]), "thetas must be a 1-d sequence of reals, got shape (1, 2)"),
    ],
    ids=["scalar", "empty", "2-d"],
)
def test_theta_sweep_needs_a_sequence_of_angles(c, no_propagator, thetas, message):
    # a scalar raised IndexError only after the bracket's propagators were built
    with pytest.raises(ValidationError) as caught:
        theta_sweep(c.exact, 0.2, thetas, 1.6, 0.8)
    assert str(caught.value) == f"theta_sweep: {message}"
    assert c.exact._eig is None


# a scalar or a table where a sequence of reals is taken; each escaped as a TypeError,
# ValueError or AxisError from Python or numpy, or was read as another sequence
NOT_ONE_D = {
    "time-grid-scalar": lambda c: TimeGrid(0.0, 1.0),
    "time-grid-2-d": lambda c: TimeGrid(0.0, np.ones((1, 2))),
    "phase-vector-scalar": lambda c: fourier_mub(2, 0.5),
    "report-pool-scalar": lambda c: classicality_report(c.exact, c.prep, c.mub, 1.0, 3),
    "diagonal-weights-scalar": lambda c: SystemPreparation.diagonal(1.0),
    "diagonal-weights-2-d": lambda c: SystemPreparation.diagonal(np.eye(2)),  # read as its diagonal
    "markovianity-times-scalar": lambda c: markovianity_deficit_detail(c.exact, 1.0, 2),
    "triviality-grid-scalar": lambda c: triviality_check(c.exact, 1.0),
    "exact-tensor-pairs-scalar": lambda c: c.exact.tensor_pairs([(0, 1)], 0.5),
    "analytic-tensor-pairs-scalar": lambda c: c.analytic.tensor_pairs([(0, 1)], 0.5),
}


@pytest.mark.parametrize("call", NOT_ONE_D.values(), ids=NOT_ONE_D.keys())
def test_sequence_of_reals_is_one_dimensional(c, no_propagator, call):
    with pytest.raises(ValidationError, match="must be a 1-d sequence of reals, got shape") as caught:
        call(c)
    assert type(caught.value) is ValidationError
    assert c.exact._eig is None


# a value whose repr runs to hundreds of thousands of characters, or raises
LONG_VALUES = {
    "integer-list": lambda c: errors._integer("c", "n", list(range(10**5)), 1),
    "integer-list-past-repr-range": lambda c: errors._integer("c", "n", [10**5000], 1),  # repr raises ValueError
    "real-text": lambda c: errors._real("c", "x", "x" * 10**5),
    "reals-not-iterable": lambda c: errors._reals("c", "times", SimpleNamespace(pad="x" * 10**5)),
    "time-grid-nested-list": lambda c: TimeGrid(0.0, [list(range(10**5))]),
    "report-max-order-text": lambda c: classicality_report(c.exact, c.prep, c.mub, (0.5, 1.2), "x" * 10**5),
}


@pytest.mark.parametrize("call", LONG_VALUES.values(), ids=LONG_VALUES.keys())
def test_message_quotes_a_long_value_shortly(c, no_propagator, call):
    with pytest.raises(ValidationError) as caught:
        call(c)
    assert len(str(caught.value)) <= 300


@pytest.mark.parametrize("call", NAN_TIME_CALLS.values(), ids=NAN_TIME_CALLS.keys())
def test_nan_time_is_not_an_order_fault(c, no_propagator, call):
    # a NaN failed the order test and was reported as "times ... are not non-decreasing"
    with pytest.raises(ValidationError, match="finite") as caught:
        call(c)
    assert type(caught.value) is ValidationError


def test_numpy_order_leaves_a_report_of_python_ints(c):
    report = classicality_report(c.exact, c.prep, c.mub, (0.5, 1.2), np.int64(3))
    assert type(report.max_order_tested) is int
    payload = report.to_dict()
    assert json.loads(cli._json(payload, "\n", cli._FloatText())) == json.loads(json.dumps(payload))


def test_numpy_order_leaves_a_witness_of_python_ints(c):
    record = witness(c, order=np.int64(3), position=np.int64(2), points_per_interval=2)
    assert record is not None
    assert type(record.order) is int and type(record.position) is int


DECREASING = np.arange(10**5, 0, -1.0)  # 10^5 decreasing times; quoted whole, 10^5 times ran to 600,000 characters

# name: (call, the exception it raises, the public caller its message names first); one row per fault
# that applies: one pair out of order, 10^5 decreasing entries where an array is taken, arrays of
# shapes (3,) and (2,) where two arrays are taken
ORDER_FAULTS = {
    "time-grid-pair": (lambda c: TimeGrid(0.0, (2.0, 1.0)), TimeOrderError, "TimeGrid"),
    "time-grid-decreasing": (lambda c: TimeGrid(0.0, DECREASING), TimeOrderError, "TimeGrid"),
    "dephasing-matrix-pair": (lambda c: c.exact.dephasing_matrix(1.0, 2.0), TimeOrderError, "dephasing_matrix"),
    "dephasing-matrix-decreasing": (lambda c: c.exact.dephasing_matrix(0.0, DECREASING), TimeOrderError, "dephasing_matrix"),
    "dephasing-matrix-shapes": (lambda c: c.exact.dephasing_matrix(np.ones(3), np.zeros(2)), ShapeError, "dephasing_matrix"),
    "exact-tensor-pairs-pair": (lambda c: c.exact.tensor_pairs([(0, 1), (1, 0)], [0.5, -1.0]), TimeOrderError, "tensor_pairs"),
    "exact-tensor-pairs-decreasing": (
        lambda c: c.exact.tensor_pairs([(0, 0)] * DECREASING.size, -DECREASING), TimeOrderError, "tensor_pairs"
    ),
    "analytic-tensor-pairs-pair": (
        lambda c: c.analytic.tensor_pairs([(0, 1), (1, 0)], [0.5, -1.0]), TimeOrderError, "tensor_pairs"
    ),
    "analytic-tensor-pairs-decreasing": (
        lambda c: c.analytic.tensor_pairs([(0, 0)] * DECREASING.size, -DECREASING), TimeOrderError, "tensor_pairs"
    ),
    "semigroup-pair": (lambda c: semigroup_deficit(c.exact, 0.0, 2.0, 1.0), TimeOrderError, "semigroup_deficit"),
    "semigroup-decreasing": (lambda c: semigroup_deficit(c.exact, DECREASING, 0.0, 1e6), TimeOrderError, "semigroup_deficit"),
    "semigroup-shapes": (lambda c: semigroup_deficit(c.exact, np.zeros(3), np.ones(2), 2.0), ShapeError, "semigroup_deficit"),
    "ncgd-pair": (lambda c: ncgd_deficit(c.exact, c.mub, 0.0, 2.0, 1.0), TimeOrderError, "ncgd_deficit"),
    "ncgd-decreasing": (lambda c: ncgd_deficit(c.exact, c.mub, DECREASING, 0.0, 1e6), TimeOrderError, "ncgd_deficit"),
    "ncgd-shapes": (lambda c: ncgd_deficit(c.exact, c.mub, np.zeros(3), np.ones(2), 2.0), ShapeError, "ncgd_deficit"),
    "sandwich-pair": (lambda c: sandwich_identity_deficit(c.exact, c.mub, 1.0, 2.0), TimeOrderError, "sandwich_identity_deficit"),
    "sandwich-decreasing": (
        lambda c: sandwich_identity_deficit(c.exact, c.mub, 0.0, DECREASING), TimeOrderError, "sandwich_identity_deficit"
    ),
    "sandwich-shapes": (
        lambda c: sandwich_identity_deficit(c.exact, c.mub, np.ones(3), np.zeros(2)), ShapeError, "sandwich_identity_deficit"
    ),
    "report-pool-pair": (
        lambda c: classicality_report(c.exact, c.prep, c.mub, (0.5, 1.0), 3, t0=0.7), TimeOrderError, "classicality_report"
    ),
    "report-pool-decreasing": (
        lambda c: classicality_report(c.exact, c.prep, c.mub, DECREASING, 3, t0=1e6), TimeOrderError, "classicality_report"
    ),
    "theta-sweep-pair": (lambda c: theta_sweep(c.exact, 0.5, [0.3], t2=1.0, t1=2.0), TimeOrderError, "theta_sweep"),
    "theta-sweep-t0-pair": (lambda c: theta_sweep(c.exact, 0.5, [0.3], 1.0, 0.5, t0=0.7), TimeOrderError, "theta_sweep"),
    "markov-closed-pair": (
        lambda c: markov_qubit_violation_closed(1.0, 0.5, 0, 0, t3=0.1, t2=0.5, t1=0.9),
        TimeOrderError,
        "markov_qubit_violation_closed",
    ),
}


@pytest.mark.parametrize("call, exception, caller", ORDER_FAULTS.values(), ids=ORDER_FAULTS.keys())
def test_order_fault_raises_first_and_shortly(c, no_propagator, call, exception, caller):
    with pytest.raises(exception, match=f"^{caller}: ") as caught:
        call(c)
    assert type(caught.value) is exception
    assert len(str(caught.value)) <= 300
    assert c.exact._eig is None


@pytest.mark.parametrize(
    "times, message",
    [
        ((0.0, 2.0, 1.0), "c: (a, b, c) must not decrease, got 2.0 then 1.0"),
        ((np.array([0.0, 3.0, 1.0]), np.array([1.0, 2.0, 0.5]), 4.0), "c: (a, b, c) must not decrease, got 3.0 then 2.0"),
        ((np.zeros(3), np.ones(2), 2.0), "c: (a, b, c) of shapes [(3,), (2,), ()] do not broadcast"),
    ],
    ids=["scalars", "first-pair-in-c-order", "shapes"],
)
def test_order_rule_quotes_the_first_pair_out_of_order(times, message):
    with pytest.raises((TimeOrderError, ShapeError)) as caught:
        errors._ordered("c", "(a, b, c)", *times)
    assert str(caught.value) == message


def test_order_rule_returns_the_times_broadcast():
    a, b, c = errors._ordered("c", "(a, b, c)", 0.0, np.array([1.0, 2.0]), np.array([[3.0], [4.0]]))
    assert a.shape == b.shape == c.shape == (2, 2)
    np.testing.assert_equal(b, [[1.0, 2.0], [1.0, 2.0]])
