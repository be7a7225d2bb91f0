"""Kolmogorov consistency deficits and classicality reports.

A process is N-classical when marginalizing any interior outcome of an n-time
distribution (n <= N) reproduces the (n-1)-time distribution on the reduced
grid.  Marginalizing the *last* outcome always works (trace preservation), so
only interior positions 1..n-1 are tested.  Verdicts are always relative to a
declared finite grid pool.

:func:`classicality_report` walks the non-decreasing time tuples of the pool
as a prefix trie on the propagation kernel of
:func:`~dephaser.statistics.joint_distribution`: a tuple's state is its
measured-basis branch states, one r×r grid of D×D environment blocks per
outcome prefix, and a child tuple comes from its parent by one interval and
one measurement.  So each distinct grid is propagated once and every prefix
is shared by all tuples that extend it.  Every interval of the report runs
from t0 to a pool time or between two pool times, so all of its durations
are exponentiated in one ``provider.exponentials`` call, and the kernels out
of the identity basis, the kernels between outcome bases and their effects
are each built once per report; each level gathers its rows from them.
(Stage arrays too large for ``TERM_CAP`` are built per chunk instead.)  The
trie is walked one level at a time: all tuples of one order are a batch on
a leading axis, and the deficits of one (order, position) are one array
reduction.  Levels below the deepest ``provider.apply`` their kernels; the
deepest builds no branch state and reads its tables out through the
effects.  A level too large for the memory budget runs in chunks,
depth-first.  The report's index arrays (the trie levels, the row of each
tuple's last interval and the coarse row of each interior deletion) depend
only on the pool size p and the order N: :func:`_plan` builds them once per
(p, N), read-only, and keeps the ``PLAN_CACHE`` most recently used plans of
at most ``PLAN_ENTRIES`` index entries (8 MiB in all), so reports of one
shape share them; the report body only gathers by them.  The kernels'
products have a fixed shape per batch row, so a
tuple's table does not depend on the batch or chunk it is computed in;
records agree with the per-tuple computation (:func:`joint_distribution`
and :func:`kolmogorov_deficit` tuple by tuple) to roundoff.

A :class:`ClassicalityReport` keeps its deficits as columns, one
(tuples × positions) array per order beside the tuples' pool indices.  Its
verdicts, ``max_deficit``, ``to_dict`` and the CLI's CSV rows read those
arrays; ``records`` is a read-only sequence view that builds a
:class:`DeficitRecord` only for the item read.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ShapeError, SizeCapError, ValidationError
from .measurements import ProjectiveMeasurement
from .models import TERM_CAP, DephasingTensorProvider, _distinct
from .statistics import (
    JointDistribution,
    SystemPreparation,
    TimeGrid,
    _check_tables,
    _probabilities,
    _readout,
    _root,
    _state_entries,
    joint_distribution,
)

#: default verdict tolerance: above pipeline noise, far below genuine violations
DEFAULT_TOL = 1e-9

GRID_MATCH_TOL = 1e-12


def kolmogorov_deficit(fine: JointDistribution, coarse: JointDistribution, position: int) -> float:
    """Max-abs mismatch between ``coarse`` and ``fine`` marginalized at ``position``.

    ``position`` is 1-based and must be interior (1 <= position <= n-1); the
    last position is excluded since it is consistent automatically.
    """
    n = fine.n
    if coarse.n != n - 1:
        raise ShapeError(f"kolmogorov_deficit: coarse order {coarse.n} != fine order {n} - 1")
    if coarse.n_outcomes != fine.n_outcomes:
        raise ShapeError(f"kolmogorov_deficit: fine table has {fine.n_outcomes} outcomes, coarse {coarse.n_outcomes}")
    if not (1 <= position <= n - 1):
        raise ValidationError(f"kolmogorov_deficit: position {position} not interior for order {n}")
    reduced = fine.marginalize(position)
    if abs(reduced.grid.t0 - coarse.grid.t0) > GRID_MATCH_TOL or any(
        abs(a - b) > GRID_MATCH_TOL for a, b in zip(reduced.grid.times, coarse.grid.times)
    ):
        raise ShapeError(
            f"kolmogorov_deficit: grids disagree after deleting position {position}: "
            f"{reduced.grid.times} vs {coarse.grid.times}"
        )
    return float(np.max(np.abs(reduced.table - coarse.table)))


@dataclass(frozen=True)
class DeficitRecord:
    order: int
    position: int
    times: tuple
    deficit: float


@dataclass(frozen=True, eq=False)
class ClassicalityReport:
    """Per-order, per-position consistency deficits with tolerance verdicts.

    ``columns`` holds, for each order n = 2..``max_order_tested``, the pool
    indices of the order-n tuples, one row each (in
    ``combinations_with_replacement`` order), and their deficits, one column
    per interior position 1..n-1.  ``records`` reads them as
    :class:`DeficitRecord` objects; the verdicts, :attr:`max_deficit`,
    :meth:`record_values` and :meth:`to_dict` read the columns directly.
    """

    max_order_tested: int
    tolerance: float
    t0: float
    pool: tuple
    columns: tuple = ()

    @property
    def records(self) -> "RecordView":
        """The records, ordered by order, then tuple, then position."""
        return RecordView(self)

    def record_values(self):
        """(order, position, times, deficit) of every record, in record order,
        as plain Python values: ``times`` is a list of pool times, shared by
        the positions of one tuple."""
        pool = np.array(self.pool)
        for rows, deficits in self.columns:
            n = rows.shape[1]
            for times, row in zip(pool[rows].tolist(), deficits.tolist()):
                for position, deficit in enumerate(row, 1):
                    yield n, position, times, deficit

    def verdict(self, order: int) -> bool:
        """True iff every deficit at orders <= ``order`` is within tolerance."""
        if not (1 <= order <= self.max_order_tested):
            raise ValidationError(f"verdict: order {order} outside 1..{self.max_order_tested}")
        return all(bool((deficits <= self.tolerance).all()) for _, deficits in self.columns[: order - 1])

    @property
    def max_deficit(self) -> float:
        return max((float(deficits.max()) for _, deficits in self.columns), default=0.0)

    def to_dict(self) -> dict:
        return {
            "max_order_tested": self.max_order_tested,
            "tolerance": self.tolerance,
            "t0": self.t0,
            "grid_pool": list(self.pool),
            "note": "order 1 is normalization only and recorded as trivially satisfied",
            "records": [
                {"order": n, "position": position, "times": list(times), "deficit": deficit}
                for n, position, times, deficit in self.record_values()
            ],
            "verdicts": {str(n): self.verdict(n) for n in range(1, self.max_order_tested + 1)},
        }

    def __eq__(self, other):
        if not isinstance(other, ClassicalityReport):
            return NotImplemented
        fields = ("max_order_tested", "tolerance", "t0", "pool")
        same = all(getattr(self, f) == getattr(other, f) for f in fields)
        return same and self.records == other.records


class RecordView(Sequence):
    """The records of a :class:`ClassicalityReport`, read from its columns.

    A read-only sequence: ``len``, integer (also negative) indexing, slicing
    (to a tuple), iteration and ``==`` against another view or a sequence of
    records.  A :class:`DeficitRecord` is built only for the item read.
    """

    __slots__ = ("_report", "_ends")

    def __init__(self, report: ClassicalityReport):
        self._report = report
        self._ends = list(itertools.accumulate(deficits.size for _, deficits in report.columns))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(len(self))))
        k = operator.index(k)
        k += len(self) if k < 0 else 0
        if not 0 <= k < len(self):
            raise IndexError("record index out of range")
        c = bisect.bisect_right(self._ends, k)
        rows, deficits = self._report.columns[c]
        row, position = divmod(k - (self._ends[c - 1] if c else 0), deficits.shape[1])
        times = tuple(self._report.pool[i] for i in rows[row])
        return DeficitRecord(rows.shape[1], position + 1, times, float(deficits[row, position]))

    def __iter__(self):
        for n, position, times, deficit in self._report.record_values():
            yield DeficitRecord(n, position, tuple(times), deficit)

    def __eq__(self, other):
        if isinstance(other, RecordView):
            a, b = self._report, other._report
            return len(a.columns) == len(b.columns) and all(
                np.array_equal(np.array(a.pool)[ra], np.array(b.pool)[rb]) and np.array_equal(da, db)
                for (ra, da), (rb, db) in zip(a.columns, b.columns)
            )
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(x == y for x, y in zip(self, other))
        return NotImplemented

    __hash__ = None


def classicality_report(
    provider: DephasingTensorProvider,
    prep: SystemPreparation,
    measurement: ProjectiveMeasurement,
    pool,
    max_order: int,
    tol: float = DEFAULT_TOL,
    t0: float = 0.0,
) -> ClassicalityReport:
    """Test Kolmogorov consistency for all orders 2..max_order on a grid pool.

    Time tuples are all non-decreasing selections from the sorted, deduplicated
    ``pool``; for each tuple and each interior position the marginalization
    deficit is recorded.  Deleting an interior time of an n-tuple leaves an
    (n-1)-tuple of the same pool, so every distribution the records need is
    the table of one tuple of order <= max_order.  Those tuples form a prefix
    trie, walked one level at a time: the order-n tuples, in
    ``combinations_with_replacement`` order, are one batch on a leading axis,
    and level n+1 comes from level n by one gather of each child's parent
    branch states and one ``provider.apply`` of the kernels of the durations
    s_{n+1} - s_n, gathered per row; a tuple's table is the trace of its
    branch states.  The deepest level applies nothing: its tables are read
    out of the parents' states by the effects of those kernels.  Each
    distinct grid is thus propagated once.  The durations of the whole
    report, t_k - t0 and t_b - t_a for pool times t_a <= t_b, are
    exponentiated in one ``provider.exponentials`` call, and the first
    interval's kernels, the later kernels and their effects are built once
    each, one per distinct duration.
    The deficits of one (order, position) are one reduction: the order-n
    tables summed over that outcome axis, minus the coarse tables gathered by
    row, max |·| per tuple.  Those rows, the trie's levels and the row of
    each tuple's last interval come from the index plan of (p, max_order),
    :func:`_plan`: built after the caps pass, kept (read-only, the
    ``PLAN_CACHE`` most recent of at most ``PLAN_ENTRIES`` entries each) for
    later reports of the same pool size and order, and shared by their
    ``columns`` as the tuples' pool indices.  A larger plan is built per
    report.  Every table and every marginal passes the one
    rule of :class:`JointDistribution`, :func:`~dephaser.statistics._check_tables`,
    one vectorised call per order and per (order, position).

    The largest single node, a row of the deepest level N (the branch states
    of its parent, m^(N-1)·r²·D² entries with r the largest rank of the PVM,
    plus its gathered effects, m²·r²·D²), and the stored tables,
    Σ_n C(p+n-1, n)·m^n entries for a pool of p times, are both checked
    against ``TERM_CAP`` before any propagator is computed.  So are the
    report-wide stage arrays (:func:`_stage_entries`); where they exceed
    ``TERM_CAP`` they are not refused: each chunk of a level exponentiates
    its own distinct durations and builds their kernels (or effects) alone.
    Each level in flight holds at most ``TERM_CAP // max_order`` entries of
    its rows (a level-n row below N holds the branch states after n
    measurements, charged as the readout of an (n+1)-time table by
    :func:`~dephaser.statistics._state_entries`): a level that would hold
    more runs in chunks of children, depth-first, with a chunk of one node
    where a single node is larger.
    """
    if max_order < 2:
        raise ValidationError(f"classicality_report: max_order must be >= 2, got {max_order}")
    pool = tuple(sorted({float(t) for t in pool}))
    # checked before any arithmetic: the spans of a pool holding inf would compute inf - inf
    if not pool or not all(map(math.isfinite, pool + (float(t0),))):
        raise ValidationError(f"classicality_report: need a finite t0 and a non-empty pool of finite times, got {t0}, {pool}")
    if pool[0] < t0:
        raise ValidationError(f"classicality_report: pool starts before t0 = {t0}")

    root, identity = _root(provider, prep, measurement, "classicality_report")
    bases = measurement.bases
    (m, _, r), p = bases.shape, len(pool)
    entries = _state_entries(provider, measurement, max_order) + m * m * r * r * provider.env.size
    stored = 0
    for n in range(1, max_order + 1):
        stored += math.comb(p + n - 1, n) * m**n
        if stored > TERM_CAP:
            break
    if max(entries, stored) > TERM_CAP:
        raise SizeCapError(
            f"classicality_report: largest node of {entries} entries or at least "
            f"{stored} stored table entries exceed cap {TERM_CAP}"
        )

    plan = (_plan if _plan_entries(p, max_order) <= PLAN_ENTRIES else _plan.__wrapped__)(p, max_order)
    tuples, parent, first = plan.tuples, plan.parent, plan.first
    times = np.array(pool)
    tables = {n: np.empty((len(tuples[n]), m**n)) for n in range(1, max_order + 1)}

    # Every interval of the report either starts at t0 and ends at pool time
    # k (duration start[k]) or runs between pool times a <= b; the latter's
    # distinct durations are `spans`, and span[plan.pair[n]] is the index
    # into them of each level-n row's last interval.  If the report-wide
    # stage arrays fit, all durations are exponentiated in one call and the
    # kernels of both sources and the effects are built once; each chunk
    # gathers its rows.
    start = times - t0
    spans, span = _distinct(times[tuples[2][:, 1]] - times[tuples[2][:, 0]])
    stages = None  # (first kernels per pool time, later kernels and their effects per span)
    if _stage_entries(provider, measurement, p, len(spans)) <= TERM_CAP:
        durations, index = _distinct(np.concatenate((start, spans)))
        exponentials = provider.exponentials(durations)
        later = provider.kernels(exponentials[index[p:]], bases, bases)
        first_kernels = provider.kernels(exponentials[index[:p]], identity, bases)
        stages = first_kernels, later, provider.effects(later, bases, bases)

    def stage(n, lo, hi):
        """Per row lo..hi-1 of level n, the kernel of its last interval, or at
        the deepest level its effects; a (rows, 1, ...) array."""
        if n == 1:
            ids, source = tuples[1][lo:hi], identity
        else:
            ids, source = span[plan.pair[n][lo:hi]][:, None], bases
        kind = 0 if n == 1 else 2 if n == max_order else 1
        if stages is not None:
            return stages[kind][ids]
        # the stage arrays of this chunk's distinct durations only
        durations, inverse = _distinct((start if n == 1 else spans)[ids])
        kernels = provider.kernels(provider.exponentials(durations), source, bases)
        return (provider.effects(kernels, source, bases) if kind == 2 else kernels)[inverse]

    # Depth-first over chunks with an explicit stack of (level, first row,
    # end row, branch states of the parent block, its first row).  A level-n
    # row holds its states as (m^(n-1) prefixes, m last outcomes, ...), the
    # root as the one branch of the identity basis.  A level's chunk holds at
    # most `budget` entries of its rows.
    budget = TERM_CAP // max_order
    chunk = {n: max(1, budget // _state_entries(provider, measurement, n + 1)) for n in range(1, max_order)}
    chunk[max_order] = max(1, budget // entries)
    stack = [(1, lo, min(lo + chunk[1], p), root[None, None], 0) for lo in reversed(range(0, p, chunk[1]))]
    while stack:
        n, lo, hi, block, block_row = stack.pop()
        state = block[parent[n][lo:hi] - block_row]
        if n == max_order:
            # the deepest level reads its tables out and builds no branch state
            tables[n][lo:hi] = _readout(state, stage(n, lo, hi)).reshape(hi - lo, -1)
            continue
        state = provider.apply(state, stage(n, lo, hi), bases if n > 1 else identity, bases)
        state = state.reshape((hi - lo, -1, m) + state.shape[-2:])
        tables[n][lo:hi] = _probabilities(state).reshape(hi - lo, -1)
        c0, c1 = first[n][lo], first[n][hi]
        stack.extend((n + 1, a, min(a + chunk[n + 1], c1), state, lo) for a in reversed(range(c0, c1, chunk[n + 1])))
        del state  # free before the next chunk's kernels allocate

    def where(what, rows):
        return lambda k: f"classicality_report: {what} at times {tuple(pool[i] for i in rows[k])}"

    for n in range(1, max_order + 1):
        _check_tables(tables[n], where("table", tuples[n]))

    columns = []
    for n in range(2, max_order + 1):
        fine = tables[n].reshape((-1,) + (m,) * n)
        deficits = np.empty((len(fine), n - 1))
        for position, coarse in enumerate(plan.coarse[n], 1):
            reduced = fine.sum(axis=position).reshape(len(fine), -1)
            _check_tables(reduced, where(f"marginal at position {position} of the table", tuples[n]))
            deficits[:, position - 1] = np.abs(reduced - tables[n - 1][coarse]).max(axis=1)
        deficits.flags.writeable = False
        columns.append((tuples[n], deficits))
    return ClassicalityReport(max_order, tol, t0, pool, tuple(columns))


class _Plan(NamedTuple):
    """The index arrays of a report on a pool of p times to order N, one entry
    per level n (None where a level has none), all read-only.

    ``tuples[n]`` holds the pool indices of the order-n tuples, one row each,
    in ``combinations_with_replacement`` order; level 0 is the empty tuple,
    the root.  The children of row k of level n < N are rows
    ``first[n][k]:first[n][k + 1]`` of level n+1 (one per pool index >= the
    row's last), and ``parent[n + 1]`` maps them back.  For n >= 2,
    ``pair[n]`` is the order-2 row of each row's last two indices (its last
    interval), and ``coarse[n][k]`` the order-(n-1) row of each row with
    its index at position k+1 deleted."""

    tuples: tuple
    parent: tuple
    first: tuple
    pair: tuple
    coarse: tuple


#: plans of at most this many index entries (:func:`_plan_entries`) are kept
#: by :func:`_plan`, the PLAN_CACHE most recently used; a larger plan is built
#: per report.  At this size the build is 3-4% of its report (qubit-zx, a
#: Fourier PVM, one core of a 2-vCPU x86 VM: 1.4 ms of 44 ms at p = 45,
#: N = 3, 0.9 ms of 30 ms at p = 20, N = 4), and above it less, so a kept
#: plan would save little.  The bound counts entries, not rows, since the N
#: one-row levels of a p = 1 plan hold ~N² entries.  The cache holds at most
#: 8 · 2^17 entries of 8 bytes, 8 MiB.
PLAN_ENTRIES = 1 << 17
PLAN_CACHE = 8


def _plan_entries(p: int, max_order: int) -> int:
    """An upper bound on the index entries of :func:`_plan` (p, max_order):
    a level-n row holds at most 2n + 2 of them, and each ``first`` one more."""
    return sum((2 * n + 3) * math.comb(p + n - 1, n) for n in range(max_order + 1))


@functools.lru_cache(maxsize=PLAN_CACHE)
def _plan(p: int, max_order: int) -> _Plan:
    """The :class:`_Plan` of a report on a pool of p times to order max_order;
    it does not depend on the times, the model or the measurement."""
    tuples, parent, first = [np.zeros((1, 0), dtype=np.intp)], [None], []
    for n in range(max_order):
        last = tuples[n][:, -1] if n else np.zeros(1, dtype=np.intp)
        counts = p - last
        first.append(np.concatenate(([0], np.cumsum(counts))))
        parent.append(np.repeat(np.arange(len(counts)), counts))
        child = last[parent[n + 1]] + np.arange(first[n][-1]) - first[n][:-1][parent[n + 1]]
        tuples.append(np.column_stack((tuples[n][parent[n + 1]], child)))

    def rank(rows, columns):
        """The row among the order-k rows of each row of ``rows`` read at its k
        ``columns``, a non-decreasing index tuple (a_1..a_k): one walk down,
        row <- first[n][row] + a_{n+1} - a_n, a_0 = 0."""
        out = previous = 0
        for n, c in enumerate(columns):
            out, previous = first[n][out] + rows[:, c] - previous, rows[:, c]
        return out

    pair, coarse = [None, None], [None, None]
    for n in range(2, max_order + 1):
        pair.append(rank(tuples[n], (n - 2, n - 1)))
        coarse.append(np.empty((n - 1, len(tuples[n])), dtype=np.intp))
        for k in range(n - 1):
            coarse[n][k] = rank(tuples[n], [j for j in range(n) if j != k])
    for array in itertools.chain(tuples, parent, first, pair, coarse):
        if array is not None:
            array.flags.writeable = False
    return _Plan(tuple(tuples), tuple(parent), tuple(first), tuple(pair), tuple(coarse))


def _stage_entries(provider: DephasingTensorProvider, measurement: ProjectiveMeasurement, p: int, spans: int) -> int:
    """Entries of a report's stage arrays for a pool of p times whose pairs
    have ``spans`` distinct durations: the exponentials of at most p + spans
    durations (U_j, d·D², or φ, d²: at most d²·D² each), the first
    interval's kernels (m·r·d·D² per pool time) and, per span, the later
    kernels and their effects (m²·r²·D² each).  m·r >= d, so the analytic
    provider's φ kernels (d² each) are within the same counts."""
    (m, d, r), big = measurement.bases.shape, provider.env.size
    return (p + spans) * d * d * big + p * m * r * d * big + 2 * spans * m * m * r * r * big


def _qubit_two_time_bracket(provider: DephasingTensorProvider, p: float, t2: float, t1: float, t0: float) -> complex:
    """The angle-independent factor of the closed-form 2-time qubit deficit."""
    if provider.d != 2:
        raise ValidationError(f"qubit_two_time_deficit_closed: provider d = {provider.d}, need 2")

    def t2step(j2, l2, j1, l1):
        return provider.tensor_pairs([(j1, l1), (j2, l2)], [t1 - t0, t2 - t1])

    return (
        p * t2step(0, 1, 0, 0)
        + p * t2step(1, 0, 0, 0)
        + (p - 1) * t2step(0, 1, 1, 1)
        + (p - 1) * t2step(1, 0, 1, 1)
        - 2 * (2 * p - 1)
    )


def _qubit_two_time_deficit(bracket: complex, theta, x2: int):
    """The closed-form 2-time qubit deficit at angle ``theta`` (a scalar or an
    array of angles) from its bracket."""
    return ((-1) ** x2 * 0.125 * np.sin(2 * theta) * np.sin(4 * theta) * bracket).real


def qubit_two_time_deficit_closed(
    provider: DephasingTensorProvider,
    p: float,
    theta: float,
    x2: int,
    t2: float,
    t1: float,
    t0: float = 0.0,
) -> float:
    """Closed-form 2-time consistency deficit for a qubit, diagonal preparation.

    Equals sum_x1 P2(x2, t2; x1, t1) - P1(x2, t2) for the preparation
    diag(p, 1-p) and the measurement basis parametrized by theta (the deficit
    does not depend on the azimuthal phase).
    """
    return float(_qubit_two_time_deficit(_qubit_two_time_bracket(provider, p, t2, t1, t0), theta, x2))


def qubit_two_time_deficit_simplified(p: float, theta: float, x2: int, re_phi: float) -> float:
    """The Markovian-or-commuting specialization of the 2-time deficit.

    With a single dephasing function φ, the bracket collapses and the deficit
    becomes (-1)^x2 · (1/2)(1/2 - p) · sin 2θ sin 4θ · (1 - Re φ).
    """
    return float((-1) ** x2 * 0.5 * (0.5 - p) * np.sin(2 * theta) * np.sin(4 * theta) * (1.0 - re_phi))


def markov_qubit_violation_closed(
    epsilon: float, gamma: float, x3: int, x1: int, t3: float, t2: float, t1: float
) -> float:
    """Closed-form P2(x3; x1) - sum_x2 P3(x3; x2; x1) for the analytic qubit.

    Diagonal preparation, unbiased measurement basis.  The value is
    -(1/4)(-1)^(x3-x1) e^{-γ(t3-t1)/2} sin[ε(t3-t2)] sin[ε(t2-t1)]: it
    vanishes for all times iff ε = 0, i.e. iff the dephasing function is real.
    """
    return float(
        -0.25
        * (-1) ** (x3 - x1)
        * np.exp(-0.5 * gamma * (t3 - t1))
        * np.sin(epsilon * (t3 - t2))
        * np.sin(epsilon * (t2 - t1))
    )


def delta_count(d: int, h: int) -> int:
    """Brute-force count of off-diagonal pairs with j - l = h modulo {0, ±d}.

    Must equal d for every admissible h (1 <= |h| <= d-1).
    """
    if h == 0 or abs(h) >= d:
        raise ValidationError(f"delta_count: h = {h} out of range ±1..±{d - 1}")
    count = 0
    for j in range(d):
        for l in range(d):
            if j == l:
                continue
            for k in (-1, 0, 1):
                if j - l == h + k * d:
                    count += 1
    return count


def theta_sweep(
    provider: DephasingTensorProvider,
    p: float,
    thetas,
    t2: float,
    t1: float,
    t0: float = 0.0,
    x2: int = 0,
):
    """2-time deficit as a function of the measurement angle.

    Returns (thetas, deficits, argmax_theta); the argmax is taken on the
    absolute deficit.  The angle-independent bracket of the closed form is
    evaluated once per sweep, and the angles are one array expression.
    Maxima sit near (1/2) arctan sqrt(2) and its mirror whenever the
    time-dependent factor is nonzero.  An empty ``thetas`` raises
    ``ValidationError``.
    """
    thetas = np.asarray(list(thetas), dtype=float)
    if thetas.size == 0:
        raise ValidationError("theta_sweep: need at least one angle")
    bracket = _qubit_two_time_bracket(provider, p, t2, t1, t0)
    deficits = _qubit_two_time_deficit(bracket, thetas, x2)
    argmax_theta = float(thetas[int(np.argmax(np.abs(deficits)))])
    return thetas, deficits, argmax_theta


def search_nonclassicality_witness(
    provider: DephasingTensorProvider,
    prep: SystemPreparation,
    measurement: ProjectiveMeasurement,
    t0: float,
    horizon: float,
    order: int = 3,
    position: int = 2,
    points_per_interval: int = 5,
    threshold: float = 1e-3,
    seed: int = 0,
    random_draws: int = 50,
):
    """Search a coarse grid for a consistency violation of the given order.

    Deterministic sweep over increasing tuples from a uniform coarse grid,
    then seeded random tuples.  Returns the best witness record found with
    deficit >= threshold, or None (inconclusive, *not* evidence of
    classicality).

    The sweep reads the strictly increasing tuples of one
    :func:`classicality_report` on the grid of ``points_per_interval`` ·
    (``order`` - 1) times, up to ``order``; the random tuples are computed
    one at a time.  So the grid is bounded by the report's caps: for a qubit
    with a rank-one PVM, at most 194 grid times (97 points per interval) at
    order 3 and 60 (20 per interval) at order 4.  A larger grid raises
    ``SizeCapError`` before any propagator is computed.
    """
    if not 1 <= position <= order - 1:
        raise ValidationError(f"search_nonclassicality_witness: position {position} not interior for order {order}")
    grid = np.linspace(t0, horizon, points_per_interval * (order - 1) + 1)[1:]
    best = None
    if len(grid) >= order:
        report = classicality_report(provider, prep, measurement, grid, order, t0=t0)
        rows, deficits = report.columns[-1]
        increasing = np.flatnonzero((np.diff(rows, axis=1) > 0).all(axis=1))
        if len(increasing):
            k = increasing[np.argmax(deficits[increasing, position - 1])]
            times = tuple(report.pool[i] for i in rows[k])
            best = DeficitRecord(order, position, times, float(deficits[k, position - 1]))

    def consider(times):
        nonlocal best
        fine = joint_distribution(provider, prep, measurement, TimeGrid(t0, tuple(times)))
        coarse = joint_distribution(
            provider, prep, measurement, TimeGrid(t0, tuple(times[: position - 1] + times[position:]))
        )
        deficit = kolmogorov_deficit(fine, coarse, position)
        if best is None or deficit > best.deficit:
            best = DeficitRecord(order, position, tuple(times), deficit)

    rng = np.random.default_rng(seed)
    for _ in range(random_draws):
        consider(sorted(t0 + (horizon - t0) * rng.random(order)))

    if best is not None and best.deficit >= threshold:
        return best
    return None
