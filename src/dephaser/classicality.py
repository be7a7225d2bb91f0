"""Kolmogorov consistency deficits and classicality reports.

A process is N-classical when marginalizing any interior outcome of an n-time
distribution (n <= N) reproduces the (n-1)-time distribution on the reduced
grid.  Marginalizing the *last* outcome always works (trace preservation), so
only interior positions 1..n-1 are tested.  Verdicts are always relative to a
declared finite grid pool.

:func:`classicality_report` walks the non-decreasing time tuples of the pool
as a prefix trie on the propagation kernel of
:func:`~dephaser.statistics.joint_distribution`, one level (order) at a time,
so each distinct grid is propagated once and every prefix is shared by all
tuples that extend it.  Its docstring gives the stages, the one table buffer
and the caps; :func:`_columns` reduces the tables to deficits, and
:func:`_plan` builds, in one pass, the index arrays, the table layout and
the marginals' slabs that reports of one (p, N, m) and budget share.
A tuple's table does not depend on the batch or chunk it is computed in, and
records agree with the per-tuple computation (:func:`joint_distribution` and
:func:`kolmogorov_deficit` tuple by tuple) to roundoff.

A :class:`ClassicalityReport` keeps its deficits as columns, one
(tuples × positions) array per order beside the tuples' pool indices.  Its
verdicts, ``max_deficit``, ``to_dict`` (``report.json``'s ``orders``) and
the CLI's CSV rows read those arrays; ``records`` is a read-only sequence
view that builds a :class:`DeficitRecord` only for the item read.
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

from .errors import ShapeError, ValidationError, _capped, _integer, _ordered, _real, _sequence
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
    _within_rule,
    joint_distribution,
)

#: default verdict tolerance: above pipeline noise, far below genuine violations
DEFAULT_TOL = 1e-9

#: largest |difference| at which :func:`kolmogorov_deficit` takes two grid times
#: as the same.  A marginal's grid and the coarse grid normally hold the same
#: doubles; this forgives a few ulps of different arithmetic (4500 ulps at
#: t = 1, 9 at t = 1000) and is far below any step between measurement times.
GRID_MATCH_TOL = 1e-12


def kolmogorov_deficit(fine: JointDistribution, coarse: JointDistribution, position: int) -> float:
    """Max-abs mismatch between ``coarse`` and ``fine`` marginalized at ``position``.

    ``position`` is 1-based and interior, 1..n-1 (the argument rule of
    :mod:`dephaser.errors`): the last position is consistent automatically.
    """
    n = fine.n
    if coarse.n != n - 1:
        raise ShapeError(f"kolmogorov_deficit: coarse order {coarse.n} != fine order {n} - 1")
    if coarse.n_outcomes != fine.n_outcomes:
        raise ShapeError(f"kolmogorov_deficit: fine table has {fine.n_outcomes} outcomes, coarse {coarse.n_outcomes}")
    position = _integer("kolmogorov_deficit", "position", position, 1, n - 1)
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
    :class:`DeficitRecord` objects; the verdicts, :attr:`max_deficit` and
    :meth:`to_dict` read the columns directly.
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

    def verdict(self, order: int) -> bool:
        """True iff every deficit at orders <= ``order`` is within tolerance."""
        order = _integer("verdict", "order", order, 1, self.max_order_tested)
        return all(bool((deficits <= self.tolerance).all()) for _, deficits in self.columns[: order - 1])

    @property
    def max_deficit(self) -> float:
        return max((float(deficits.max()) for _, deficits in self.columns), default=0.0)

    def to_dict(self) -> dict:
        """``report.json``'s fields: per order n, tuples as rows of n ``grid_pool`` indices, deficits as rows of n-1."""
        return {
            "max_order_tested": self.max_order_tested,
            "tolerance": self.tolerance,
            "t0": self.t0,
            "grid_pool": list(self.pool),
            "note": "order 1 is normalization only and recorded as trivially satisfied",
            "orders": [
                {"order": rows.shape[1], "tuples": rows.tolist(), "deficits": deficits.tolist()}
                for rows, deficits in self.columns
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
        for rows, deficits in self._report.columns:
            for times, row in zip(map(tuple, np.take(self._report.pool, rows).tolist()), deficits.tolist()):
                for position, deficit in enumerate(row, 1):
                    yield DeficitRecord(len(times), position, times, deficit)

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
    distinct grid is thus propagated once.  The report's p durations t_k - t0
    and the distinct spans t_b - t_a of pool times t_a <= t_b are exponentiated
    as they are in one ``provider.exponentials`` call, and the first
    interval's kernels (one per pool time), the later kernels and their
    effects (one per span) are built once each.
    Every table is kept in one buffer, and the level walk writes each into
    its view.  A marginal is the order-n tables summed over one interior
    outcome axis, and a deficit max |marginal - coarse| per tuple, the coarse
    table that of the tuple with that time deleted (:func:`_columns`): all
    tables are checked at once, then all marginals, and the deficits are one
    gather of coarse rows per order, one subtraction and one
    ``np.maximum.reduceat``, whatever the number of (order, position) pairs.
    Those rows, the trie's levels, the row of each tuple's last interval,
    the table buffer's layout and the marginals' slabs come from the index
    plan of (p, max_order, m, ``TERM_CAP // max_order``), :func:`_plan`:
    built whole after the caps pass and read-only, kept (the ``PLAN_CACHE``
    most recent of at most ``PLAN_ENTRIES`` entries each) for later reports
    of the same pool size, order, outcome count and budget, and shared by
    their ``columns`` as the tuples' pool indices.  A larger plan is built
    per report.  The caps and the walk's chunk sizes are kept per (PVM
    shape, D², p, N, ``TERM_CAP``) by :func:`_sizes`, so a report with both
    kept computes only its arithmetic and its checks.  Every table and every
    marginal passes the one rule of :class:`JointDistribution`,
    :func:`~dephaser.statistics._check_tables`, which names the first that
    fails.  ``max_order`` >= 2, ``tol`` >= 0, ``t0`` and the non-empty ``pool``,
    no earlier than ``t0``, follow :mod:`dephaser.errors`.

    Its size estimate, :func:`_report_size`, is checked before any propagator
    is computed: the largest node and the stored tables within ``TERM_CAP``,
    and, for a single-outcome PVM, which they do not bound, N within
    ``MAX_ORDER`` = 22 and the records within ``TERM_CAP``.  So are the
    report-wide stage arrays (:func:`_stage_entries`); where they exceed
    ``TERM_CAP`` they are not refused: each chunk of a level exponentiates
    its own distinct durations and builds their kernels (or effects) alone.
    Each level in flight holds at most ``TERM_CAP // max_order`` entries of
    its rows (a level-n row below N holds the branch states after n
    measurements, charged as the readout of an (n+1)-time table by
    :func:`~dephaser.statistics._state_entries`): a level that would hold
    more runs in chunks of children, depth-first, with a chunk of one node
    where a single node is larger.  The marginals are formed in slabs of
    whole (order, position) segments of at most max(``TERM_CAP //
    max_order``, the largest segment) entries, each with one gathered copy
    of its size.
    """
    # checked before any arithmetic: a float order fails inside numpy, a NaN or negative tol makes every verdict False
    max_order = _integer("classicality_report", "max_order", max_order, 2)
    tol, t0 = _real("classicality_report", "tol", tol, 0), _real("classicality_report", "t0", t0)
    # checked before any arithmetic: the spans of a pool holding inf would compute inf - inf
    pool = tuple(sorted(set(_sequence("classicality_report", "pool", pool).tolist())))
    if not pool:
        raise ValidationError("classicality_report: need a non-empty pool of times")
    if pool[0] < t0:  # two floats compared once per report; the rule words the fault
        _ordered("classicality_report", "(t0, pool)", t0, pool[0])

    root, identity = _root(provider, prep, measurement, "classicality_report")
    bases, p = measurement.bases, len(pool)
    m, (_, chunk) = len(bases), _sizes(bases.shape, provider.env.size, p, max_order, TERM_CAP)

    plan = (_plan if _plan_entries(p, max_order) <= PLAN_ENTRIES else _plan.__wrapped__)(p, max_order, m, TERM_CAP // max_order)
    tuples, parent, first = plan.tuples, plan.parent, plan.first
    # every table in one buffer, order after order; tables[n] is a view, one row per tuple
    flat = np.empty(plan.orders[-1][1].stop)
    tables = {n: flat[entries].reshape(shape) for n, entries, shape, _, _ in plan.orders}

    # An interval either starts at t0 and ends at pool time k (duration
    # start[k], the last interval of level-1 row k) or runs between pool times
    # a <= b: `spans` are the latter's distinct durations, and last[n] the
    # span of each level-n row's last interval.  Where the report-wide stage
    # arrays fit, the starts (a start equal to a span too, to the same bits)
    # and the spans are exponentiated in one call, and the kernels of both
    # sources and the effects built once; each chunk gathers its rows.
    times = np.array(pool)
    start = times - t0
    spans, span = _distinct(times.take(tuples[2][:, 1]) - times.take(tuples[2][:, 0]))
    last = [None, None] + [span.take(pair) for pair in plan.pair[2:]]
    stages = None  # (first kernels per pool time, later kernels and their effects per span)
    if _stage_entries(provider, measurement, p, len(spans)) <= TERM_CAP:
        exponentials = provider.exponentials(np.concatenate((start, spans)))
        later = provider.kernels(exponentials[p:], bases, bases)
        stages = provider.kernels(exponentials[:p], identity, bases), later, provider.effects(later, bases, bases)

    # Depth-first over chunks with an explicit stack of (level, first row,
    # end row, branch states of the parent block, its first row).  A level-n
    # row holds its states as (m^(n-1) prefixes, m last outcomes, ...); level
    # 1 reads the root, ρ⊗ρ_E as the one branch of the identity basis, by
    # broadcasting.  Per chunk, `stage` holds each row's kernel of its last
    # interval, or at the deepest level its effects, as (rows, 1, ...).
    stack = [(1, lo, min(lo + chunk[1], p), root[None, None], 0) for lo in reversed(range(0, p, chunk[1]))]
    while stack:
        n, lo, hi, block, block_row = stack.pop()
        source, kind = (identity, 0) if n == 1 else (bases, 2 if n == max_order else 1)
        if stages is None:
            # the stage arrays of this chunk's distinct durations only
            durations, inverse = _distinct(start[lo:hi] if n == 1 else spans.take(last[n][lo:hi]))
            kernels = provider.kernels(provider.exponentials(durations), source, bases)
            stage = (provider.effects(kernels, source, bases) if kind == 2 else kernels).take(inverse, axis=0)[:, None]
        else:
            stage = stages[0][lo:hi, None] if n == 1 else stages[kind].take(last[n][lo:hi], axis=0)[:, None]
        state = block if n == 1 else block.take(parent[n][lo:hi] - block_row, axis=0)
        if n == max_order:
            # the deepest level reads its tables out and builds no branch state
            tables[n][lo:hi] = _readout(state, stage).reshape(hi - lo, -1)
            continue
        state = provider.apply(state, stage, source, bases)
        state = state.reshape((hi - lo, -1, m) + state.shape[-2:])
        tables[n][lo:hi] = _probabilities(state).reshape(hi - lo, -1)
        c0, c1 = first[n][lo], first[n][hi]
        stack.extend((n + 1, a, min(a + chunk[n + 1], c1), state, lo) for a in reversed(range(c0, c1, chunk[n + 1])))
        del state  # free before the next chunk's kernels allocate

    return ClassicalityReport(max_order, tol, t0, pool, _columns(flat, tables, plan, m, pool))


def _columns(flat: np.ndarray, tables: dict, plan: "_Plan", m: int, pool: tuple) -> tuple:
    """Check a report's tables and their marginals, and reduce them to its
    ``columns``: a fixed number of array calls per slab, besides max(m - 1, 1)
    per (order, position) for its marginal and two per order for the row
    totals and the coarse rows of its positions.

    ``flat`` is the buffer of every table, order after order, and ``tables[n]``
    its view of the order-n tables, one row per tuple of ``plan.tuples[n]``.
    All tables are checked at once (:func:`~dephaser.statistics._within_rule`
    over ``flat`` and the row totals), then the marginals of each slab at
    once.  Every index, range and shape read here is kept with the plan: the
    table layout in ``plan.orders``, and the marginals' slabs, whole
    (order, position) segments cut by :func:`_plan`, in ``plan.slabs``.  A
    segment's marginal sums the m outcome slices of axis k in order, the
    sequential sum that ``fine.sum(axis=k)`` takes over an axis that is not
    the last, so the bits are the same, 1.5 to 5 times faster than that
    ``sum`` (measured on segments of 28 to 1000 rows, m = 2).  The coarse
    rows of one order's segments in the slab are one ``np.take`` from the
    order-(n-1) tables by its flattened ``plan.coarse`` rows, and the slab's
    deficits, max |marginal - coarse| of each (order, position, tuple) row,
    one ``np.maximum.reduceat`` at its rows' starts; max is exact, so each
    deficit is the same double as a per-row ``np.abs(...).max()``.  Besides
    the plan, the slabs share two buffers of ``plan.largest`` entries, the
    marginals and their coarse rows.  Where a check fails,
    :func:`~dephaser.statistics._check_tables` is called table by table in
    record order and raises, naming the first failing one.
    """

    def where(what, rows):
        return lambda k: f"classicality_report: {what} at times {tuple(pool[i] for i in rows[k])}"

    totals = np.empty(plan.orders[-1][3].stop)
    for n, _, _, rows, _ in plan.orders:
        np.add.reduce(tables[n], axis=-1, out=totals[rows])
    if not _within_rule(flat, totals):
        for n in tables:
            _check_tables(tables[n], where("table", plan.tuples[n]))

    marginals, gathered, deficits = np.empty(plan.largest), np.empty(plan.largest), np.empty(plan.orders[-1][4].stop)
    for size, records, starts, segments, orders in plan.slabs:
        entries, totals = marginals[:size], np.empty(len(starts))  # one total per row
        for n, k, rows, width, at in segments:
            fine, out = tables[n].reshape(-1, m, width), entries[at].reshape(-1, width)
            np.add(fine[:, 0], fine[:, 1], out=out) if m > 1 else np.copyto(out, fine[:, 0])
            for j in range(2, m):
                np.add(out, fine[:, j], out=out)
        # per order, its positions in the slab: one call for their row totals, one gather of their coarse rows
        for n, at, rows, coarse, shape in orders:
            np.add.reduce(entries[at].reshape(shape), axis=-1, out=totals[rows])
            tables[n - 1].take(coarse, axis=0, out=gathered[at].reshape(shape))
        if not _within_rule(entries, totals):
            for n, k, rows, _, at in segments:
                rule = where(f"marginal at position {k} of the table", plan.tuples[n])
                _check_tables(entries[at].reshape(rows, -1), rule)
        np.subtract(entries, gathered[:size], out=entries)
        np.abs(entries, out=entries)
        np.maximum.reduceat(entries, starts, out=deficits[records])

    deficits.flags.writeable = False
    # per order, its deficits as (positions, rows), read as (rows, positions)
    return tuple((plan.tuples[n], deficits[at].reshape(n - 1, -1).T) for n, _, _, _, at in plan.orders[1:])


class _Plan(NamedTuple):
    """The index arrays of a report on a pool of p times to order N with an
    m-outcome PVM, and the layout of its tables and of its marginals' slabs:
    tuples, ints, slices and read-only arrays only, so a kept plan is shared
    as it is.  ``tuples``, ``parent``, ``first`` and ``pair`` hold one array
    per level n (None where a level has none).

    ``tuples[n]`` holds the pool indices of the order-n tuples, one row each,
    in ``combinations_with_replacement`` order; level 0 is the empty tuple,
    the root.  The children of row k of level n < N are rows
    ``first[n][k]:first[n][k + 1]`` of level n+1 (one per pool index >= the
    row's last), and ``parent[n + 1]`` maps them back.  For n >= 2,
    ``pair[n]`` is the order-2 row of each row's last two indices (its last
    interval).

    ``orders`` lays out a report's tables: per order n = 1..N, (n, the slice
    of the table buffer holding its tables, their shape (rows, m^n), the
    slice of the row totals holding theirs, the slice of the deficits
    holding its (n - 1) × rows, None at n = 1).

    ``slabs`` lay out a report's marginals, in record order: per order
    n = 2..N and interior position k = 1..n-1, a segment of one row of
    m^(n-1) entries per order-n tuple, its table summed over outcome k, and
    one deficit per row.  ``coarse[n][k - 1]`` is the order-(n-1) row that
    each order-n row is compared with at position k: that of the tuple with
    its index at position k deleted.  The segments are cut into consecutive
    slabs of whole segments, each of at most max(budget, the largest
    segment) entries (:func:`_plan`).  A slab is (its entries, the slice of
    the deficits holding its rows, the first entry of each row, its
    segments, its orders), every other entry and row local to the slab.  A
    segment is (n, k, rows, width m^(n-k), its entries); an order is (n, the
    entries and the rows of its positions in the slab, their ``coarse`` rows
    flattened, a view, and the shape (rows, m^(n-1)) of their entries).
    ``largest`` is the entries of the largest slab."""

    tuples: tuple
    parent: tuple
    first: tuple
    pair: tuple
    coarse: tuple
    orders: tuple
    slabs: tuple
    largest: int


#: plans of at most this many index entries (:func:`_plan_entries`) are kept
#: by :func:`_plan`, the PLAN_CACHE most recently used; a larger plan is built
#: per report.  At this size the build is 3-6% of its report (qubit-zx, a
#: Fourier PVM, one core of a shared 2-vCPU x86 VM: 0.62 ms of 11.1 ms at
#: p = 39, N = 3, the largest kept there, and 0.47 ms of 18.4 ms at p = 19,
#: N = 4), and above it less, so a kept plan would save little.  The bound
#: counts entries, not rows, since the N one-row levels of a p = 1 plan hold
#: ~N² entries.  The cache holds at most 8 · 2^17 entries of 8 bytes, 8 MiB.
PLAN_ENTRIES = 1 << 17
PLAN_CACHE = 8

#: the highest order a report tests.  With m >= 2 outcomes the stored tables
#: alone refuse order 23, since Σ_{n<=23} 2^n = 2^24 - 2 entries exceed
#: ``TERM_CAP``; with one outcome (m = 1) each table is one entry, and only
#: this bound and the records' count bound the orders.
MAX_ORDER = 22


@functools.lru_cache(maxsize=PLAN_CACHE)
def _plan_entries(p: int, max_order: int) -> int:
    """An upper bound on the index entries of :func:`_plan` (p, max_order, m,
    budget), whatever m and budget: a level-n row holds at most 3n + 1 of
    them (n - 1 each in ``coarse`` and in its slab's row starts), and each
    ``first`` one more.  Not counted: ``orders`` and the slabs, at most
    N(N-1)/2 segments and as many orders, tuples of ints, slices and views
    (the slabs' flattened ``coarse`` rows); all of these are bounded once the
    orders are (N <= ``MAX_ORDER``, at most 231 segments)."""
    return sum((3 * n + 2) * math.comb(p + n - 1, n) for n in range(max_order + 1))


@functools.lru_cache(maxsize=PLAN_CACHE)
def _plan(p: int, max_order: int, m: int, budget: int) -> _Plan:
    """The :class:`_Plan` of a report on a pool of p times to order max_order
    with an m-outcome PVM, its marginals cut into slabs of at most
    max(``budget``, the largest segment) entries; it does not depend on the
    times, the model or the measurement's bases.  A report's budget is
    ``TERM_CAP // max_order``."""
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

    def slab(segments):
        """The slab of consecutive whole segments (n, k, lo, hi, r0, r1), entries
        lo..hi-1 and rows r0..r1-1 of the record order, as :class:`_Plan` keeps it."""
        (_, _, lo, _, r0, _), (_, _, _, hi, _, r1) = segments[0], segments[-1]
        starts = np.concatenate([np.arange(a - lo, b - lo, m ** (n - 1)) for n, _, a, b, _, _ in segments])
        starts.flags.writeable = False
        orders = []
        # per order, its positions k0..k1 in the slab: their row totals and coarse rows, one call each
        for n, group in itertools.groupby(segments, operator.itemgetter(0)):
            group = list(group)
            (_, k0, a, _, ra, _), (_, k1, _, b, _, rb) = group[0], group[-1]
            coarse_rows = coarse[n][k0 - 1 : k1].reshape(-1)
            orders.append((n, slice(a - lo, b - lo), slice(ra - r0, rb - r0), coarse_rows, (rb - ra, m ** (n - 1))))
        segments = tuple((n, k, rb - ra, m ** (n - k), slice(a - lo, b - lo)) for n, k, a, b, ra, rb in segments)
        return hi - lo, slice(r0, r1), starts, segments, tuple(orders)

    # one pass over the (order, position) segments in record order; a segment that
    # would take the open slab past `bound` entries opens the next one
    bound = max(budget, *(len(tuples[n]) * m ** (n - 1) for n in range(2, max_order + 1)))
    pair, coarse, cut, entry, row = [None, None], [None, None], [[]], 0, 0
    for n in range(2, max_order + 1):
        pair.append(rank(tuples[n], (n - 2, n - 1)))
        coarse.append(np.empty((n - 1, len(tuples[n])), dtype=np.intp))
        rows, width = len(tuples[n]), m ** (n - 1)
        for k in range(1, n):
            coarse[n][k - 1] = rank(tuples[n], [j for j in range(n) if j != k - 1])
            if cut[-1] and entry + rows * width - cut[-1][0][2] > bound:
                cut.append([])
            cut[-1].append((n, k, entry, entry + rows * width, row, row + rows))
            entry, row = entry + rows * width, row + rows
    for array in itertools.chain(tuples, parent, first, pair, coarse):
        if array is not None:
            array.flags.writeable = False
    slabs = tuple(slab(segments) for segments in cut)  # after the freeze: a slab holds views of `coarse`
    orders, entry, row, record = [], 0, 0, 0
    for n in range(1, max_order + 1):
        rows = len(tuples[n])
        deficits = slice(record, record + (n - 1) * rows) if n > 1 else None
        orders.append((n, slice(entry, entry + rows * m**n), (rows, m**n), slice(row, row + rows), deficits))
        entry, row, record = entry + rows * m**n, row + rows, record + (n - 1) * rows
    largest = max(entries for entries, *_ in slabs)
    return _Plan(*map(tuple, (tuples, parent, first, pair, coarse, orders)), slabs, largest)


def _report_size(provider: DephasingTensorProvider, measurement: ProjectiveMeasurement, p: int, max_order: int) -> int:
    """The size estimate of :func:`classicality_report` on a pool of p distinct times, no propagator
    built: its largest single node, a row of the deepest level N (its parent's branch states,
    m^(N-1)·r²·D² entries with r the largest rank of the PVM, plus its gathered effects, m²·r²·D²),
    within ``TERM_CAP``; then its stored tables, Σ_n C(p+n-1, n)·m^n entries summed order by order
    until past the cap, at most to order ``MAX_ORDER`` + 1; then N itself within ``MAX_ORDER``;
    then its records, Σ_n C(p+n-1, n)·(n-1), within ``TERM_CAP``.  With m >= 2 the stored tables
    refuse every N past ``MAX_ORDER`` and hold more entries than the records, so the last two
    bound only single-outcome reports: at most 23 + 21 steps, whatever N.  Returns the node's
    entries; :func:`_sizes` computes it once per (PVM shape, D², p, N, ``TERM_CAP``)."""
    return _sizes(measurement.bases.shape, provider.env.size, p, max_order, TERM_CAP)[0]


@functools.lru_cache(maxsize=PLAN_CACHE)
def _sizes(shape: tuple, big: int, p: int, max_order: int, cap: int) -> tuple:
    """:func:`_report_size`'s checks within ``cap`` for a PVM of ``bases.shape``
    (m, d, r) and D² = ``big``, and (the node's entries, the chunks): chunk[n],
    n = 1..N, the rows of a level-n chunk of the walk, at most ``cap // N``
    entries of its rows (a level-n row below N held as the readout of an
    (n+1)-time table, :func:`~dephaser.statistics._state_entries`, one at N as
    its node), and one row where a single row is larger.  The ``PLAN_CACHE``
    most recent sizes that pass are kept."""
    m, _, r = shape
    node = _state_entries(shape, big, max_order) + m * m * r * r * big
    _capped("classicality_report", "entries in its largest node", node, cap)
    stored = (math.comb(p + n - 1, n) * m**n for n in range(1, min(max_order, MAX_ORDER + 1) + 1))
    _capped("classicality_report", "stored table entries", itertools.accumulate(stored), cap)
    _capped("classicality_report", "orders", max_order, MAX_ORDER)
    records = (math.comb(p + n - 1, n) * (n - 1) for n in range(2, max_order + 1))
    _capped("classicality_report", "records", itertools.accumulate(records), cap)
    held = [_state_entries(shape, big, n + 1) for n in range(1, max_order)] + [node]
    return node, (None, *(max(1, cap // max_order // entries) for entries in held))


def _stage_entries(provider: DephasingTensorProvider, measurement: ProjectiveMeasurement, p: int, spans: int) -> int:
    """Entries of a report's stage arrays for a pool of p times whose pairs
    have ``spans`` distinct durations: the exponentials of exactly p + spans
    durations (U_j, d·D², or φ, d²: at most d²·D² each), the first
    interval's kernels (m·r·d·D² per pool time) and, per span, the later
    kernels and their effects (m²·r²·D² each).  m·r >= d, so the analytic
    provider's φ kernels (d² each) are within the same counts."""
    (m, d, r), big = measurement.bases.shape, provider.env.size
    return (p + spans) * d * d * big + p * m * r * d * big + 2 * spans * m * m * r * r * big


def _qubit_two_time_bracket(provider: DephasingTensorProvider, p: float, t2: float, t1: float, t0: float) -> complex:
    """The angle-independent factor of the closed-form 2-time qubit deficit."""
    if provider.d != 2:
        raise ValidationError(f"theta_sweep: provider d = {provider.d}, need 2")

    def t2step(j2, l2, j1, l1):
        return provider.tensor_pairs([(j1, l1), (j2, l2)], [t1 - t0, t2 - t1])

    return (
        p * t2step(0, 1, 0, 0)
        + p * t2step(1, 0, 0, 0)
        + (p - 1) * t2step(0, 1, 1, 1)
        + (p - 1) * t2step(1, 0, 1, 1)
        - 2 * (2 * p - 1)
    )


def markov_qubit_violation_closed(
    epsilon: float, gamma: float, x3: int, x1: int, t3: float, t2: float, t1: float
) -> float:
    """Closed-form P2(x3; x1) - sum_x2 P3(x3; x2; x1) for the analytic qubit.

    Diagonal preparation, unbiased measurement basis.  The value is
    -(1/4)(-1)^(x3-x1) e^{-γ(t3-t1)/2} sin[ε(t3-t2)] sin[ε(t2-t1)]: it
    vanishes for all times iff ε = 0, i.e. iff the dephasing function is real.
    x3, x1 in 0..1, the reals and t1 <= t2 <= t3 follow the rules of :mod:`dephaser.errors`.
    """
    caller, reals = "markov_qubit_violation_closed", {"epsilon": epsilon, "gamma": gamma, "t3": t3, "t2": t2, "t1": t1}
    epsilon, gamma, t3, t2, t1 = (_real(caller, name, value) for name, value in reals.items())
    x3, x1 = _integer(caller, "x3", x3, 0, 1), _integer(caller, "x1", x1, 0, 1)
    _ordered(caller, "(t1, t2, t3)", t1, t2, t3)
    return float(
        -0.25
        * (-1) ** (x3 - x1)
        * np.exp(-0.5 * gamma * (t3 - t1))
        * np.sin(epsilon * (t3 - t2))
        * np.sin(epsilon * (t2 - t1))
    )


def theta_sweep(
    provider: DephasingTensorProvider,
    p: float,
    thetas,
    t2: float,
    t1: float,
    t0: float = 0.0,
    x2: int = 0,
):
    """The closed-form 2-time qubit deficit as a function of the measurement angle.

    Each deficit is sum_x1 P2(x2, t2; x1, t1) - P1(x2, t2) for the
    preparation diag(p, 1-p) and the qubit basis of angle theta (it does not
    depend on the azimuthal phase), (-1)^x2 · (1/8) sin 2θ sin 4θ · Re of an
    angle-independent bracket of four tensor entries; so it vanishes at the
    compatible angle 0 and at the unbiased angle π/4.  The one-angle form is
    a sweep over [theta].  Returns (thetas, deficits, argmax_theta); the
    argmax is taken on the absolute deficit.  The bracket is evaluated once
    per sweep, and the angles are one array expression.
    Maxima sit near (1/2) arctan sqrt(2) and its mirror whenever the
    time-dependent factor is nonzero.  ``thetas`` not a non-empty sequence
    raises ``ValidationError``; the angles, p in [0, 1], x2 in 0..1 and the times
    follow the argument rule of :mod:`dephaser.errors`, and t0 <= t1 <= t2 its order rule.
    """
    thetas = _sequence("theta_sweep", "thetas", thetas)  # a scalar would fail only after the bracket's propagators
    if thetas.size == 0:
        raise ValidationError("theta_sweep: need a sequence of one or more angles")
    p, t2, t1, t0 = (_real("theta_sweep", *arg) for arg in (("p", p, 0, 1), ("t2", t2), ("t1", t1), ("t0", t0)))
    _ordered("theta_sweep", "(t0, t1, t2)", t0, t1, t2)
    x2 = _integer("theta_sweep", "x2", x2, 0, 1)
    bracket = _qubit_two_time_bracket(provider, p, t2, t1, t0)
    deficits = ((-1) ** x2 * 0.125 * np.sin(2 * thetas) * np.sin(4 * thetas) * bracket).real
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
    ``SizeCapError`` before any propagator is computed.  ``horizon`` must
    exceed ``t0``; every argument follows the rule of :mod:`dephaser.errors`,
    checked before the grid is formed.
    """
    caller = "search_nonclassicality_witness"
    t0, horizon = _real(caller, "t0", t0), _real(caller, "horizon", horizon)
    if not horizon > t0:
        raise ValidationError(f"{caller}: horizon {horizon!r} must exceed t0 = {t0!r}")
    # checked before any arithmetic: a float count failed inside numpy, a negative one ran as 0 or failed there
    order = _integer(caller, "order", order, 2)
    position = _integer(caller, "position", position, 1, order - 1)
    points_per_interval = _integer(caller, "points_per_interval", points_per_interval, 1)
    random_draws, seed = _integer(caller, "random_draws", random_draws, 0), _integer(caller, "seed", seed, 0)
    threshold = _real(caller, "threshold", threshold)
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
        consider(sorted((t0 + (horizon - t0) * rng.random(order)).tolist()))

    if best is not None and best.deficit >= threshold:
        return best
    return None
