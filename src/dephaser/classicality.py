"""Kolmogorov consistency deficits and classicality reports.

A process is N-classical when marginalizing any interior outcome of an n-time
distribution (n <= N) reproduces the (n-1)-time distribution on the reduced
grid.  Marginalizing the *last* outcome always works (trace preservation), so
only interior positions 1..n-1 are tested.  Verdicts are always relative to a
declared finite grid pool.

:func:`classicality_report` walks the non-decreasing time tuples of the pool
as a prefix trie on the block-propagation kernel of
:func:`~dephaser.statistics.joint_distribution` (the same step, measurement
map and readout), so each distinct grid is propagated once and every prefix
is shared by all tuples that extend it.  The trie is walked one level at a
time: all tuples of one order are a batch on a leading axis, advanced by one
``step`` over an array of durations and one readout, and the deficits of
one (order, position) are one array reduction.  A level too large for the
memory budget runs in chunks, depth-first.  The kernel's products have a
fixed shape per batch row, so a tuple's table does not depend on the batch
or chunk it is computed in; records agree with the per-tuple computation
(:func:`joint_distribution` and :func:`kolmogorov_deficit` tuple by tuple)
to roundoff.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, SizeCapError, ValidationError
from .measurements import ProjectiveMeasurement
from .models import TERM_CAP, DephasingTensorProvider
from .statistics import (
    NEG_FLOOR,
    NORM_TOL,
    JointDistribution,
    SystemPreparation,
    TimeGrid,
    _initial_state,
    _measure,
    _readout,
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


@dataclass(frozen=True)
class ClassicalityReport:
    """Per-order, per-position consistency deficits with tolerance verdicts."""

    max_order_tested: int
    tolerance: float
    t0: float
    pool: tuple
    records: tuple = field(default_factory=tuple)
    note: str = "order 1 is normalization only and recorded as trivially satisfied"

    def deficits_up_to(self, order: int):
        return [r for r in self.records if r.order <= order]

    def verdict(self, order: int) -> bool:
        """True iff every deficit at orders <= ``order`` is within tolerance."""
        if not (1 <= order <= self.max_order_tested):
            raise ValidationError(f"verdict: order {order} outside 1..{self.max_order_tested}")
        return all(r.deficit <= self.tolerance for r in self.deficits_up_to(order))

    @property
    def max_deficit(self) -> float:
        return max((r.deficit for r in self.records), default=0.0)

    def to_dict(self) -> dict:
        return {
            "max_order_tested": self.max_order_tested,
            "tolerance": self.tolerance,
            "t0": self.t0,
            "grid_pool": list(self.pool),
            "note": self.note,
            "records": [
                {"order": r.order, "position": r.position, "times": list(r.times), "deficit": r.deficit}
                for r in self.records
            ],
            "verdicts": {str(n): self.verdict(n) for n in range(1, self.max_order_tested + 1)},
        }


def _check_tables(rows: np.ndarray, tuples: np.ndarray, pool: tuple, what: str) -> None:
    """The checks of :class:`JointDistribution`, one probability table per row."""
    total = rows.sum(axis=1)
    # a NaN or infinite entry makes its row's sum non-finite
    bad = ~np.isfinite(total) | (rows.min(axis=1) < NEG_FLOOR) | (np.abs(total - 1.0) > NORM_TOL)
    if bad.any():
        r = int(np.argmax(bad))
        raise ValidationError(
            f"classicality_report: {what} at times {tuple(pool[i] for i in tuples[r])} is not a probability "
            f"table (min entry {rows[r].min():.3e}, sum {float(total[r])}; need finite entries >= {NEG_FLOOR:g} "
            f"summing to 1 within {NORM_TOL:g})"
        )


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
    and level n+1 comes from level n by one measurement map, one gather of
    each child's parent state, one ``provider.step`` over the array of
    durations s_{n+1} - s_n, and one readout.  Each distinct grid is thus
    propagated once.  The deficits of one (order, position) are one
    reduction: the order-n tables summed over that outcome axis, minus the
    coarse tables gathered by rank, max |·| per tuple.  Every table and every
    marginal gets the checks of :class:`JointDistribution` (finite entries
    >= ``NEG_FLOOR``, sum within ``NORM_TOL`` of 1).

    The largest single-node state, m^(max_order-1)·d²·D² entries, and the
    stored tables, Σ_n C(p+n-1, n)·m^n entries for a pool of p times, are
    both checked against ``TERM_CAP`` before any propagator is computed.
    Each level in flight holds at most ``TERM_CAP // max_order`` state
    entries: a level that would hold more runs in chunks of children,
    depth-first, with a chunk of one node where a single node is larger.
    """
    if max_order < 2:
        raise ValidationError(f"classicality_report: max_order must be >= 2, got {max_order}")
    pool = tuple(sorted({float(t) for t in pool}))
    if not pool:
        raise ValidationError("classicality_report: empty grid pool")
    if pool[0] < t0:
        raise ValidationError(f"classicality_report: pool starts before t0 = {t0}")

    root, pstack = _initial_state(provider, prep, measurement, "classicality_report")
    m, p = len(pstack), len(pool)
    # m^k with k >= TERM_CAP.bit_length() exceeds the cap for every m >= 2
    # (and is 1 for m = 1), so the exponent is clipped there
    entries = m ** min(max_order - 1, TERM_CAP.bit_length()) * root.size
    stored = 0
    for n in range(1, max_order + 1):
        stored += math.comb(p + n - 1, n) * m**n
        if stored > TERM_CAP:
            break
    if max(entries, stored) > TERM_CAP:
        raise SizeCapError(
            f"classicality_report: largest state of {m}^{max_order - 1}·{root.size} entries or at least "
            f"{stored} stored table entries exceed cap {TERM_CAP}"
        )

    # Level n: tuples[n] holds the pool indices of the order-n tuples, one
    # row each; the children of row r are rows first[n][r]:first[n][r + 1]
    # of level n+1 (one per pool index >= the row's last), and parent[n + 1]
    # maps them back.  Level 0 is the empty tuple, the root.
    tuples, parent, first = {0: np.zeros((1, 0), dtype=np.intp)}, {}, {}
    for n in range(max_order):
        last = tuples[n][:, -1] if n else np.zeros(1, dtype=np.intp)
        counts = p - last
        first[n] = np.concatenate(([0], np.cumsum(counts)))
        parent[n + 1] = np.repeat(np.arange(len(counts)), counts)
        child = last[parent[n + 1]] + np.arange(first[n][-1]) - first[n][:-1][parent[n + 1]]
        tuples[n + 1] = np.column_stack((tuples[n][parent[n + 1]], child))
    times = np.array(pool)
    tables = {n: np.empty((len(tuples[n]), m**n)) for n in range(1, max_order + 1)}

    # Depth-first over chunks with an explicit stack of (level, first row,
    # end row, measured states of the parent block, its first row).  A
    # level's chunk holds at most `budget` entries of its largest state (the
    # measured one, or at the last level the stepped one).
    budget = TERM_CAP // max_order
    chunk = {n: max(1, budget // (m ** min(n, max_order - 1) * root.size)) for n in range(1, max_order + 1)}
    stack = [(1, lo, min(lo + chunk[1], p), root[None], 0) for lo in reversed(range(0, p, chunk[1]))]
    while stack:
        n, lo, hi, block, block_row = stack.pop()
        rows = tuples[n][lo:hi]
        start = times[rows[:, -2]] if n > 1 else t0
        dt = (times[rows[:, -1]] - start).reshape((-1,) + (1,) * (n - 1))
        state = provider.step(block[parent[n][lo:hi] - block_row], dt)
        tables[n][lo:hi] = _readout(state, pstack).reshape(hi - lo, -1)
        if n < max_order:
            state = _measure(state, pstack)
            c0, c1 = first[n][lo], first[n][hi]
            stack.extend(
                (n + 1, a, min(a + chunk[n + 1], c1), state, lo) for a in reversed(range(c0, c1, chunk[n + 1]))
            )
        del state  # free before the next chunk's step allocates

    for n in range(1, max_order + 1):
        _check_tables(tables[n], tuples[n], pool, "table")

    # rank of a non-decreasing index tuple (a_1..a_k) among the order-k rows:
    # b_i = a_i + i - 1 is a k-combination of range(p + k - 1), ranked
    # lexicographically as C(p+k-1, k) - 1 - Σ_i C(p+k-2-b_i, k+1-i)
    binom = np.array([[math.comb(a, b) for b in range(max_order + 1)] for a in range(p + max_order)])
    deficits = {}
    for n in range(2, max_order + 1):
        fine = tables[n].reshape((-1,) + (m,) * n)
        columns = []
        for position in range(1, n):
            coarse = np.delete(tuples[n], position - 1, axis=1) + np.arange(n - 1)
            rank = math.comb(p + n - 2, n - 1) - 1 - binom[p + n - 3 - coarse, np.arange(n - 1, 0, -1)].sum(axis=1)
            reduced = fine.sum(axis=position).reshape(len(fine), -1)
            _check_tables(reduced, tuples[n], pool, f"marginal at position {position} of the table")
            columns.append(np.abs(reduced - tables[n - 1][rank]).max(axis=1))
        deficits[n] = np.column_stack(columns).tolist()

    records = [
        DeficitRecord(n, position, sel, deficit)
        for n in range(2, max_order + 1)
        for sel, row in zip(itertools.combinations_with_replacement(pool, n), deficits[n])
        for position, deficit in enumerate(row, 1)
    ]
    return ClassicalityReport(max_order, tol, t0, pool, tuple(records))


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


def _qubit_two_time_deficit(bracket: complex, theta: float, x2: int) -> float:
    """The closed-form 2-time qubit deficit at angle ``theta`` from its bracket."""
    return float(((-1) ** x2 * 0.125 * np.sin(2 * theta) * np.sin(4 * theta) * bracket).real)


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
    return _qubit_two_time_deficit(_qubit_two_time_bracket(provider, p, t2, t1, t0), theta, x2)


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
    evaluated once per sweep.  Maxima sit near (1/2) arctan sqrt(2) and its mirror
    whenever the time-dependent factor is nonzero.
    """
    thetas = np.asarray(list(thetas), dtype=float)
    bracket = _qubit_two_time_bracket(provider, p, t2, t1, t0)
    deficits = np.array([_qubit_two_time_deficit(bracket, th, x2) for th in thetas])
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
    """
    grid = np.linspace(t0, horizon, points_per_interval * (order - 1) + 1)[1:]
    best = None

    def consider(times):
        nonlocal best
        fine = joint_distribution(provider, prep, measurement, TimeGrid(t0, tuple(times)))
        coarse = joint_distribution(
            provider, prep, measurement, TimeGrid(t0, tuple(times[: position - 1] + times[position:]))
        )
        deficit = kolmogorov_deficit(fine, coarse, position)
        if best is None or deficit > best.deficit:
            best = DeficitRecord(order, position, tuple(times), deficit)

    for sel in itertools.combinations([float(t) for t in grid], order):
        consider(list(sel))
    rng = np.random.default_rng(seed)
    for _ in range(random_draws):
        consider(sorted(t0 + (horizon - t0) * rng.random(order)))

    if best is not None and best.deficit >= threshold:
        return best
    return None
