"""Multitime joint probability distributions for pure-dephasing systems.

Two independent routes are implemented:

* :func:`joint_distribution` propagates measured-basis branch states (the
  primary route; works for any provider).  A sharp outcome x collapses the
  system onto the range of P_x, so after it the state is E_x = V_x† S V_x, an
  r×r grid of D×D environment blocks on an orthonormal basis V_x of that range
  (r = 1 for a rank-one PVM).  Each interval plus the next measurement maps
  E_x -> V_y† Λ_dt(V_x E_x V_x†) V_y for every next outcome y, with every
  outcome prefix batched on leading axes; the first starts from ρ⊗ρ_E on the
  identity basis, and a probability is tr E.  All n durations go through one
  ``provider.exponentials`` call (one exponentiation per grid); the first
  interval's kernel and all later ones come from it, each interval but the
  last is one ``provider.apply``, and the last is read out: its
  ``provider.effects`` M_xy give tr E_xy = tr(E_x·M_xy) (:func:`_readout`)
  without building the last branch states.  Its fixed set-up is built once
  per object, not per call: the grid's durations once per :class:`TimeGrid`,
  the identity basis once per d (:func:`_identity`), the block stack once per
  model and the basis-pair coefficients once per measurement (see
  :mod:`dephaser.models`); the eigendecomposition, the U_j or φ and the root
  ρ⊗ρ_E are built per provider and call;
* :func:`oracle_distribution` simulates the global system-environment unitary
  directly and applies projections on the joint space, one outcome branch at
  a time (the brute-force cross-check; exact models only).

Outcome tuples (x_1, ..., x_n) are stored row-major with x_1 slowest, so CSV
output order is stable across runs and platforms.  The NCGD deficits read
the reduced maps Λ = diag(vec φ) in the measurement's channel basis Q as R×R
matrices G = Q†·Λ·Q (rank-one PVM: transition matrices), one provider read per chunk.

Numerical contract: tables agree with :func:`oracle_distribution` to
roundoff (the tests hold 1e-12).  Every matrix product of a provider's
stages and of :func:`_readout` has a fixed shape per batch row, so a row's
bits do not depend on the batch it is computed in, and reruns on one input
and machine are bitwise identical.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError, _capped, _integer, _ordered, _real, _sequence
from .linalg import DIM_CAP, check_density, hermitian_expm, kron
# dephasing_channel is unused here but stays bound: perfbench/tracing.py wraps this name
from .measurements import ProjectiveMeasurement, dephasing_channel  # noqa: F401
from .models import TERM_CAP, DephasingModel, DephasingTensorProvider, _max_per_entry

#: cap on the oracle's outcome branches m + m^2 + ... + m^n.  Each branch is a
#: kron and two joint-space products issued from Python, about 70 µs at
#: d·D <= 16 on a 2-core x86 box, so one cross-check stays under a second.
ORACLE_BRANCH_CAP = 10_000

#: identity bases kept by :func:`_identity`, one per d, the most recently used;
#: each holds d² entries, no more than the ρ⊗ρ_E that its caller builds beside it.
IDENTITY_CACHE = 8

#: least table entry accepted.  A computed probability is a trace of branch
#: states propagated in double precision, so a true zero comes out as roundoff
#: of either sign: over 41 classicality reports on random exact models (d = 2-4,
#: D = 1-4, times up to 20, orders 3-4) the most negative entry was -1.1e-17.
#: -1e-10 leaves seven orders of margin and stays far below any probability the
#: verdicts compare (``classicality.DEFAULT_TOL`` is 1e-9).
NEG_FLOOR = -1e-10
#: largest accepted |sum - 1| of a table.  The same reports' worst was 5.3e-15;
#: a table of TERM_CAP = 10^7 entries, summed pairwise, adds ~log2(10^7)·2^-53
#: ~ 3e-15 more.  A sum off by 1e-10 means a lost or doubled branch or a
#: non-trace-preserving model, not roundoff.
NORM_TOL = 1e-10


def _check_tables(tables: np.ndarray, where) -> None:
    """The one probability-table rule: entries >= ``NEG_FLOOR`` summing to 1 within
    ``NORM_TOL`` (a NaN entry fails both comparisons, ±inf one).  ``tables`` is one
    flat table or one per row; ``where(r)`` names the failing row r in the error.

    A row total is the pairwise sum ``np.add.reduce(..., axis=-1)``, and so is
    every total that :func:`_within_rule` reads, so the two agree bit for bit.
    Never take them by ``np.add.reduceat``: it sums in another order (numpy
    2.4: over 10^6 uniform entries its total is 5.8e-11 off the pairwise one,
    on a sum of 5·10^5; over 1000 rows of 1000, 477 totals differ in the last
    bits), so a total at the edge of ``NORM_TOL`` could pass one check and
    fail the other."""
    low, total = tables.min(axis=-1), tables.sum(axis=-1)
    good = (low >= NEG_FLOOR) & (abs(total - 1.0) <= NORM_TOL)
    # a flat table's comparisons are one np.bool_, read directly: .all() costs as much as a reduction
    if good if tables.ndim == 1 else good.all():
        return
    r = int(np.argmin(good))
    raise ValidationError(
        f"{where(r)} is not a probability table (min entry {np.atleast_1d(low)[r]:.3e}, sum "
        f"{float(np.atleast_1d(total)[r])}; need finite entries >= {NEG_FLOOR:g} summing to 1 within {NORM_TOL:g})"
    )


def _within_rule(entries: np.ndarray, totals: np.ndarray) -> bool:
    """The rule of :func:`_check_tables` over many tables at once: True iff
    every entry of ``entries`` is >= ``NEG_FLOOR`` and every row total in
    ``totals`` is within ``NORM_TOL`` of 1 (a NaN anywhere gives False).
    Rounding is monotone and symmetric, so max |t - 1| is max(max t - 1,
    1 - min t) to the bit: three reductions whatever the number of tables.
    The caller raises through :func:`_check_tables`, table by table, where
    this is False."""
    return bool(entries.min() >= NEG_FLOOR and totals.max() - 1.0 <= NORM_TOL and 1.0 - totals.min() <= NORM_TOL)


@dataclass(frozen=True)
class TimeGrid:
    """Preparation time plus the ordered measurement times.

    The n durations between them are computed once per grid and kept as a
    read-only float array beside the fields, which :func:`joint_distribution`
    hands to the provider; ``durations`` reads them as a tuple.  t0 and the times
    follow :mod:`dephaser.errors`; the times, one or more, must not decrease from t0.
    """

    t0: float
    times: tuple

    def __post_init__(self):
        t0, times = _real("TimeGrid", "t0", self.t0), tuple(_sequence("TimeGrid", "times", self.times).tolist())
        if not times:
            raise ValidationError("TimeGrid: need one or more times")
        bounds = np.array((t0,) + times)
        earlier, later = _ordered("TimeGrid", "(t0, times)", bounds[:-1], bounds[1:])
        durations = later - earlier  # bitwise np.diff
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "t0", t0)
        # not a field, so equality, hashing and repr read t0 and times only
        durations.flags.writeable = False
        object.__setattr__(self, "_durations", durations)

    @property
    def n(self) -> int:
        return len(self.times)

    @property
    def durations(self) -> tuple:
        return tuple(self._durations.tolist())

    def drop(self, position: int) -> "TimeGrid":
        """Grid with the measurement at 1-based ``position`` removed."""
        position = _integer("TimeGrid.drop", "position", position, 1, self.n)
        return TimeGrid(self.t0, self.times[: position - 1] + self.times[position:])


@dataclass(frozen=True)
class SystemPreparation:
    """Initial system state, a validated density matrix stored as a read-only copy."""

    density: np.ndarray

    def __post_init__(self):
        density = np.array(check_density(self.density, "SystemPreparation"))
        density.flags.writeable = False
        object.__setattr__(self, "density", density)

    @classmethod
    def diagonal(cls, weights) -> "SystemPreparation":
        return cls(np.diag(_sequence("SystemPreparation.diagonal", "weights", weights)).astype(complex))

    @classmethod
    def maximally_mixed(cls, d: int) -> "SystemPreparation":
        d = _integer("SystemPreparation.maximally_mixed", "d", d, 1)
        return cls(np.eye(d, dtype=complex) / d)

    @classmethod
    def pure(cls, vector) -> "SystemPreparation":
        v = np.asarray(vector, dtype=complex)
        with np.errstate(over="ignore"):
            nrm = np.linalg.norm(v)
        if not 0 < nrm < np.inf:
            raise ValidationError(f"SystemPreparation.pure: vector norm {nrm} is zero or past the double range")
        v = v / nrm
        return cls(np.outer(v, v.conj()))

    @property
    def d(self) -> int:
        return self.density.shape[0]


@dataclass(frozen=True)
class JointDistribution:
    """n-time joint probability table over outcome tuples at fixed times."""

    n_outcomes: int
    grid: TimeGrid
    table: np.ndarray  # flat, length n_outcomes**n, x_1 slowest

    def __post_init__(self):
        object.__setattr__(self, "n_outcomes", _integer("JointDistribution", "n_outcomes", self.n_outcomes, 1))
        t = np.asarray(self.table, dtype=float).reshape(-1)
        if t.size != self.n_outcomes ** self.grid.n:
            raise ShapeError(f"JointDistribution: table size {t.size} != {self.n_outcomes}^{self.grid.n}")
        _check_tables(t, lambda r: "JointDistribution: table")
        object.__setattr__(self, "table", t)

    @property
    def n(self) -> int:
        return self.grid.n

    def as_array(self) -> np.ndarray:
        """Table reshaped to one axis per measurement, x_1 first."""
        return self.table.reshape((self.n_outcomes,) * self.n)

    def clipped(self) -> np.ndarray:
        """Presentation copy with roundoff negatives clipped to zero."""
        return np.clip(self.table, 0.0, None)

    def marginalize(self, position: int) -> "JointDistribution":
        """Sum out the outcome at 1-based ``position``; drops its time too."""
        grid = self.grid.drop(position)  # validates position before the sum reads it as an axis
        return JointDistribution(self.n_outcomes, grid, self.as_array().sum(axis=position - 1).reshape(-1))


def _build_global_hamiltonian(model: DephasingModel) -> np.ndarray:
    d, big_d = model.d, model.env_dim
    h = np.zeros((d * big_d, d * big_d), dtype=complex)
    for j in range(d):
        e = np.zeros((d, d))
        e[j, j] = 1.0
        h += kron(e, model.blocks[j])
    return h


def _root(provider: DephasingTensorProvider, prep: SystemPreparation, measurement: ProjectiveMeasurement, caller: str):
    """The state ρ⊗ρ_E before the first interval, as the one branch (1, d·D, d·D)
    of the identity basis (1, d, d), and that basis (:func:`_identity`, shared)."""
    d = provider.d
    if prep.d != d or measurement.d != d:
        raise ShapeError(f"{caller}: dimension mismatch (provider d={d}, prep {prep.d}, measurement {measurement.d})")
    env = provider.env
    root = (prep.density[:, None, :, None] * env[None, :, None, :]).reshape(1, d * len(env), d * len(env))
    return root, _identity(d)


@functools.lru_cache(maxsize=IDENTITY_CACHE)
def _identity(d: int) -> np.ndarray:
    """The identity basis (1, d, d), read-only: one array per d, shared by every call."""
    identity = np.eye(d, dtype=complex)[None]
    identity.flags.writeable = False
    return identity


def _probabilities(state: np.ndarray) -> np.ndarray:
    """tr E of every branch state (..., n, n), real part.

    The trace as an entrywise sum of the n diagonal slices: for small states
    far cheaper than numpy's trace, a reduction that pays per output entry.
    """
    return sum((state[..., a, a] for a in range(1, state.shape[-1])), state[..., 0, 0]).real


def _readout(state: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """p[..., x, y] = tr(E_x·M_xy) = Σ_ab E_x[a, b]·M_xy[b, a], real part.

    ``state`` is (..., m_s, n, n) and ``effects`` (..., m_s, m_t, n, n), as
    :meth:`~dephaser.models.DephasingTensorProvider.effects` gives them, one
    per row or broadcast.  One (m_t × n²) by n² product per (row, x), of a
    fixed shape whatever the batch; its one temporary, the transposed E, is
    the size of ``state``.
    """
    flat = state.swapaxes(-1, -2).reshape(state.shape[:-2] + (-1, 1))
    return (effects.reshape(effects.shape[:-2] + (-1,)) @ flat)[..., 0].real


def _state_entries(shape: tuple, big: int, n: int) -> int:
    """Entries of the largest array held to read out an n-time table, whose
    last interval builds no branch state, for a PVM of ``bases.shape`` (m, d, r),
    r its largest rank, and D² = ``big`` (``provider.env.size``): ρ⊗ρ_E
    (d²·D²), the first interval's K·E (m·r·d·D²), the branch states after
    n − 1 measurements (m^(n-1)·r²·D²) or the m^n table.  m^k with
    k >= TERM_CAP.bit_length() exceeds the cap for every m >= 2 (and is 1 for
    m = 1), so the exponent is clipped there."""
    m, d, r = shape
    k = min(n, TERM_CAP.bit_length())
    return max(d * d * big, m * r * d * big, m ** (k - 1) * r * r * big, m**k)


def _joint_size(provider: DephasingTensorProvider, measurement: ProjectiveMeasurement, n: int) -> None:
    """The size estimate of :func:`joint_distribution`: :func:`_state_entries` within ``TERM_CAP``."""
    entries = _state_entries(measurement.bases.shape, provider.env.size, n)
    _capped("joint_distribution", "entries in its largest array", entries, TERM_CAP)


def joint_distribution(
    provider: DephasingTensorProvider,
    prep: SystemPreparation,
    measurement: ProjectiveMeasurement,
    grid: TimeGrid,
) -> JointDistribution:
    """n-time statistics by propagation of measured-basis branch states.

    The state E[x_1, ..., x_k, (α, a), (β, b)] holds every outcome prefix on
    its leading axes and, per prefix, the r×r grid of D×D blocks on the basis
    of its last outcome; it starts as ρ⊗ρ_E on the identity basis.  One
    ``provider.exponentials`` call takes all n durations; the kernels of the
    first interval (from the identity basis) and of all later ones (between
    outcome bases) are built from it before the first state moves.  Each
    interval but the last, with the measurement that ends it, is one
    ``provider.apply`` onto a new outcome axis; the table is read out of the
    states before the last interval by the effects of its kernel (for n = 1,
    of the root by the first kernel's).
    ``TERM_CAP`` bounds the entries of the largest array held (see
    :func:`_joint_size`), checked before any propagator is computed.
    """
    root, identity = _root(provider, prep, measurement, "joint_distribution")
    bases = measurement.bases
    _joint_size(provider, measurement, grid.n)

    # one exponentiation of all n durations; the first interval leaves the
    # identity basis, the later ones join outcome bases
    exponentials = provider.exponentials(grid._durations)
    state, source, kernel = root, identity, provider.kernels(exponentials[0], identity, bases)
    if grid.n > 1:
        later = provider.kernels(exponentials[1:], bases, bases)
        state = provider.apply(root, kernel, identity, bases)[0]
        for k in later[:-1]:
            state = provider.apply(state, k, bases, bases)
        source, kernel = bases, later[-1]
    table = _readout(state, provider.effects(kernel, source, bases))
    return JointDistribution(len(bases), grid, table.reshape(-1))


def _oracle_size(model: DephasingModel, measurement: ProjectiveMeasurement, n: int) -> None:
    """The size estimate of :func:`oracle_distribution`, no propagator needed: ``DIM_CAP`` on d·D, then
    ``ORACLE_BRANCH_CAP`` on m + m² + ... + m^n, summed term by term and stopped once past the cap."""
    _capped("oracle_distribution", "rows of the joint space", model.d * model.env_dim, DIM_CAP)
    branches = itertools.accumulate(measurement.n_outcomes**k for k in range(1, n + 1))
    _capped("oracle_distribution", "outcome branches", branches, ORACLE_BRANCH_CAP)


def oracle_distribution(
    model: DephasingModel,
    prep: SystemPreparation,
    measurement: ProjectiveMeasurement,
    grid: TimeGrid,
) -> JointDistribution:
    """Brute-force statistics from the global unitary on the joint space.

    Independent of the branch-state propagation; used to cross-check
    :func:`joint_distribution` for exact models.
    """
    _oracle_size(model, measurement, grid.n)
    d, big_d, m, n = model.d, model.env_dim, measurement.n_outcomes, grid.n
    if prep.d != d or measurement.d != d:
        raise ShapeError("oracle_distribution: dimension mismatch")

    h_global = _build_global_hamiltonian(model)
    props = [hermitian_expm(h_global, dt) for dt in grid.durations]
    eye_b = np.eye(big_d)
    lifted = [kron(measurement.projector(x), eye_b) for x in range(m)]
    table = np.zeros((m,) * n)

    def branch(k: int, state: np.ndarray, idx: tuple) -> None:
        u = props[k]
        evolved = u @ state @ u.conj().T
        for xk, p in enumerate(lifted):
            projected = p @ evolved @ p
            if k == n - 1:
                table[idx + (xk,)] = np.trace(projected).real
            else:
                branch(k + 1, projected, idx + (xk,))

    branch(0, kron(prep.density, model.env_state), ())
    return JointDistribution(m, grid, table.reshape(-1))


def _transitions(provider, measurement: ProjectiveMeasurement, t, s, caller: str) -> tuple:
    """(a, G, Q): the reduced maps Λ = diag(a), a = vec φ(t - s) of shape (..., d²), as
    G = Q†·Λ·Q (..., R, R) in the measurement's channel basis Q; for a rank-one
    PVM, G_xy = tr(P_x Λ(P_y)) is the transition matrix between outcomes."""
    if measurement.d != provider.d:
        raise ShapeError(f"{caller}: dimension mismatch (provider d={provider.d}, measurement {measurement.d})")
    q, phi = measurement.channel_basis, provider.dephasings(t - s)  # t and s checked by the caller
    a = phi.swapaxes(-1, -2).reshape(phi.shape[:-2] + (-1,))
    return a, (q.conj().T * a[..., None, :]) @ q, q


def sandwich_identity_deficit(provider: DephasingTensorProvider, measurement: ProjectiveMeasurement, t, s):
    """Max-norm of Δ∘Λ_{t,s}∘Δ − Λ_{t,s}∘Δ for the measurement's dephasing channel
    Δ = Q·Q†, as max|(Q·G − Λ·Q)·Q†|: a float for scalar times, an array for arrays
    that broadcast together, one read per chunk."""

    def lifted(s, t):
        a, g, q = _transitions(provider, measurement, t, s, "sandwich_identity_deficit")
        return (q @ g - a[..., None] * q) @ q.conj().T

    return _max_per_entry(lifted, (s, t), provider, 1, provider.d**4, "sandwich_identity_deficit")


def ncgd_deficit(provider: DephasingTensorProvider, measurement: ProjectiveMeasurement, t1, t2, t3):
    """Max-norm of Δ∘Λ_{32}∘Δ∘Λ_{21}∘Δ − Δ∘Λ_{31}∘Δ on time triples, as
    max|Q·(G₃₂·G₂₁ − G₃₁)·Q†|: for a rank-one PVM, a Chapman–Kolmogorov test on
    the m×m transition matrices.  Zero (within tolerance) certifies the
    non-coherence-generating-and-detecting property of the reduced maps with
    respect to the measurement.  A float for scalar times, an array for arrays
    that broadcast together; a chunk's three pairs per triple are one stacked read."""

    def lifted(t1, t2, t3):
        later, earlier = np.stack((t3, t2, t3)), np.stack((t2, t1, t1))  # a triple's three pairs in one read
        _, (g32, g21, g31), q = _transitions(provider, measurement, later, earlier, "ncgd_deficit")
        return q @ (g32 @ g21 - g31) @ q.conj().T

    return _max_per_entry(lifted, (t1, t2, t3), provider, 3, provider.d**4, "ncgd_deficit")
