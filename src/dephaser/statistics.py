"""Multitime joint probability distributions for pure-dephasing systems.

Two independent routes are implemented:

* :func:`joint_distribution` propagates the system+environment state as a d×d
  grid of D×D environment blocks, with every outcome prefix batched on leading
  axes (the primary route; works for any provider).  Each measurement is two
  matrix products per batch row with the stacked projectors, and the readout
  an environment trace and one product per row;
* :func:`oracle_distribution` simulates the global system-environment unitary
  directly and applies projections on the joint space, one outcome branch at
  a time (the brute-force cross-check; exact models only).

Outcome tuples (x_1, ..., x_n) are stored row-major with x_1 slowest, so CSV
output order is stable across runs and platforms.

Numerical contract: tables agree with :func:`oracle_distribution` to
roundoff (the tests hold 1e-12).  Every matrix product of the kernels has a
fixed shape per batch row, so a row's bits do not depend on the batch it is
computed in, and reruns on one input and machine are bitwise identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NullEventError, ShapeError, SizeCapError, TimeOrderError, ValidationError
from .linalg import DIM_CAP, Superoperator, check_density, hermitian_expm, kron
from .measurements import ProjectiveMeasurement, dephasing_channel
from .models import TERM_CAP, DephasingModel, DephasingTable, DephasingTensorProvider

#: cap on the oracle's outcome branches m + m^2 + ... + m^n.  Each branch is a
#: kron and two joint-space products issued from Python, about 70 µs at
#: d·D <= 16 on a 2-core x86 box, so one cross-check stays under a second.
ORACLE_BRANCH_CAP = 10_000

NEG_FLOOR = -1e-10
NORM_TOL = 1e-10
NULL_EVENT_FLOOR = 1e-14


@dataclass(frozen=True)
class TimeGrid:
    """Preparation time plus the ordered measurement times."""

    t0: float
    times: tuple

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if not times:
            raise ValidationError("TimeGrid: need at least one measurement time")
        if times[0] < self.t0 or any(a > b for a, b in zip(times, times[1:])):
            raise TimeOrderError(f"TimeGrid: times {times} not non-decreasing from t0 = {self.t0}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "t0", float(self.t0))

    @property
    def n(self) -> int:
        return len(self.times)

    @property
    def durations(self) -> tuple:
        full = (self.t0,) + self.times
        return tuple(b - a for a, b in zip(full, full[1:]))

    def drop(self, position: int) -> "TimeGrid":
        """Grid with the measurement at 1-based ``position`` removed."""
        if not (1 <= position <= self.n):
            raise ValidationError(f"TimeGrid.drop: position {position} out of range 1..{self.n}")
        return TimeGrid(self.t0, self.times[: position - 1] + self.times[position:])


@dataclass(frozen=True)
class SystemPreparation:
    """Initial system state with a tag recording how it was built."""

    density: np.ndarray
    tag: str = "explicit"

    def __post_init__(self):
        rho = check_density(self.density, "preparation")
        if self.tag == "diagonal":
            off = rho - np.diag(np.diag(rho))
            if np.max(np.abs(off)) > 1e-14:
                raise ValidationError("SystemPreparation: tag 'diagonal' but off-diagonal entries present")
        object.__setattr__(self, "density", rho)

    @classmethod
    def diagonal(cls, weights) -> "SystemPreparation":
        w = np.asarray(weights, dtype=float)
        return cls(np.diag(w).astype(complex), "diagonal")

    @classmethod
    def maximally_mixed(cls, d: int) -> "SystemPreparation":
        return cls(np.eye(d, dtype=complex) / d, "maximally-mixed")

    @classmethod
    def pure(cls, vector) -> "SystemPreparation":
        v = np.asarray(vector, dtype=complex)
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise ValidationError("SystemPreparation.pure: zero vector")
        v = v / nrm
        return cls(np.outer(v, v.conj()), "pure")

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
        t = np.asarray(self.table, dtype=float)
        if t.size != self.n_outcomes ** self.grid.n:
            raise ShapeError(
                f"JointDistribution: table size {t.size} != {self.n_outcomes}^{self.grid.n}"
            )
        total = t.sum()
        # a NaN or infinite entry makes the sum non-finite (and fails no comparison)
        if not math.isfinite(total):
            raise ValidationError(f"JointDistribution: table sums to {float(total)}; entries must be finite")
        if t.min() < NEG_FLOOR:
            raise ValidationError(f"JointDistribution: entry {t.min():.3e} below floor {NEG_FLOOR:g}")
        if abs(total - 1.0) > NORM_TOL:
            raise ValidationError(f"JointDistribution: table sums to {total!r}, expected 1 within {NORM_TOL:g}")
        object.__setattr__(self, "table", t.reshape(-1))

    @property
    def n(self) -> int:
        return self.grid.n

    def as_array(self) -> np.ndarray:
        """Table reshaped to one axis per measurement, x_1 first."""
        return self.table.reshape((self.n_outcomes,) * self.n)

    def prob(self, outcomes) -> float:
        return float(self.as_array()[tuple(outcomes)])

    def clipped(self) -> np.ndarray:
        """Presentation copy with roundoff negatives clipped to zero."""
        return np.clip(self.table, 0.0, None)

    def marginalize(self, position: int) -> "JointDistribution":
        """Sum out the outcome at 1-based ``position``; drops its time too."""
        arr = self.as_array().sum(axis=position - 1)
        return JointDistribution(self.n_outcomes, self.grid.drop(position), arr.reshape(-1))


def _build_global_hamiltonian(model: DephasingModel) -> np.ndarray:
    d, big_d = model.d, model.env_dim
    h = np.zeros((d * big_d, d * big_d), dtype=complex)
    for j in range(d):
        e = np.zeros((d, d))
        e[j, j] = 1.0
        h += kron(e, model.blocks[j])
    return h


def _initial_state(
    provider: DephasingTensorProvider, prep: SystemPreparation, measurement: ProjectiveMeasurement, caller: str
):
    """The state rho[j, l]·env before the first interval, and the projector stack P[x, row, col]."""
    d = provider.d
    if prep.d != d or measurement.d != d:
        raise ShapeError(
            f"{caller}: dimension mismatch (provider d={d}, prep {prep.d}, measurement {measurement.d})"
        )
    pstack = np.stack([measurement.projector(x) for x in range(measurement.n_outcomes)])
    return prep.density[:, :, None, None] * provider.env, pstack


def _measure(state: np.ndarray, pstack: np.ndarray) -> np.ndarray:
    """S -> P_x S P_x, with the outcome x on a new axis just before (j, l, a, b).

    Two matrix products per batch row, each of a fixed shape whatever the
    batch, so a row's bits do not depend on the rows around it: the stacked
    P_x^T, an (m·d)×d matrix, times the row's l axis, then per outcome P_x
    times the j axis.  m·d³·D² operations and no matrix larger than the stack.
    """
    m, d, big_d = len(pstack), state.shape[-4], state.shape[-2]
    # right[n, (x, k), (j, a, b)] = Σ_l P_x[l, k] S[n, j, l, a, b] = (S P_x)[j, k]; a
    # state fresh from an exact step already has l leading, so this makes no copy
    rows = state.swapaxes(-4, -3).reshape(-1, d, d * big_d * big_d)
    right = pstack.swapaxes(1, 2).reshape(m * d, d) @ rows
    # out[n, x, i, (k, a, b)] = Σ_j P_x[i, j] (S P_x)[j, k]
    right = right.reshape(-1, m, d, d, big_d * big_d).swapaxes(-3, -2).reshape(-1, m, d, d * big_d * big_d)
    return (pstack @ right).reshape(state.shape[:-4] + (m, d, d, big_d, big_d))


def _readout(state: np.ndarray, pstack: np.ndarray) -> np.ndarray:
    """table[..., x] = Σ_jl P_x[l, j] tr_env S[..., j, l] (real part).

    The environment trace as an entrywise sum of the D diagonal slices (for
    small D far cheaper than numpy's trace, a reduction that pays per output
    entry), then one (1×d²)@(d²×m) product per batch row.
    """
    m, d = len(pstack), state.shape[-4]
    traced = sum((state[..., a, a] for a in range(1, state.shape[-1])), state[..., 0, 0])
    table = traced.reshape(-1, 1, d * d) @ pstack.transpose(2, 1, 0).reshape(d * d, m)
    return table.real.reshape(state.shape[:-4] + (m,))


def joint_distribution(
    provider: DephasingTensorProvider,
    prep: SystemPreparation,
    measurement: ProjectiveMeasurement,
    grid: TimeGrid,
    term_cap: int = TERM_CAP,
) -> JointDistribution:
    """n-time statistics by block propagation of the system+environment state.

    The state S[x_1, ..., x_k, j, l, a, b] holds every outcome prefix on its
    leading axes and a d×d grid of D×D environment blocks; it starts as
    rho[j, l]·env.  Each interval applies ``provider.step``, each interior
    measurement maps S -> P_x S P_x onto a new outcome axis, and the last
    interval ends in table[..., x] = Σ_jl P_x[l, j] tr_env S[..., j, l].
    ``term_cap`` bounds the entries of the largest state, m^(n-1)·d²·D².
    """
    state, pstack = _initial_state(provider, prep, measurement, "joint_distribution")
    m = len(pstack)
    entries = m ** (grid.n - 1) * state.size
    if entries > term_cap:
        raise SizeCapError(f"joint_distribution: propagated state of {entries} entries exceeds cap {term_cap}")

    for dt in grid.durations[:-1]:
        state = _measure(provider.step(state, dt), pstack)
    table = _readout(provider.step(state, grid.durations[-1]), pstack)
    return JointDistribution(m, grid, table.reshape(-1))


def oracle_distribution(
    model: DephasingModel,
    prep: SystemPreparation,
    measurement: ProjectiveMeasurement,
    grid: TimeGrid,
) -> JointDistribution:
    """Brute-force statistics from the global unitary on the joint space.

    Independent of the block propagation; used to cross-check
    :func:`joint_distribution` for exact models.
    """
    d, big_d = model.d, model.env_dim
    if d * big_d > DIM_CAP:
        raise SizeCapError(f"oracle_distribution: joint dimension {d * big_d} exceeds cap {DIM_CAP}")
    if prep.d != d or measurement.d != d:
        raise ShapeError("oracle_distribution: dimension mismatch")
    m = measurement.n_outcomes
    n = grid.n
    branches = sum(m**k for k in range(1, n + 1))
    if branches > ORACLE_BRANCH_CAP:
        raise SizeCapError(f"oracle_distribution: {branches} outcome branches exceed cap {ORACLE_BRANCH_CAP}")

    h_global = _build_global_hamiltonian(model)
    props = [hermitian_expm(h_global, dt) for dt in grid.durations]
    eye_b = np.eye(big_d)
    table = np.zeros((m,) * n)

    def branch(k: int, state: np.ndarray, idx: tuple) -> None:
        u = props[k]
        evolved = u @ state @ u.conj().T
        for xk in range(m):
            p = kron(measurement.projector(xk), eye_b)
            projected = p @ evolved @ p
            if k == n - 1:
                table[idx + (xk,)] = np.trace(projected).real
            else:
                branch(k + 1, projected, idx + (xk,))

    branch(0, kron(prep.density, model.env_state), ())
    return JointDistribution(m, grid, table.reshape(-1))


def reduced_map(provider: DephasingTensorProvider | DephasingTable, t: float, s: float) -> Superoperator:
    """Reduced dynamical map: coherence (j, l) multiplied by φ_{jl}(t, s).

    With rank-one dephasing projectors on the computational basis, the
    column-stacking superoperator is diagonal with entry φ[j, l] at vec index
    l·d + j.  ``provider`` may be a :class:`~dephaser.models.DephasingTable`
    holding the pair (s, t).
    """
    return Superoperator(provider.d, _reduced_matrix(provider, t, s))


def _reduced_matrix(provider, t: float, s: float) -> np.ndarray:
    """The matrix of :func:`reduced_map`."""
    return np.diag(provider.dephasing_matrix(t, s).T.reshape(-1))


def _channel_matrix(provider, measurement: ProjectiveMeasurement, caller: str) -> np.ndarray:
    """The matrix of the measurement's dephasing channel, checked against the provider's d.

    The deficits compose plain matrices, in the order of
    :meth:`Superoperator.compose` (so with its bits), without validating each
    intermediate product: every factor is finite where it is built (φ by
    ``step``, the channel from the validated PVM).
    """
    if measurement.d != provider.d:
        raise ShapeError(f"{caller}: dimension mismatch (provider d={provider.d}, measurement {measurement.d})")
    return dephasing_channel(measurement).matrix


def sandwich_identity_deficit(
    provider: DephasingTensorProvider | DephasingTable, measurement: ProjectiveMeasurement, t: float, s: float
) -> float:
    """Max-norm of Δ∘Λ_{t,s}∘Δ − Λ_{t,s}∘Δ for the measurement's dephasing channel.

    ``provider`` may be a :class:`~dephaser.models.DephasingTable` holding the pair (s, t).
    """
    delta = _channel_matrix(provider, measurement, "sandwich_identity_deficit")
    lam = _reduced_matrix(provider, t, s)
    return float(np.max(np.abs(delta @ lam @ delta - lam @ delta)))


def ncgd_deficit(
    provider: DephasingTensorProvider | DephasingTable,
    measurement: ProjectiveMeasurement,
    t1: float,
    t2: float,
    t3: float,
) -> float:
    """Max-norm of Δ∘Λ_{32}∘Δ∘Λ_{21}∘Δ − Δ∘Λ_{31}∘Δ on a time triple.

    Zero (within tolerance) certifies the non-coherence-generating-and-
    detecting property of the reduced maps with respect to the measurement.
    ``provider`` may be a :class:`~dephaser.models.DephasingTable` of the
    three times.
    """
    if not (t1 <= t2 <= t3):
        raise TimeOrderError(f"ncgd_deficit: need t1 <= t2 <= t3, got {(t1, t2, t3)}")
    delta = _channel_matrix(provider, measurement, "ncgd_deficit")
    lam32 = _reduced_matrix(provider, t3, t2)
    lam21 = _reduced_matrix(provider, t2, t1)
    lam31 = _reduced_matrix(provider, t3, t1)
    return float(np.max(np.abs(delta @ lam32 @ delta @ lam21 @ delta - delta @ lam31 @ delta)))


def conditional_probability(dist: JointDistribution, prefix) -> np.ndarray:
    """Distribution of the next outcome given the first ``len(prefix)`` outcomes.

    Raises :class:`NullEventError` when the conditioning event has probability
    below the floor (rather than returning NaN).
    """
    prefix = tuple(int(x) for x in prefix)
    k = len(prefix)
    if k >= dist.n:
        raise ValidationError(f"conditional_probability: prefix length {k} must be < n = {dist.n}")
    arr = dist.as_array()
    # marginalize outcomes after position k+1
    for _ in range(dist.n - k - 1):
        arr = arr.sum(axis=-1)
    sub = arr[prefix]  # vector over x_{k+1}
    denom = sub.sum()
    if denom <= NULL_EVENT_FLOOR:
        raise NullEventError(f"conditional_probability: event {prefix} has probability {denom:.3e}")
    return np.clip(sub / denom, 0.0, None)
