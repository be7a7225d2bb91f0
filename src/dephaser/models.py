"""Dephasing Hamiltonian models and dephasing-tensor providers.

A pure-dephasing interaction assigns one environment block Hamiltonian H_j to
each vector of the system's dephasing basis (fixed here as the computational
basis).  The system+environment state is then a d×d grid of D×D environment
blocks, and each time interval acts on it block by block,

    S[j, l] -> U_j(dt) S[j, l] U_l(dt)†

which a provider implements as ``step``.  Joint distributions and the
*dephasing tensor* (one index pair (j, l) picked per interval, environment
traced at the end) are both propagated with it.  Two providers are
implemented: the exact finite-environment one, and the analytic one (D = 1)
whose tensor factorizes into per-interval exponentials by construction (the
regression/Markovian case).
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import ShapeError, SizeCapError, TimeOrderError, ValidationError
# hermitian_expm is not called here; the name stays bound because
# perfbench/tracing.py wraps ``dephaser.models.hermitian_expm``.
from .linalg import check_density, check_hermitian, hermitian_eigh, hermitian_expm, spectral_expm  # noqa: F401

#: |tensor| may exceed 1 only by numerical noise
TENSOR_MOD_TOL = 1e-10

#: budget, in complex entries, for the largest state block propagation holds:
#: m^(n-1)·d²·D² in ``joint_distribution``, d^(2n)·D² in ``tensor_array``;
#: ``classicality_report`` checks its largest single-node state and its stored
#: tables against it and gives each trie level in flight TERM_CAP // max_order.
#: 10^7 complex128 entries are 160 MB, and a step holds the state, its
#: half-projected copy and its result at once, so a run at the cap peaks near
#: 0.5 GB: the most a desk-scale machine can give one analysis.
TERM_CAP = 10_000_000

#: exhaustive enumeration limit for the factorization deficit
MARKOV_ENUM_CAP = 1_000_000
MARKOV_SUBSAMPLE = 100_000


@dataclass(frozen=True)
class IndexPairChain:
    """An ordered list of index pairs with the time grid they act on.

    ``pairs[k]`` acts on the interval ``[times[k], times[k+1]]``.
    """

    pairs: tuple
    times: tuple

    def __post_init__(self):
        pairs = tuple((int(j), int(l)) for j, l in self.pairs)
        times = tuple(float(t) for t in self.times)
        if len(times) != len(pairs) + 1:
            raise ShapeError(
                f"IndexPairChain: need len(times) = len(pairs) + 1, got {len(times)} vs {len(pairs)}"
            )
        if any(t1 > t2 for t1, t2 in zip(times, times[1:])):
            raise TimeOrderError(f"IndexPairChain: times not non-decreasing: {times}")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "times", times)

    @property
    def durations(self) -> tuple:
        return tuple(t2 - t1 for t1, t2 in zip(self.times, self.times[1:]))


class DephasingTensorProvider(ABC):
    """Interval map of a pure-dephasing system, and the dephasing tensor it yields.

    States are arrays S[..., j, l, a, b]: any leading batch axes, then a d×d
    grid of D×D environment blocks.  ``env`` is the initial D×D environment
    state.

    Contract: the empty chain evaluates to 1; any all-diagonal chain evaluates
    to 1; |tensor| <= 1 up to roundoff; swapping (j, l) -> (l, j) in every
    pair conjugates the value.
    """

    d: int
    env: np.ndarray
    is_markovian_by_construction: bool = False

    @abstractmethod
    def step(self, state: np.ndarray, dt) -> np.ndarray:
        """The state after one interval of length ``dt`` (a new array).

        ``dt`` is a scalar, or a numpy array of durations that broadcasts
        against the leading axes ``state.shape[:-4]`` (numpy rules, so a
        duration per row of a batch has shape (N, 1, ..., 1)); each entry
        then steps its part of the batch.  Non-finite durations raise
        ``ValidationError``.
        """

    @abstractmethod
    def tensor_pairs(self, pairs: Sequence, durations: Sequence[float]) -> complex:
        """Tensor value for index pairs, computed without ``step`` (the pointwise reference)."""

    def tensor(self, chain: IndexPairChain) -> complex:
        self._check_pairs(chain.pairs)
        return self.tensor_pairs(chain.pairs, chain.durations)

    # Each concrete provider defines ``tensor_array`` and ``tensor_pairs`` in
    # its own class body, where per-class instrumentation (perfbench/tracing.py)
    # finds and wraps them.
    def tensor_array(self, durations: Sequence[float]) -> np.ndarray:
        """All tensor values on a duration grid.

        Shape is (d, d) * n with axes ordered (j_1, l_1, ..., j_n, l_n): each
        interval expands one (j, l) pair axis and steps the environment state.
        """
        d, n = self.d, len(durations)
        entries = d ** (2 * n) * self.env.size
        if entries > TERM_CAP:
            raise SizeCapError(f"tensor_array: {entries} propagated entries exceed cap {TERM_CAP}")
        x = self.env
        for dt in durations:
            x = self.step(np.broadcast_to(x[..., None, None, :, :], x.shape[:-2] + (d, d) + x.shape[-2:]), dt)
        return np.trace(x, axis1=-2, axis2=-1)

    def dephasing_matrix(self, t: float, s: float) -> np.ndarray:
        """The d×d matrix of single-interval tensor values over [s, t]."""
        if t < s:
            raise TimeOrderError(f"dephasing_matrix: t = {t} < s = {s}")
        return self.tensor_array([t - s])

    def _check_pairs(self, pairs) -> None:
        for j, l in pairs:
            if not (0 <= j < self.d and 0 <= l < self.d):
                raise ValidationError(f"index pair ({j}, {l}) out of range for d = {self.d}")


@dataclass(frozen=True)
class DephasingModel:
    """Exact finite-environment dephasing model.

    One Hermitian block Hamiltonian per dephasing-basis vector (d of them,
    each D×D), plus the initial environment state.
    """

    blocks: tuple
    env_state: np.ndarray

    def __post_init__(self):
        blocks = tuple(check_hermitian(b, f"block H_{j}") for j, b in enumerate(self.blocks))
        if not blocks:
            raise ValidationError("DephasingModel: need at least one block")
        big_d = blocks[0].shape[0]
        for j, b in enumerate(blocks):
            if b.shape != (big_d, big_d):
                raise ShapeError(f"DephasingModel: block H_{j} has shape {b.shape}, expected ({big_d}, {big_d})")
        env = check_density(self.env_state, "env_state")
        if env.shape != (big_d, big_d):
            raise ShapeError(f"DephasingModel: env_state dim {env.shape[0]} != block dim {big_d}")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "env_state", env)

    @property
    def d(self) -> int:
        return len(self.blocks)

    @property
    def env_dim(self) -> int:
        return self.blocks[0].shape[0]


class ExactDephasingProvider(DephasingTensorProvider):
    """Dephasing dynamics by direct propagation of the environment blocks."""

    def __init__(self, model: DephasingModel):
        self.model = model
        self.d = model.d
        self.env = model.env_state
        self._eig = None
        self._prop_cache: dict = {}

    def _eigh(self) -> list:
        """The spectral decomposition (w_j, V_j) of every block, computed once per provider."""
        if self._eig is None:
            self._eig = [hermitian_eigh(b) for b in self.model.blocks]
        return self._eig

    def _unitaries(self, dt: float) -> np.ndarray:
        """U_j(dt) = V_j e^{-i·dt·w_j} V_j† for every block j, stacked on a leading axis."""
        u = self._prop_cache.get(dt)
        if u is None:
            u = self._prop_cache[dt] = np.stack([spectral_expm(w, v, dt) for w, v in self._eigh()])
        return u

    def _unitaries_batch(self, dt: np.ndarray) -> np.ndarray:
        """U_j for an array of durations, shape dt.shape + (d, D, D).

        Every distinct duration is exponentiated in one vectorised product,
        with the same arithmetic per entry as :meth:`_unitaries`.
        """
        dt = np.asarray(dt, dtype=float)
        if not np.isfinite(dt).all():
            raise ValidationError(f"ExactDephasingProvider.step: non-finite duration {dt[~np.isfinite(dt)][0]}")
        durations, inverse = np.unique(dt.ravel(), return_inverse=True)
        w, v = (np.stack(a) for a in zip(*self._eigh()))
        # an overflowing phase dt·w gives NaN propagators: report it instead of warning
        with np.errstate(over="ignore", invalid="ignore"):
            u = (v * np.exp(-1j * durations[:, None, None] * w)[:, :, None, :]) @ v.conj().swapaxes(-1, -2)
        if not np.isfinite(u).all():
            raise ValidationError(
                f"ExactDephasingProvider.step: propagators are not finite for durations up to {durations[-1]}"
            )
        return u[inverse.reshape(dt.shape)]

    def propagator(self, j: int, dt: float) -> np.ndarray:
        """U_j(dt) = exp(-i·dt·H_j)."""
        return self._unitaries(dt)[j]

    def step(self, state, dt):
        """S[..., j, l] -> U_j S[..., j, l] U_l† for every block at once."""
        u = self._unitaries_batch(dt) if isinstance(dt, np.ndarray) else self._unitaries(dt)
        return u[..., :, None, :, :] @ state @ u.conj().swapaxes(-1, -2)[..., None, :, :, :]

    def tensor_pairs(self, pairs, durations) -> complex:
        x = self.model.env_state
        for (j, l), dt in zip(pairs, durations):
            x = self.propagator(j, dt) @ x @ self.propagator(l, dt).conj().T
        return complex(np.trace(x))

    def tensor_array(self, durations) -> np.ndarray:
        return super().tensor_array(durations)


def exact_tensor(model: DephasingModel, chain: IndexPairChain) -> complex:
    """Dephasing-tensor entry of an exact model (convenience wrapper)."""
    return ExactDephasingProvider(model).tensor(chain)


@dataclass(frozen=True)
class MarkovianAnalyticModel:
    """Analytic dephasing model with per-pair exponential decay/rotation.

    Off-diagonal coherences (j, l) evolve with exp(-(i·eps[j,l] +
    gamma[j,l]/2)·dt).  eps must be antisymmetric and gamma symmetric and
    nonnegative so that the dephasing matrix is conjugate-symmetric.
    """

    eps: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        eps = np.asarray(self.eps, dtype=float)
        gamma = np.asarray(self.gamma, dtype=float)
        if eps.ndim != 2 or eps.shape[0] != eps.shape[1] or gamma.shape != eps.shape:
            raise ShapeError(f"MarkovianAnalyticModel: eps/gamma must be square and matching, got {eps.shape} vs {gamma.shape}")
        if np.any(np.abs(np.diag(eps)) > 0) or np.any(np.abs(np.diag(gamma)) > 0):
            raise ValidationError("MarkovianAnalyticModel: diagonals of eps and gamma must vanish")
        if np.max(np.abs(eps + eps.T)) > 0:
            raise ValidationError("MarkovianAnalyticModel: eps must be antisymmetric")
        if np.max(np.abs(gamma - gamma.T)) > 0:
            raise ValidationError("MarkovianAnalyticModel: gamma must be symmetric")
        if np.any(gamma < 0):
            raise ValidationError("MarkovianAnalyticModel: gamma must be entrywise nonnegative")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "gamma", gamma)

    @property
    def d(self) -> int:
        return self.eps.shape[0]

    def phi_matrix(self, dt) -> np.ndarray:
        """Single-interval dephasing matrix, all-ones on the diagonal.

        An array ``dt`` with two trailing unit axes gives one matrix per entry.
        """
        return np.exp(-(1j * self.eps + 0.5 * self.gamma) * dt)


class MarkovianAnalyticProvider(DephasingTensorProvider):
    """Provider whose tensor factorizes per interval by construction (D = 1)."""

    is_markovian_by_construction = True

    def __init__(self, model: MarkovianAnalyticModel):
        self.model = model
        self.d = model.d
        self.env = np.ones((1, 1), dtype=complex)

    def step(self, state, dt):
        if not np.isfinite(dt).all():
            raise ValidationError("MarkovianAnalyticProvider.step: non-finite duration")
        if isinstance(dt, np.ndarray):
            dt = dt[..., None, None]
        return state * self.model.phi_matrix(dt)[..., None, None]

    def tensor_pairs(self, pairs, durations) -> complex:
        out = 1.0 + 0.0j
        for (j, l), dt in zip(pairs, durations):
            if j != l:
                out *= np.exp(-(1j * self.model.eps[j, l] + 0.5 * self.model.gamma[j, l]) * dt)
        return complex(out)

    def tensor_array(self, durations) -> np.ndarray:
        return super().tensor_array(durations)


def markovian_tensor(model: MarkovianAnalyticModel, chain: IndexPairChain) -> complex:
    return MarkovianAnalyticProvider(model).tensor(chain)


def semigroup_deficit(provider: DephasingTensorProvider, t0: float, t1: float, t2: float) -> float:
    """Max entrywise violation of φ(t2,t0) = φ(t2,t1)·φ(t1,t0).

    A necessary condition for the tensor factorization; identically zero for
    the analytic provider.
    """
    if not (t0 <= t1 <= t2):
        raise TimeOrderError(f"semigroup_deficit: need t0 <= t1 <= t2, got {(t0, t1, t2)}")
    full = provider.dephasing_matrix(t2, t0)
    split = provider.dephasing_matrix(t2, t1) * provider.dephasing_matrix(t1, t0)
    return float(np.max(np.abs(full - split)))


def markovianity_deficit(
    model: DephasingModel,
    times: Sequence[float],
    max_order: int,
    seed: int = 0,
    enum_cap: int = MARKOV_ENUM_CAP,
    subsample: int = MARKOV_SUBSAMPLE,
) -> float:
    """Max violation of the tensor factorization up to ``max_order`` intervals.

    Compares the exact tensor against the product of dephasing-matrix entries
    over all index-pair chains on every increasing time selection from
    ``times``.  Falls back to a seeded random subsample beyond ``enum_cap``
    tuples.
    """
    deficit, _ = markovianity_deficit_detail(model, times, max_order, seed, enum_cap, subsample)
    return deficit


def markovianity_deficit_detail(
    model: DephasingModel,
    times: Sequence[float],
    max_order: int,
    seed: int = 0,
    enum_cap: int = MARKOV_ENUM_CAP,
    subsample: int = MARKOV_SUBSAMPLE,
):
    """As :func:`markovianity_deficit`, also returning bookkeeping details."""
    if max_order < 2:
        raise ValidationError(f"markovianity_deficit: max_order must be >= 2, got {max_order}")
    times = sorted(float(t) for t in times)
    provider = ExactDephasingProvider(model)
    d = model.d

    selections = []
    total = 0
    for n in range(2, max_order + 1):
        for sel in itertools.combinations(times, n + 1):
            selections.append(sel)
            total += d ** (2 * n)

    exhaustive = total <= enum_cap
    deficit = 0.0
    if exhaustive:
        # one dephasing matrix per distinct consecutive pair, shared by every selection
        pairs = dict.fromkeys(pair for sel in selections for pair in zip(sel, sel[1:]))
        phi = {(t1, t2): provider.dephasing_matrix(t2, t1) for t1, t2 in pairs}
        for sel in selections:
            durations = [t2 - t1 for t1, t2 in zip(sel, sel[1:])]
            exact = provider.tensor_array(durations)
            factored = reduce(np.multiply.outer, [phi[pair] for pair in zip(sel, sel[1:])])
            deficit = max(deficit, float(np.max(np.abs(exact - factored))))
    else:
        rng = np.random.default_rng(seed)
        for _ in range(subsample):
            sel = selections[rng.integers(len(selections))]
            n = len(sel) - 1
            pairs = [(int(rng.integers(d)), int(rng.integers(d))) for _ in range(n)]
            durations = [t2 - t1 for t1, t2 in zip(sel, sel[1:])]
            exact = provider.tensor_pairs(pairs, durations)
            factored = 1.0 + 0j
            for (j, l), dt in zip(pairs, durations):
                factored *= provider.tensor_pairs([(j, l)], [dt])
            deficit = max(deficit, abs(exact - factored))
    return deficit, {"exhaustive": exhaustive, "tuples": total, "orders": list(range(2, max_order + 1))}


def commutativity_check(model: DephasingModel, tol: float = 1e-12) -> bool:
    """True iff all block commutators vanish within ``tol`` (max-norm)."""
    for a, b in itertools.combinations(model.blocks, 2):
        if np.max(np.abs(a @ b - b @ a)) > tol:
            return False
    return True


def triviality_check(provider: DephasingTensorProvider, grid: Sequence[float], tol: float = 1e-10) -> bool:
    """True iff every dephasing-matrix entry has unit modulus on the grid."""
    grid = sorted(float(t) for t in grid)
    for s, t in itertools.combinations(grid, 2):
        phi = provider.dephasing_matrix(t, s)
        if np.max(np.abs(np.abs(phi) - 1.0)) > tol:
            return False
    return True


def tensor_collapse_check(provider: DephasingTensorProvider, chain: IndexPairChain, k: int) -> float:
    """|tensor(chain) - tensor(chain with diagonal pair k dropped)|.

    The dropped-pair value replaces the k-th two-sided conjugation with the
    identity map, keeping every other interval duration.  Always ~0 when k is
    the last pair; ~0 for any k when the provider factorizes or the blocks
    commute.
    """
    pairs = chain.pairs
    if not (0 <= k < len(pairs)):
        raise ValidationError(f"tensor_collapse_check: position {k} out of range")
    j, l = pairs[k]
    if j != l:
        raise ValidationError(f"tensor_collapse_check: pair {k} is ({j}, {l}), not diagonal")
    durations = chain.durations
    full = provider.tensor_pairs(pairs, durations)
    dropped = provider.tensor_pairs(
        [p for i, p in enumerate(pairs) if i != k],
        [dt for i, dt in enumerate(durations) if i != k],
    )
    return abs(full - dropped)
