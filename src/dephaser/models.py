"""Dephasing Hamiltonian models and dephasing-tensor providers.

A pure-dephasing interaction assigns one environment block Hamiltonian H_j to
each vector of the system's dephasing basis (fixed here as the computational
basis).  The system+environment state is then a d×d grid of D×D environment
blocks, and each time interval acts on it block by block,

    S[j, l] -> U_j(dt) S[j, l] U_l(dt)†

which a provider implements as ``step``; joint distributions are propagated
with it.  The *dephasing tensor* picks one index pair per interval and traces
the environment at the end: T[J, L] = tr(L_J ρ_E L_L†) with the left string
L_J = U_{j_n}(dt_n)···U_{j_1}(dt_1).  Factoring ρ_E = V diag(w) V† as
B·diag(s)·B†, with B = V·sqrt|w| and s = sign(w), makes it a Gram product,
T = A·diag(s)·A† where row J of A is vec(L_J B).  The signs are kept, not
clipped, because ``check_density`` admits eigenvalues down to -1e-10.
Two providers are implemented: the exact finite-environment one, and the
analytic one (D = 1) whose tensor factorizes into per-interval exponentials
by construction (the regression/Markovian case).
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import ShapeError, SizeCapError, TimeOrderError, ValidationError
# hermitian_expm is not called here; the name stays bound because
# perfbench/tracing.py wraps ``dephaser.models.hermitian_expm``.
from .linalg import check_density, check_hermitian, hermitian_eigh, hermitian_expm, spectral_expm  # noqa: F401

#: budget, in complex entries, for the largest state block propagation holds:
#: m^(n-1)·d²·D² in ``joint_distribution``, d^(2n) + d^n·D·r in ``tensor_array``,
#: d·D² per distinct pair duration in ``markovianity_deficit_detail``;
#: ``classicality_report`` checks its largest single-node state and its stored
#: tables against it and gives each trie level in flight TERM_CAP // max_order.
#: 10^7 complex128 entries are 160 MB, and a step holds the state, its
#: half-projected copy and its result at once, so a run at the cap peaks near
#: 0.5 GB: the most a desk-scale machine can give one analysis.
TERM_CAP = 10_000_000

#: budget of the Markovianity check in compared tensor entries, Σ_{n=2..N}
#: C(K, n+1)·d^(2n) for K times.  On one core of a 2-vCPU x86 VM the walk
#: compares 2-5·10^7 entries per second at d >= 3 or D <= 2 and 6·10^6 at
#: d = 2, D = 4, so seconds to tens of seconds at the cap for D <= 4.  An
#: entry costs about D·r multiply-adds (r the rank of ρ_E) in its Gram product
#: and its strings D²·r more, so the rate falls with D (d = 2, full rank:
#: 3·10^6/s at D = 8, 10^6 at D = 16, 2.5·10^5 at D = 32): at D >= 16 a run
#: under the cap can take minutes.
MARKOV_WORK_CAP = 100_000_000


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
        then steps its part of the batch, bitwise as a scalar step of that
        part would.  Non-finite durations, and phases beyond the double
        range, raise ``ValidationError``.
        """

    @abstractmethod
    def tensor_pairs(self, pairs: Sequence, durations: Sequence[float]) -> complex:
        """Tensor value for index pairs, computed without ``step`` (the pointwise reference)."""

    def tensor(self, chain: IndexPairChain) -> complex:
        self._check_pairs(chain.pairs)
        return self.tensor_pairs(chain.pairs, chain.durations)

    # Each concrete provider defines ``tensor_array`` (the values on a duration
    # grid, axes (j_1, l_1, ..., j_n, l_n)) and ``tensor_pairs`` in its own class
    # body, where per-class instrumentation (perfbench/tracing.py) wraps them.
    def dephasing_matrix(self, t: float, s: float) -> np.ndarray:
        """The d×d matrix of single-interval tensor values over [s, t] (one ``step``)."""
        if t < s:
            raise TimeOrderError(f"dephasing_matrix: t = {t} < s = {s}")
        state = np.broadcast_to(self.env, (self.d, self.d) + self.env.shape)
        return np.trace(self.step(state, t - s), axis1=-2, axis2=-1)

    def _check_pairs(self, pairs) -> None:
        for j, l in pairs:
            if not (0 <= j < self.d and 0 <= l < self.d):
                raise ValidationError(f"index pair ({j}, {l}) out of range for d = {self.d}")


@dataclass(frozen=True)
class DephasingModel:
    """Exact finite-environment dephasing model.

    One Hermitian block Hamiltonian per dephasing-basis vector (d of them,
    each D×D), plus the initial environment state, stored as validated
    read-only copies: code downstream skips re-checking them.
    """

    blocks: tuple
    env_state: np.ndarray

    def __post_init__(self):
        blocks = tuple(np.array(check_hermitian(b, f"block H_{j}")) for j, b in enumerate(self.blocks))
        if not blocks:
            raise ValidationError("DephasingModel: need at least one block")
        big_d = blocks[0].shape[0]
        for j, b in enumerate(blocks):
            if b.shape != (big_d, big_d):
                raise ShapeError(f"DephasingModel: block H_{j} has shape {b.shape}, expected ({big_d}, {big_d})")
        env = np.array(check_density(self.env_state, "env_state"))
        if env.shape != (big_d, big_d):
            raise ShapeError(f"DephasingModel: env_state dim {env.shape[0]} != block dim {big_d}")
        for a in blocks + (env,):
            a.flags.writeable = False
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

    def _eigh(self) -> tuple:
        """The spectral decompositions H_j = V_j diag(w_j) V_j† of all blocks,
        stacked on a leading block axis; computed once per provider."""
        if self._eig is None:
            self._eig = tuple(np.stack(a) for a in zip(*(hermitian_eigh(b) for b in self.model.blocks)))
        return self._eig

    def _unitaries(self, dt: float) -> tuple:
        """U_j(dt) = V_j e^{-i·dt·w_j} V_j† for every block j, stacked on a
        leading axis in one vectorised product, and their adjoints; cached
        per duration."""
        pair = self._prop_cache.get(dt)
        if pair is None:
            u = spectral_expm(*self._eigh(), dt)
            pair = self._prop_cache[dt] = u, u.conj().swapaxes(-1, -2)
        return pair

    def _unitaries_batch(self, dt: np.ndarray) -> tuple:
        """The stacked U_j and U_j† for an array of durations, each of shape
        dt.shape + (d, D, D).

        Every distinct duration is exponentiated once, all in one vectorised
        product, with the same arithmetic per entry as :meth:`_unitaries`.
        """
        dt = np.asarray(dt, dtype=float)
        durations, inverse = np.unique(dt.ravel(), return_inverse=True)
        u = spectral_expm(*self._eigh(), durations[:, None])[inverse.reshape(dt.shape)]
        return u, u.conj().swapaxes(-1, -2)

    def propagator(self, j: int, dt: float) -> np.ndarray:
        """U_j(dt) = exp(-i·dt·H_j)."""
        return self._unitaries(dt)[0][j]

    def step(self, state, dt):
        """S[..., j, l] -> U_j S[..., j, l] U_l† for every block at once.

        One product per (batch row, block): U_j times the row S[..., j, :] as
        a D×(d·D) matrix, then the column S[..., :, l] of that result, as a
        (d·D)×D matrix, times U_l†.  Every product has the same shape whatever
        the batch, so each row's arithmetic does not depend on it.
        """
        return _conjugate(state, *(self._unitaries_batch(dt) if isinstance(dt, np.ndarray) else self._unitaries(dt)))

    def tensor_pairs(self, pairs, durations) -> complex:
        x = self.model.env_state
        for (j, l), dt in zip(pairs, durations):
            x = self.propagator(j, dt) @ x @ self.propagator(l, dt).conj().T
        return complex(np.trace(x))

    def tensor_array(self, durations) -> np.ndarray:
        """The Gram product over the strings L_J·B, one U_j per interval."""
        d, n = self.d, len(durations)
        b, sign = _env_factor(self.env)
        if d ** (2 * n) + d**n * b.size > TERM_CAP:
            raise SizeCapError(f"tensor_array: {d ** (2 * n)} + {d**n * b.size} entries exceed cap {TERM_CAP}")
        strings = b[None]
        for dt in durations:
            strings = _extend(strings, self._unitaries(dt)[0])
        # rows (j_1, ..., j_n) and columns (l_1, ..., l_n), interleaved
        return _gram(strings, sign).reshape((d,) * 2 * n).transpose([a for k in range(n) for a in (k, n + k)])


def _conjugate(state: np.ndarray, u: np.ndarray, uh: np.ndarray) -> np.ndarray:
    """The kernel of ``step``: S[..., j, l] -> U_j S[..., j, l] U_l† with the
    stacked U_j and U_j† (d, D, D), or one stack per leading batch row."""
    lead, (d, _, big_d, _) = state.shape[:-4], state.shape[-4:]
    # rows[..., j, a, (l, b)] = Σ_c U_j[a, c] S[..., j, l, c, b]
    rows = u @ state.swapaxes(-3, -2).reshape(lead + (d, big_d, d * big_d))
    # out[..., l, (j, a), b] = Σ_c rows[..., j, a, l, c] U_l†[c, b]
    cols = rows.reshape(lead + (d * big_d, d, big_d)).swapaxes(-3, -2)
    out = cols @ uh
    return out.reshape(lead + (d, d, big_d, big_d)).swapaxes(-4, -3)


def _env_factor(env: np.ndarray) -> tuple:
    """(B, s) with ρ_E = B·diag(s)·B† over the nonzero eigenvalues of ρ_E."""
    w, v = np.linalg.eigh(env)
    return v[:, w != 0] * np.sqrt(np.abs(w[w != 0])), np.sign(w[w != 0])


def _extend(strings: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Strings L_J·B (..., m, D, r) times the stacked U_j (..., d, D, D): the
    strings (..., m·d, D, r), new index fastest; one product per (row, J, j)."""
    lead, (m, big_d, r) = strings.shape[:-3], strings.shape[-3:]
    return (u[..., None, :, :, :] @ strings[..., :, None, :, :]).reshape(lead + (m * u.shape[-3], big_d, r))


def _gram(strings: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """T[..., J, L] = Σ_{a,c} A[..., J, a, c]·s[c]·conj(A[..., L, a, c]), one product per row."""
    rows = strings.reshape(strings.shape[:-2] + (-1,))
    return (strings * sign).reshape(rows.shape) @ rows.conj().swapaxes(-1, -2)


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
        # the exponent per unit time; not a field, so equality compares eps and gamma
        object.__setattr__(self, "_rate", -(1j * eps + 0.5 * gamma))

    @property
    def d(self) -> int:
        return self.eps.shape[0]

    def phi_matrix(self, dt) -> np.ndarray:
        """Single-interval dephasing matrix, all-ones on the diagonal.

        An array ``dt`` with two trailing unit axes gives one matrix per entry.
        A non-finite dt (0·dt on the diagonal is NaN), or a phase dt·eps
        beyond the double range, raises ``ValidationError`` (numpy warns of
        nothing).
        """
        with np.errstate(over="ignore", invalid="ignore"):
            phi = np.exp(self._rate * dt)
        if not np.isfinite(phi).all():
            raise ValidationError(
                f"MarkovianAnalyticModel.phi_matrix: factors not finite for max |dt| = {float(np.max(np.abs(dt)))!r}"
            )
        return phi


class MarkovianAnalyticProvider(DephasingTensorProvider):
    """Provider whose tensor factorizes per interval by construction (D = 1)."""

    is_markovian_by_construction = True

    def __init__(self, model: MarkovianAnalyticModel):
        self.model = model
        self.d = model.d
        self.env = np.ones((1, 1), dtype=complex)

    def step(self, state, dt):
        if isinstance(dt, np.ndarray):
            dt = dt[..., None, None]
        return state * self.model.phi_matrix(dt)[..., None, None]

    def tensor_pairs(self, pairs, durations) -> complex:
        out = 1.0 + 0.0j
        with np.errstate(over="ignore", invalid="ignore"):
            for (j, l), dt in zip(pairs, durations):
                if j != l:
                    out *= np.exp(-(1j * self.model.eps[j, l] + 0.5 * self.model.gamma[j, l]) * dt)
        if not np.isfinite(out):
            raise ValidationError(f"MarkovianAnalyticProvider.tensor_pairs: value {out} is not finite")
        return complex(out)

    def tensor_array(self, durations) -> np.ndarray:
        """The outer product of the per-interval dephasing matrices."""
        if self.d ** (2 * len(durations)) > TERM_CAP:
            raise SizeCapError(f"tensor_array: {self.d ** (2 * len(durations))} entries exceed cap {TERM_CAP}")
        phis = (self.model.phi_matrix(dt) for dt in durations)
        return reduce(np.multiply.outer, phis, np.ones((), dtype=complex))


def markovian_tensor(model: MarkovianAnalyticModel, chain: IndexPairChain) -> complex:
    return MarkovianAnalyticProvider(model).tensor(chain)


class DephasingTable:
    """The dephasing matrices φ(t, s) of every pair of grid times s <= t.

    All of them come from one ``provider.step`` over the array of durations
    t - s (each bitwise equal to ``provider.dephasing_matrix(t, s)``), and are
    read with the same ``dephasing_matrix(t, s)``, so a table stands in for
    the provider in :func:`semigroup_deficit`, :func:`triviality_check` and
    the reduced maps and NCGD deficits of :mod:`dephaser.statistics`.
    A pair s == t is held only where the grid repeats the time.  A grid whose
    pairs' states exceed ``TERM_CAP`` entries is stepped in chunks of pairs.
    """

    def __init__(self, provider: DephasingTensorProvider, times: Sequence[float]):
        pairs = list(dict.fromkeys(itertools.combinations(sorted(float(t) for t in times), 2)))
        dt = np.array([t - s for s, t in pairs])
        d, env = provider.d, provider.env
        self.d = d
        chunk = max(1, TERM_CAP // (d * d * env.size))
        phi = []
        for lo in range(0, len(dt), chunk):
            part = dt[lo : lo + chunk]
            state = np.broadcast_to(env, (len(part), d, d) + env.shape)
            phi.extend(np.trace(provider.step(state, part), axis1=-2, axis2=-1))
        self._phi = dict(zip(pairs, phi))

    def dephasing_matrix(self, t: float, s: float) -> np.ndarray:
        """φ(t, s) of two grid times, s <= t."""
        if t < s:
            raise TimeOrderError(f"dephasing_matrix: t = {t} < s = {s}")
        return self._phi[float(s), float(t)]


def semigroup_deficit(provider: DephasingTensorProvider, t0: float, t1: float, t2: float) -> float:
    """Max entrywise violation of φ(t2,t0) = φ(t2,t1)·φ(t1,t0).

    A necessary condition for the tensor factorization; identically zero for
    the analytic provider.  ``provider`` may be a :class:`DephasingTable` of
    the three times.
    """
    if not (t0 <= t1 <= t2):
        raise TimeOrderError(f"semigroup_deficit: need t0 <= t1 <= t2, got {(t0, t1, t2)}")
    full = provider.dephasing_matrix(t2, t0)
    split = provider.dephasing_matrix(t2, t1) * provider.dephasing_matrix(t1, t0)
    return float(np.max(np.abs(full - split)))


def markovianity_deficit(model: DephasingModel, times: Sequence[float], max_order: int) -> float:
    """Max violation of the tensor factorization up to ``max_order`` intervals.

    Compares the exact tensor against the product of dephasing-matrix entries
    over all index-pair chains on every increasing selection of 3 to
    ``max_order`` + 1 of the ``times``, exhaustively.
    """
    return markovianity_deficit_detail(model, times, max_order)[0]


def markovianity_deficit_detail(model: DephasingModel, times: Sequence[float], max_order: int):
    """As :func:`markovianity_deficit`, also returning bookkeeping details.

    Walks the selections (rows of indices into the sorted times) as a prefix
    trie, one level of n intervals at a time, depth-first in chunks of rows
    holding at most ``TERM_CAP`` / (levels walked) entries (or of one row).  A
    row holds its strings L_J·B and the product F of its dephasing matrices; a
    child extends them by one U_j and one outer product with φ, and from n = 2
    on, each row's Gram product T gives max |T - F|.  The distinct pair
    durations are exponentiated once, in one batched call, and their φ comes
    from the ``step`` kernel on those U_j (as in :class:`DephasingTable`).
    The ``tuples`` compared entries are checked against ``MARKOV_WORK_CAP``,
    and the d·D² entries of U per distinct duration against ``TERM_CAP``,
    before any propagator is built.
    """
    if max_order < 2:
        raise ValidationError(f"markovianity_deficit: max_order must be >= 2, got {max_order}")
    times = np.sort(np.array([float(t) for t in times]))
    k, d = len(times), model.d
    tuples = 0
    for n in range(2, min(max_order, k - 1) + 1):  # stops as soon as the cap is passed
        tuples += math.comb(k, n + 1) * d ** (2 * n)
        if tuples > MARKOV_WORK_CAP:
            raise SizeCapError(f"markovianity_deficit: over {MARKOV_WORK_CAP} compared entries for {k} times, d = {d}")
    detail = {"exhaustive": True, "tuples": tuples, "orders": list(range(2, max_order + 1))}
    if k < 3:
        return 0.0, detail

    env = model.env_state
    first, second = np.triu_indices(k, 1)
    durations, inverse = np.unique(times[second] - times[first], return_inverse=True)
    if len(durations) * d * env.size > TERM_CAP:
        raise SizeCapError(f"markovianity_deficit: U_j of {len(durations)} durations exceed cap {TERM_CAP} entries")
    pair = np.zeros((k, k), dtype=np.intp)  # the distinct duration of each pair i < j
    pair[first, second] = inverse
    # U_j of each distinct duration, exponentiated once, and φ from the step kernel on them
    u = spectral_expm(*ExactDephasingProvider(model)._eigh(), durations[:, None])
    chunk, phi = max(1, TERM_CAP // (d * d * env.size)), []
    for lo in range(0, len(u), chunk):
        part = u[lo : lo + chunk]
        state = np.broadcast_to(env, (len(part), d, d) + env.shape)
        phi.append(np.trace(_conjugate(state, part, part.conj().swapaxes(-1, -2)), axis1=-2, axis2=-1))
    phi = np.concatenate(phi)
    b, sign = _env_factor(env)
    top = min(max_order, k - 1)
    size = [max(1, TERM_CAP // top // (d**n * b.size + 2 * d ** (2 * n) + d * env.size)) for n in range(top + 1)]

    def children(n, rows, strings, factored) -> list:
        """The chunks (level, rows, parent rows, parent strings and F) of the
        children of a block of level-n rows: each row extended by every later index."""
        counts = k - 1 - rows[:, -1]
        parents = np.repeat(np.arange(len(rows)), counts)
        later = rows[parents, -1] + 1 + np.arange(len(parents)) - np.repeat(np.cumsum(counts) - counts, counts)
        rows, c = np.column_stack((rows[parents], later)), size[n + 1]
        return [(n + 1, rows[lo : lo + c], parents[lo : lo + c], strings, factored) for lo in range(0, len(rows), c)]

    # depth-first from the root: one row per first index, holding the empty string and F = 1
    stack = children(0, np.arange(k)[:, None], np.broadcast_to(b, (k, 1) + b.shape), np.ones((k, 1, 1), complex))
    deficit = 0.0
    while stack:
        n, rows, parent, strings, factored = stack.pop()
        last = pair[rows[:, -2], rows[:, -1]]
        strings = _extend(strings[parent], u[last])
        m = strings.shape[-3]
        factored = (factored[parent][:, :, None, :, None] * phi[last][:, None, :, None, :]).reshape(len(rows), m, m)
        if n >= 2:
            deficit = max(deficit, float(np.abs(_gram(strings, sign) - factored).max()))
        if n < top:
            stack.extend(children(n, rows, strings, factored))
    return deficit, detail


def commutativity_check(model: DephasingModel, tol: float = 1e-12) -> bool:
    """True iff all block commutators vanish within ``tol`` (max-norm)."""
    for a, b in itertools.combinations(model.blocks, 2):
        if np.max(np.abs(a @ b - b @ a)) > tol:
            return False
    return True


def triviality_check(provider: DephasingTensorProvider, grid: Sequence[float], tol: float = 1e-10) -> bool:
    """True iff every dephasing-matrix entry has unit modulus on the grid.

    ``provider`` may be a :class:`DephasingTable` of the grid.
    """
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
