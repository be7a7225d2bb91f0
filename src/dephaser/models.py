"""Dephasing Hamiltonian models and dephasing-tensor providers.

A pure-dephasing interaction assigns one environment block Hamiltonian H_j to
each vector of the system's dephasing basis (fixed here as the computational
basis).  Each time interval acts on a system+environment state S, a d×d grid
of D×D environment blocks, block by block,

    Λ_dt: S[j, l] -> U_j(dt) S[j, l] U_l(dt)†

and its dephasing matrix is φ_jl(dt) = tr(U_j ρ_E U_l†), which a provider's
``dephasings`` gives for an array of durations.  The engine of
:mod:`dephaser.statistics` never builds that d×d grid: after a sharp outcome
x, with V_x an orthonormal basis of the range of P_x (d×r), all memory of the
past sits in E_x = V_x† S V_x, an r×r grid of D×D blocks.  One interval
and the next measurement map E_x to E_xy = V_y† Λ_dt(V_x E_x V_x†) V_y for
every next outcome y: for the exact provider one Kraus sandwich K E K† with
K = Σ_j (V_y† e_j)(e_j† V_x) ⊗ U_j(dt), for the analytic one (D = 1)
E -> Σ_jl φ_jl(dt)·C_j E C_l† with C_j = (V_y† e_j)(e_j† V_x).  This is the
process-tensor view of Milz & Modi, PRX Quantum 2, 030201 (2021).  The map
comes in stages, each over a whole array of durations at once:
``exponentials`` (the stacked U_j(dt), or φ(dt): the one exponentiation),
``kernels`` (the Kraus stacks K, or φ itself, between two outcome bases) and
``apply`` (the branch states).  The last measurement needs only
probabilities, tr E_xy = tr(E_x·M_xy), so ``effects`` gives the
Heisenberg-picture effect operators M_xy = K_xy†K_xy (exact) or
V_x†(P_y ∘ φᵀ)V_x (analytic) and no last branch state is built.

What depends only on the model or on the measurement is built once per
object: a :class:`DephasingModel` stacks its blocks once, into one read-only
(d, D, D) array checked finite and Hermitian in one pass (a
:class:`MarkovianAnalyticModel` keeps read-only copies of eps and gamma, each
rule one whole-array test), and the Kraus coefficients of a pair of outcome bases come
from one bounded memo keyed by the bases' contents (:func:`_coefficients`).
What the dynamics give is built once per provider and never shared between
providers: the exact provider diagonalises the stored stack once, in one
call, factors ρ_E once, and keeps the U_j of the last distinct durations it
exponentiated together, the only cache of φ.  ``dephasing_matrix(t, s)`` of
a provider, and the checks built on it, read φ(t - s) for whole arrays of
times, one stacked read per chunk.

The *dephasing tensor* picks one index pair per interval and traces the
environment at the end: T[J, L] = tr(L_J ρ_E L_L†) with the left string
L_J = U_{j_n}(dt_n)···U_{j_1}(dt_1).  Factoring ρ_E = V diag(w) V† as
B·diag(s)·B†, with B = V·sqrt|w| and s = sign(w), makes it a Gram product,
T = A·diag(s)·A† where row J of A is vec(L_J B); φ(dt) is its one-interval
case.  The signs are kept, not clipped, because ``check_density`` admits
eigenvalues down to ``linalg.EIG_FLOOR``.  Two providers are implemented: the
exact finite-environment one, and the analytic one (D = 1) whose tensor
factorizes into per-interval exponentials by construction (the
regression/Markovian case).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Sequence

import numpy as np

from .errors import ShapeError, SizeCapError, TimeOrderError, ValidationError, _integer
# hermitian_expm is not called here; the name stays bound because
# perfbench/tracing.py wraps ``dephaser.models.hermitian_expm``.
from .linalg import HERM_TOL, check_density, check_hermitian, hermitian_eigh, hermitian_expm, spectral_expm  # noqa: F401

#: budget, in complex entries, for the largest array an analysis holds: in
#: ``joint_distribution`` ρ⊗ρ_E (d²·D²), the first interval's K·E
#: (m·r·d·D², m outcomes, r the largest rank of the PVM), the branch states
#: after n − 1 measurements (m^(n-1)·r²·D²; the nth interval is read out) or
#: the m^n table, whichever is largest; d^(2n) + d^n·D·r_E in
#: ``tensor_array`` (r_E the rank of ρ_E); d·D² per distinct pair duration in
#: ``markovianity_deficit_detail``; ``classicality_report`` checks its
#: largest single node (a deepest-level row: its parent's branch states plus
#: its gathered effects) and its stored tables against it, builds its
#: report-wide exponentials, kernels and effects at once only where they fit
#: in it, and gives each trie level in flight TERM_CAP // max_order.  10^7
#: complex128 entries are 160 MB.  An ``apply`` holds its input, the half
#: product K·E and its result at once, and a readout the states and their
#: transposed copy, so a run at the cap peaks near 0.5 GB (a report whose
#: stage arrays fill the cap holds those 160 MB more): the most a desk-scale
#: machine can give one analysis.
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

#: |φ_jl| reads as 1 within this in :func:`triviality_check`: far above the roundoff of
#: a computed φ (a trace of products of unitaries, off by a few ulps times D), while a
#: coherence that decays by one part in 10^10 already counts as dephasing.
TRIVIALITY_TOL = 1e-10


class DephasingTensorProvider(ABC):
    """Interval map of a pure-dephasing system, and the dephasing tensor it yields.

    The interval map acts on measured-basis branch states (see the module
    docstring) in three stages: ``exponentials`` of the durations, ``kernels``
    from those, ``apply`` of the kernels.  ``effects`` of the same kernels
    reads the probabilities of the branch states ``apply`` would build without
    building them.  ``dephasings`` gives the dephasing matrices φ(dt) that the
    Markovianity and NCGD analyses read.  ``env`` is the initial D×D
    environment state.

    Contract of ``tensor_pairs``: no pairs evaluate to 1; any all-diagonal
    pairs evaluate to 1; |value| <= 1 up to roundoff; swapping (j, l) ->
    (l, j) in every pair conjugates the value.
    """

    d: int
    env: np.ndarray

    @abstractmethod
    def dephasings(self, dt) -> np.ndarray:
        """The dephasing matrices φ_jl(dt) = tr(U_j(dt) ρ_E U_l(dt)†), (..., d, d)
        for ``dt`` of shape (...).  Non-finite durations, and phases beyond
        the double range, raise ``ValidationError``."""

    @abstractmethod
    def exponentials(self, dt) -> np.ndarray:
        """The one exponentiation of the interval stage, one entry per entry of
        ``dt``: the stacked U_j(dt) (exact provider) or φ(dt) (analytic one).

        ``dt`` is a scalar or an array of durations; the result has its shape
        on the leading axes, and each entry is bitwise that of the duration
        alone.  Non-finite durations, and phases beyond the double range,
        raise ``ValidationError``.
        """

    @abstractmethod
    def kernels(self, exponentials: np.ndarray, source: np.ndarray, target: np.ndarray) -> np.ndarray:
        """The interval operators of :meth:`apply` and :meth:`effects`, from
        :meth:`exponentials`, one per leading entry of ``exponentials`` (each
        bitwise that of the entry alone).  ``source`` and ``target`` are the
        outcome bases of :meth:`apply`."""

    @abstractmethod
    def apply(self, state: np.ndarray, kernels: np.ndarray, source: np.ndarray, target: np.ndarray) -> np.ndarray:
        """The branch states E_xy = V_y† Λ_dt(V_x E_x V_x†) V_y, (..., m_s, m_t,
        r_t·D, r_t·D), of ``state`` (..., m_s, r_s·D, r_s·D), per outcome x of
        ``source`` the r_s×r_s grid of D×D blocks E_x with rows (α, a), for every
        outcome y of ``target``.  ``source`` and ``target`` are outcome bases
        (m, d, r) as :attr:`~dephaser.measurements.ProjectiveMeasurement.bases`,
        and ``kernels`` come from :meth:`kernels` for them: one kernel, or one
        per leading row of ``state`` (broadcasting against ``state.shape[:-3]``)."""

    @abstractmethod
    def effects(self, kernels: np.ndarray, source: np.ndarray, target: np.ndarray) -> np.ndarray:
        """The effect operators M_xy of ``kernels`` (the Heisenberg-picture
        readout), (..., m_s, m_t, r_s·D, r_s·D): tr E_xy = tr(E_x·M_xy) for the
        branch states E_xy that :meth:`apply` would build from E_x, so the
        probabilities of a last measurement need no branch state."""

    @abstractmethod
    def tensor_pairs(self, pairs: Sequence, durations: Sequence[float]) -> complex:
        """Tensor value for index pairs, ``pairs[k]`` over ``durations[k]``, one interval at a time (the
        pointwise reference); each index is in 0..d-1 (the argument rule of :mod:`dephaser.errors`), and as
        many pairs as durations are required (``ShapeError``)."""

    # Each concrete provider defines ``tensor_array`` (the values on a duration
    # grid, axes (j_1, l_1, ..., j_n, l_n)) and ``tensor_pairs`` in its own class
    # body, where per-class instrumentation (perfbench/tracing.py) wraps them.
    def dephasing_matrix(self, t, s) -> np.ndarray:
        """The matrices φ(t - s) of single-interval tensor values over [s, t], (..., d, d) for t, s of shape (...);
        a non-finite t or s raises ``ValidationError`` before t - s is formed."""
        if not (np.isfinite(t).all() and np.isfinite(s).all()):
            raise ValidationError(f"dephasing_matrix: need finite times, got t = {t}, s = {s}")
        if np.less(t, s).any():
            raise TimeOrderError(f"dephasing_matrix: t = {t} < s = {s}")
        return self.dephasings(np.subtract(t, s))

    def _check_pairs(self, pairs, durations) -> None:
        if len(pairs) != len(durations):
            raise ShapeError(f"tensor_pairs: {len(pairs)} index pairs for {len(durations)} durations")
        if any(dt < 0 for dt in durations):
            raise TimeOrderError(f"tensor_pairs: negative duration in {list(durations)}")
        for j, l in pairs:
            for index in (j, l):
                _integer("tensor_pairs", "index", index, 0, self.d - 1)


@dataclass(frozen=True)
class DephasingModel:
    """Exact finite-environment dephasing model.

    One Hermitian block Hamiltonian per dephasing-basis vector (d of them,
    each D×D), plus the initial environment state, stored as validated
    read-only copies: code downstream skips re-checking them.  The blocks are
    given as a sequence of D×D matrices and stored in one form, a (d, D, D)
    array stacked once per model (indexing, ``len`` and iteration give the
    blocks), which every provider of the model diagonalises as it is.  The
    stack is checked finite and Hermitian within ``HERM_TOL`` at once; only
    blocks that fail, or do not stack, are checked one by one, so that the
    error names the first failing block H_j.
    """

    blocks: np.ndarray
    env_state: np.ndarray

    def __post_init__(self):
        blocks = _stacked_blocks(self.blocks)
        big_d = blocks.shape[1]
        env = np.array(check_density(self.env_state, "env_state"))
        if env.shape != (big_d, big_d):
            raise ShapeError(f"DephasingModel: env_state dim {env.shape[0]} != block dim {big_d}")
        for a in (blocks, env):
            a.flags.writeable = False
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "env_state", env)

    @property
    def d(self) -> int:
        return self.blocks.shape[0]

    @property
    def env_dim(self) -> int:
        return self.blocks.shape[1]


def _stacked_blocks(blocks) -> np.ndarray:
    """The blocks as one (d, D, D) complex copy, checked finite and Hermitian within
    ``HERM_TOL`` in one pass over the stack.  Blocks that fail, or do not stack, go
    through the per-block checks, which name the first failing block."""
    try:
        stack = np.array(blocks, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        stack = np.empty(0)  # ragged or not numeric: the per-block checks say which block
    if stack.ndim == 3 and stack.size and stack.shape[1] == stack.shape[2] and np.isfinite(stack).all():
        with np.errstate(over="ignore"):  # a huge finite entry: an inf deviation, refused below
            if np.abs(stack - stack.conj().swapaxes(1, 2)).max() <= HERM_TOL:
                return stack
    checked = [check_hermitian(b, f"block H_{j}") for j, b in enumerate(blocks)]
    if not checked:
        raise ValidationError("DephasingModel: need at least one block")
    big_d = checked[0].shape[0]
    for j, b in enumerate(checked):
        if b.shape != (big_d, big_d):
            raise ShapeError(f"DephasingModel: block H_{j} has shape {b.shape}, expected ({big_d}, {big_d})")
    return np.stack(checked)


class ExactDephasingProvider(DephasingTensorProvider):
    """Dephasing dynamics by direct propagation of the environment blocks."""

    def __init__(self, model: DephasingModel):
        self.model = model
        self.d = model.d
        self.env = model.env_state
        self._eig = None
        self._batch = None  # the last distinct durations exponentiated together, and their U_j

    def _eigh(self) -> tuple:
        """The spectral decompositions H_j = V_j diag(w_j) V_j† of all blocks,
        (d, D) and (d, D, D): one eigendecomposition of the model's stored
        (d, D, D) stack, computed once per provider."""
        if self._eig is None:
            self._eig = hermitian_eigh(self.model.blocks)
        return self._eig

    @cached_property
    def _factor(self) -> tuple:
        """(B, s) of ρ_E (see :func:`_env_factor`), computed on first use, once per provider."""
        return _env_factor(self.env)

    def _unitaries_batch(self, dt) -> tuple:
        """(U, inverse) for a scalar or an array of durations: the stacked U_j
        of each distinct duration, (k, d, D, D), and the index into them of
        each entry of ``dt`` (shape dt.shape).

        One :meth:`exponentials` call takes the distinct durations; the last
        such batch is the provider's one memo, and serves any subset of it (the
        batch itself, uncopied, on an equal set), so the φ readers of one grid,
        or the chains of one sweep, exponentiate their durations once.
        """
        durations, inverse = _distinct(dt)
        if self._batch is not None:
            held, u = self._batch
            at = np.searchsorted(held, durations)
            if at.size == 0 or (at[-1] < len(held) and np.array_equal(held[at], durations)):
                return (u if len(at) == len(held) else u[at]), inverse
        u = self.exponentials(durations)
        u.flags.writeable = False  # shared by every caller of the batch
        self._batch = durations, u
        return u, inverse

    def propagator(self, j: int, dt: float) -> np.ndarray:
        """U_j(dt) = exp(-i·dt·H_j)."""
        j = _integer("propagator", "j", j, 0, self.d - 1)
        u, inverse = self._unitaries_batch(dt)
        return u[inverse, j]

    def dephasings(self, dt):
        """The one-interval Gram product over the strings U_j·B of the
        distinct durations, gathered back per entry of ``dt``."""
        u, inverse = self._unitaries_batch(dt)
        b, sign = self._factor
        return _gram(u @ b, sign)[inverse]

    def exponentials(self, dt):
        """The stacked U_j(dt), (..., d, D, D) for ``dt`` of shape (...), in one
        vectorised product."""
        return spectral_expm(*self._eigh(), np.asarray(dt, dtype=float)[..., None])

    def kernels(self, exponentials, source, target):
        """The Kraus operators K[..., x, (y, γ, a), (α, b)] = Σ_j conj(V_y[j, γ])·V_x[j, α]·U_j[a, b],
        i.e. K_xy = Σ_j (V_y† e_j)(e_j† V_x) ⊗ U_j, stacked over y, (..., m_s,
        m_t·r_t·D, r_s·D): one (m_s·m_t·r_t·r_s)×d by d×D² product per
        duration, on the coefficients of the two bases kept by :func:`_coefficients`."""
        lead, (d, big_d, _) = exponentials.shape[:-3], exponentials.shape[-3:]
        (ms, _, rs), (mt, _, rt) = source.shape, target.shape
        coef = _coefficients(source, target)
        k = (coef @ exponentials.reshape(lead + (d, big_d * big_d))).reshape(lead + (ms, mt, rt, rs, big_d, big_d))
        return k.swapaxes(-3, -2).reshape(lead + (ms, mt * rt * big_d, rs * big_d))

    def apply(self, state, kernels, source, target):
        """E_x -> K_xy E_x K_xy† for every outcome y of ``target``: one product
        per (row, x), the stacked K_x·E_x, then one per (row, x, y) with K_xy†;
        each of a fixed shape whatever the batch."""
        m, half = len(target), kernels @ state
        half = half.reshape(half.shape[:-2] + (m, -1, half.shape[-1]))
        return half @ kernels.reshape(kernels.shape[:-2] + (m, -1, kernels.shape[-1])).conj().swapaxes(-1, -2)

    def effects(self, kernels, source, target):
        """M_xy = K_xy†K_xy: one product per (duration, x, y)."""
        k = kernels.reshape(kernels.shape[:-2] + (len(target), -1, kernels.shape[-1]))
        return k.conj().swapaxes(-1, -2) @ k

    def tensor_pairs(self, pairs, durations) -> complex:
        """ρ_E conjugated interval by interval, with the U_j of all durations
        from one batch."""
        self._check_pairs(pairs, durations)
        u, inverse = self._unitaries_batch(durations)
        x = self.model.env_state
        for (j, l), k in zip(pairs, inverse):
            x = u[k, j] @ x @ u[k, l].conj().T
        return complex(np.trace(x))

    def tensor_array(self, durations) -> np.ndarray:
        """The Gram product over the strings L_J·B, one U_j per interval, all
        exponentiated in one call."""
        d, n = self.d, len(durations)
        b, sign = self._factor
        if d ** (2 * n) + d**n * b.size > TERM_CAP:
            raise SizeCapError(f"tensor_array: {d ** (2 * n)} + {d**n * b.size} entries exceed cap {TERM_CAP}")
        strings = b[None]
        for u in self.exponentials(durations):
            strings = _extend(strings, u)
        # rows (j_1, ..., j_n) and columns (l_1, ..., l_n), interleaved
        return _gram(strings, sign).reshape((d,) * 2 * n).transpose([a for k in range(n) for a in (k, n + k)])


#: basis-pair coefficients of at most this many entries are kept by
#: :func:`_coefficients`, the COEFFICIENT_CACHE most recently used; a larger
#: array is built per call.  A kept array holds at most 2^15 · 16 B = 512 KiB
#: and its key (the two bases' bytes, each no larger) at most 1 MiB, so the
#: memo holds at most 12 MiB.  An engine call reads two basis pairs (out of
#: the identity basis, and between outcome bases); with a rank-one PVM each
#: holds d³ entries, so every d <= 32 is kept (d = 5: 125 entries).
COEFFICIENT_ENTRIES = 1 << 15
COEFFICIENT_CACHE = 8


def _coefficients(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """C[(x, y, γ, α), j] = conj(V_y[j, γ])·V_x[j, α] of two outcome bases, the
    coefficients of the Kraus operators of
    :meth:`ExactDephasingProvider.kernels`, (m_s·m_t·r_t·r_s, d), read-only.

    They depend on the two bases only, so they are kept by contents (dtype,
    shape and bytes), not by identity: an equal basis built again reads the
    same array."""
    (ms, d, rs), (mt, _, rt) = source.shape, target.shape
    if ms * mt * rt * rs * d > COEFFICIENT_ENTRIES:
        return _basis_pair(source, target)
    return _kept_coefficients(*((a.dtype.str, a.shape, a.tobytes()) for a in (source, target)))


@lru_cache(maxsize=COEFFICIENT_CACHE)
def _kept_coefficients(source: tuple, target: tuple) -> np.ndarray:
    """:func:`_basis_pair` of two bases given as (dtype, shape, bytes)."""
    return _basis_pair(*(np.frombuffer(data, dtype).reshape(shape) for dtype, shape, data in (source, target)))


def _basis_pair(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    coef = np.einsum("yjg,xja->xygaj", target.conj(), source).reshape(-1, source.shape[1])
    coef.flags.writeable = False
    return coef


def _distinct(dt) -> tuple:
    """The sorted distinct durations of ``dt`` and the index into them of each
    entry (shape dt.shape), as np.unique(..., return_inverse=True) gives them,
    without its argsort (and without the hash table of np.unique's plain path,
    1.5 MB of peak RSS)."""
    dt = np.asarray(dt, dtype=float)
    ordered = np.sort(dt, axis=None)
    keep = np.ones(ordered.shape, dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    durations = ordered[keep]
    return durations, np.searchsorted(durations, dt)


def _env_factor(env: np.ndarray) -> tuple:
    """(B, s) with ρ_E = B·diag(s)·B† over the nonzero eigenvalues of ρ_E; s keeps the
    sign of an eigenvalue that ``check_density`` admits below 0, down to ``linalg.EIG_FLOOR``."""
    w, v = np.linalg.eigh(env)
    return v[:, w != 0] * np.sqrt(np.abs(w[w != 0])), np.sign(w[w != 0])


def _extend(strings: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Strings L_J·B (..., m, D, r) times the stacked U_j (..., d, D, D): the
    strings (..., m·d, D, r), new index fastest; one product per (row, J, j)."""
    lead, (m, big_d, r) = strings.shape[:-3], strings.shape[-3:]
    return (u[..., None, :, :, :] @ strings[..., :, None, :, :]).reshape(lead + (m * u.shape[-3], big_d, r))


def _gram(strings: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """T[..., J, L] = Σ_{a,c} A[..., J, a, c]·s[c]·conj(A[..., L, a, c]), one product per row."""
    rows = strings.reshape(strings.shape[:-2] + (strings.shape[-2] * strings.shape[-1],))  # -1 fails on 0 rows
    return (strings * sign).reshape(rows.shape) @ rows.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class MarkovianAnalyticModel:
    """Analytic dephasing model with per-pair exponential decay/rotation.

    Off-diagonal coherences (j, l) evolve with exp(-(i·eps[j,l] +
    gamma[j,l]/2)·dt).  eps must be antisymmetric and gamma symmetric and
    nonnegative so that the dephasing matrix is conjugate-symmetric.  Both
    are stored as read-only copies, so a later edit of the caller's arrays
    changes neither the model nor its φ.
    """

    eps: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        eps = np.asarray(self.eps, dtype=float)
        gamma = np.asarray(self.gamma, dtype=float)
        if eps.ndim != 2 or eps.shape[0] != eps.shape[1] or gamma.shape != eps.shape:
            raise ShapeError(f"MarkovianAnalyticModel: eps/gamma must be square and matching, got {eps.shape} vs {gamma.shape}")
        pair = np.array((eps, gamma))  # one read-only copy of both, whatever the caller does to theirs
        pair.flags.writeable = False
        eps, gamma = pair
        # one whole-array predicate per rule; x + y == 0 iff x == -y for finite doubles, so
        # the (anti)symmetry tests compare entries, and a huge entry cannot overflow a sum
        if not np.isfinite(pair).all():
            raise ValidationError("MarkovianAnalyticModel: eps and gamma must be finite")
        if pair.diagonal(axis1=1, axis2=2).any():
            raise ValidationError("MarkovianAnalyticModel: diagonals of eps and gamma must vanish")
        if (eps != -eps.T).any():
            raise ValidationError("MarkovianAnalyticModel: eps must be antisymmetric")
        if (gamma != gamma.T).any():
            raise ValidationError("MarkovianAnalyticModel: gamma must be symmetric")
        if (gamma < 0).any():
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

    def __init__(self, model: MarkovianAnalyticModel):
        self.model = model
        self.d = model.d
        self.env = np.ones((1, 1), dtype=complex)

    def dephasings(self, dt):
        """:meth:`exponentials`: the analytic interval stage is φ itself."""
        return self.exponentials(dt)

    def exponentials(self, dt):
        """The dephasing matrices φ(dt), (..., d, d) for ``dt`` of shape (...)."""
        if isinstance(dt, np.ndarray):
            dt = dt[..., None, None]
        return self.model.phi_matrix(dt)

    def kernels(self, exponentials, source, target):
        """φ itself: the analytic interval map needs no other operator."""
        return exponentials

    def apply(self, state, kernels, source, target):
        """E_x -> V_y† (φ ∘ V_x E_x V_x†) V_y, which is Σ_jl φ_jl·C_j E_x C_l† with
        C_j = (V_y† e_j)(e_j† V_x): the state lifted to the d×d grid, its
        coherences scaled, and projected with the target bases stacked over y."""
        (mt, d, rt) = target.shape
        lifted = source @ state @ source.conj().swapaxes(-1, -2) * kernels[..., None, :, :]
        half = target.conj().swapaxes(-1, -2).reshape(mt * rt, d) @ lifted
        return half.reshape(half.shape[:-2] + (mt, rt, d)) @ target

    def effects(self, kernels, source, target):
        """M_xy = V_x† (P_y ∘ φᵀ) V_x with P_y = V_y V_y†, since
        tr(P_y (φ ∘ L)) = tr((P_y ∘ φᵀ) L) for every L on the d×d grid: two
        products per (duration, x, y)."""
        weighted = (target @ target.conj().swapaxes(-1, -2)) * kernels.swapaxes(-1, -2)[..., None, :, :]
        half = source.conj().swapaxes(-1, -2)[:, None] @ weighted[..., None, :, :, :]
        return half @ source[:, None]

    def tensor_pairs(self, pairs, durations) -> complex:
        """The product of the entries φ_jl(dt) of :meth:`MarkovianAnalyticModel.phi_matrix`."""
        self._check_pairs(pairs, durations)
        factors = (self.model.phi_matrix(dt)[j, l] for (j, l), dt in zip(pairs, durations))
        return complex(math.prod(factors, start=1.0 + 0.0j))

    def tensor_array(self, durations) -> np.ndarray:
        """The outer product of the per-interval dephasing matrices."""
        if self.d ** (2 * len(durations)) > TERM_CAP:
            raise SizeCapError(f"tensor_array: {self.d ** (2 * len(durations))} entries exceed cap {TERM_CAP}")
        phis = (self.model.phi_matrix(dt) for dt in durations)
        return reduce(np.multiply.outer, phis, np.ones((), dtype=complex))


def semigroup_deficit(provider: DephasingTensorProvider, t0, t1, t2):
    """Max entrywise violation of φ(t2,t0) = φ(t2,t1)·φ(t1,t0), a necessary
    condition for the tensor factorization (identically zero for the analytic
    provider): a float for scalar times, an array for arrays that broadcast
    together.  The three matrices of a chunk are one stacked read."""

    def violation(t0, t1, t2):
        full, later, earlier = provider.dephasing_matrix(np.stack((t2, t2, t1)), np.stack((t0, t1, t0)))
        return full - later * earlier

    return _max_per_entry(violation, (t0, t1, t2), 3 * provider.d**2, "semigroup_deficit")


def _max_per_entry(matrices, times: tuple, entries: int, caller: str):
    """max|M| of M = matrices(*times) per entry of the broadcast, finite (else
    ``ValidationError``) and non-decreasing (else ``TimeOrderError``) ``times``: a float
    for scalars, else an array of their shape.  Flat chunks of TERM_CAP // ``entries``
    keep each array within TERM_CAP."""
    times = np.broadcast_arrays(*times)
    if not np.isfinite(times).all():  # a NaN fails the order test too, but is no order fault
        raise ValidationError(f"{caller}: need finite times, got {tuple(times)}")
    if not all((a <= b).all() for a, b in zip(times, times[1:])):
        raise TimeOrderError(f"{caller}: times {tuple(times)} are not non-decreasing")
    flat, chunk = [t.reshape(-1) for t in times], max(1, TERM_CAP // entries)
    out = np.zeros(flat[0].size)
    for lo in range(0, out.size, chunk):
        out[lo : lo + chunk] = np.abs(matrices(*(t[lo : lo + chunk] for t in flat))).max(axis=(-2, -1))
    return out.reshape(times[0].shape) if times[0].ndim else float(out[0])


def markovianity_deficit_detail(provider: ExactDephasingProvider, times: Sequence[float], max_order: int):
    """Max violation of the tensor factorization up to ``max_order`` intervals, and the details
    ``tuples`` compared entries and ``orders`` walked, 2..min(max_order, K - 1) for K times.

    Compares the exact tensor against the product of dephasing-matrix entries over all
    index-pair chains on every increasing selection of 3 to ``max_order`` + 1 of the ``times``.

    Walks the selections (rows of indices into the sorted times) as a prefix
    trie, one level of n intervals at a time, depth-first in chunks of rows
    holding at most ``TERM_CAP`` / (levels walked) entries (or of one row).  A
    row holds its strings L_J·B and the product F of its dephasing matrices; a
    child extends them by one U_j and one outer product with φ, and from n = 2
    on, each row's Gram product T gives max |T - F|.  The distinct pair
    durations are exponentiated once, in one batched call of the provider (whose
    memo the semigroup and triviality checks of the grid reuse), and their φ is
    ``provider.dephasings`` of them.
    The ``tuples`` compared entries are checked against ``MARKOV_WORK_CAP``,
    and the d·D² entries of U per distinct duration against ``TERM_CAP``,
    before any propagator is built.  Only an ``ExactDephasingProvider`` is
    accepted; any other provider raises ``ValidationError`` first.
    """
    if not isinstance(provider, ExactDephasingProvider):
        raise ValidationError(f"markovianity_deficit: requires an exact model, got {type(provider).__name__}")
    max_order = _integer("markovianity_deficit", "max_order", max_order, 2)
    times = np.sort(np.array([float(t) for t in times]))
    if not np.isfinite(times).all():
        raise ValidationError(f"markovianity_deficit: need finite times, got {times}")
    k, d = len(times), provider.d
    tuples = 0
    for n in range(2, min(max_order, k - 1) + 1):  # stops as soon as the cap is passed
        tuples += math.comb(k, n + 1) * d ** (2 * n)
        if tuples > MARKOV_WORK_CAP:
            raise SizeCapError(f"markovianity_deficit: over {MARKOV_WORK_CAP} compared entries for {k} times, d = {d}")
    detail = {"tuples": tuples, "orders": list(range(2, min(max_order, k - 1) + 1))}
    if k < 3:
        return 0.0, detail

    first, second = np.triu_indices(k, 1)
    durations, inverse = _distinct(times[second] - times[first])
    if len(durations) * d * provider.env.size > TERM_CAP:
        raise SizeCapError(f"markovianity_deficit: U_j of {len(durations)} durations exceed cap {TERM_CAP} entries")
    pair = np.zeros((k, k), dtype=np.intp)  # the distinct duration of each pair i < j
    pair[first, second] = inverse
    # U_j and φ of each distinct duration, from one exponentiation
    u, phi = provider._unitaries_batch(durations)[0], provider.dephasings(durations)
    b, sign = provider._factor
    top = min(max_order, k - 1)
    size = [max(1, TERM_CAP // top // (d**n * b.size + 2 * d ** (2 * n) + d * provider.env.size)) for n in range(top + 1)]

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


def triviality_check(provider: DephasingTensorProvider, grid: Sequence[float]) -> bool:
    """True iff every dephasing-matrix entry has unit modulus (within
    ``TRIVIALITY_TOL``) on the grid, all pairs read at once."""
    grid = np.sort(np.asarray(grid, dtype=float))
    first, second = np.triu_indices(len(grid), 1)  # the pairs of the Markovianity walk
    phi = provider.dephasing_matrix(grid[second], grid[first])
    return bool(np.abs(np.abs(phi) - 1.0).max(initial=0.0) <= TRIVIALITY_TOL)
