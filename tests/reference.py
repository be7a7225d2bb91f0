"""Test-only reference computations built on the package's public stages.

Nothing in the package reads these; the tests hold the package against them.
"""

import itertools
import json

import numpy as np

from dephaser.classicality import theta_sweep
from dephaser.errors import ShapeError, TimeOrderError, ValidationError
from dephaser.linalg import kron
from dephaser.models import ExactDephasingProvider, markovianity_deficit_detail
from dephaser.statistics import _check_tables


def transfer(provider, state, dt, source, target):
    """The branch states after one interval of length ``dt`` and one
    measurement: ``provider.apply`` of the kernels of the exponentials of
    ``dt``, the composition of the stages that the engine calls one by one.

    ``state``, ``source`` and ``target`` are as for ``provider.apply``;
    ``dt`` is a scalar, or an array that broadcasts against
    ``state.shape[:-3]``.
    """
    return provider.apply(state, provider.kernels(provider.exponentials(dt), source, target), source, target)


def basis_pair_coefficients(source, target):
    """C[(x, y, γ, α), j] = conj(V_y[j, γ])·V_x[j, α] of two outcome bases (m, d, r), the
    coefficients of the exact provider's Kraus operators, by one einsum per call."""
    return np.einsum("yjg,xja->xygaj", target.conj(), source).reshape(-1, source.shape[1])


def tensor_collapse_check(provider, pairs, durations, k):
    """|tensor_pairs(pairs) - tensor_pairs(pairs with diagonal pair k dropped)|.

    The dropped-pair value replaces the k-th two-sided conjugation with the
    identity map, keeping every other interval duration.  Always ~0 when k is
    the last pair; ~0 for any k when the provider factorizes or the blocks
    commute.
    """
    if not (0 <= k < len(pairs)):
        raise ValidationError(f"tensor_collapse_check: position {k} out of range")
    j, l = pairs[k]
    if j != l:
        raise ValidationError(f"tensor_collapse_check: pair {k} is ({j}, {l}), not diagonal")
    full = provider.tensor_pairs(pairs, durations)
    dropped = provider.tensor_pairs(
        [p for i, p in enumerate(pairs) if i != k],
        [dt for i, dt in enumerate(durations) if i != k],
    )
    return abs(full - dropped)


def factorization_deficit(provider, durations):
    """(max |T − Π_k φ_{j_k l_k}(dt_k)|, entries) over every index-pair chain
    ((j_1, l_1), ..., (j_n, l_n)) of one selection of times with these durations.

    T is ρ_E under the two-sided conjugation X <- U_j X U_l† of each interval, all
    chains of one length at a time, then traced; φ_jl(dt) = tr(U_j ρ_E U_l†).  Every
    U_j comes from one ``provider.exponentials`` call: a batched form of the
    per-chain ``tensor_pairs`` reference, independent of the Gram-product walk.
    """
    env = provider.model.env_state
    chains, factored = env[None], np.ones(1)
    for u in provider.exponentials(np.asarray(durations, dtype=float)):
        chains = np.einsum("jab,cbe,lfe->cjlaf", u, chains, u.conj(), optimize=True).reshape((-1,) + env.shape)
        factored = np.multiply.outer(factored, np.einsum("jab,bc,lac->jl", u, env, u.conj())).reshape(-1)
    tensor = np.trace(chains, axis1=-2, axis2=-1)
    return float(np.abs(tensor - factored).max()), tensor.size


def commutativity_check(model, tol=1e-12):
    """True iff all block commutators of ``model`` vanish within ``tol`` (max-norm)."""
    for a, b in itertools.combinations(model.blocks, 2):
        if np.max(np.abs(a @ b - b @ a)) > tol:
            return False
    return True


class GivenProjectors:
    """A general PVM as its projectors were given, for the references: it has the
    ``d``, ``n_outcomes`` and ``projector(x)`` that they read, and ``projector(x)``
    returns the given P_x, not one rebuilt from the ``bases`` under test."""

    def __init__(self, projectors):
        self.projectors = tuple(np.asarray(p, dtype=complex) for p in projectors)
        self.d, self.n_outcomes = len(self.projectors[0]), len(self.projectors)

    def projector(self, x):
        return self.projectors[x]


def vec(a):
    """Column-stacking vectorization, vec(A)[c·d + r] = A[r, c]."""
    return np.asarray(a).T.reshape(-1)


def unvec(v, d):
    """The d×d matrix whose :func:`vec` is ``v``."""
    return np.asarray(v).reshape(d, d).T


def channel_matrix(measurement):
    """The d²×d² matrix Σ_x P_x^T ⊗ P_x of ρ -> Σ_x P_x ρ P_x (column-stacking vec);
    ``measurement`` is a rank-one PVM or a :class:`GivenProjectors`."""
    return sum(np.kron(p.T, p) for p in map(measurement.projector, range(measurement.n_outcomes)))


def _reduced_matrix(provider, t, s):
    """The d²×d² diagonal matrix of the reduced map Λ_{t,s}, entry φ[j, l] at vec index l·d + j."""
    return np.diag(vec(provider.dephasing_matrix(t, s)))


def sandwich_identity_deficit(provider, measurement, t, s):
    """max|Δ·Λ·Δ − Λ·Δ| for scalar times, composed as d²×d² matrices: Δ the
    channel matrix of the measurement, Λ = diag(vec φ(t, s))."""
    delta = channel_matrix(measurement)
    lam = _reduced_matrix(provider, t, s)
    return float(np.max(np.abs(delta @ lam @ delta - lam @ delta)))


def ncgd_deficit(provider, measurement, t1, t2, t3):
    """max|Δ·Λ₃₂·Δ·Λ₂₁·Δ − Δ·Λ₃₁·Δ| for scalar times, composed as d²×d² matrices."""
    if not (t1 <= t2 <= t3):
        raise TimeOrderError(f"ncgd_deficit: need t1 <= t2 <= t3, got {(t1, t2, t3)}")
    delta = channel_matrix(measurement)
    lam32 = _reduced_matrix(provider, t3, t2)
    lam21 = _reduced_matrix(provider, t2, t1)
    lam31 = _reduced_matrix(provider, t3, t1)
    return float(np.max(np.abs(delta @ lam32 @ delta @ lam21 @ delta - delta @ lam31 @ delta)))


def json_text(payload):
    """``json.dumps(payload, indent=2, sort_keys=True)``, ``report.json`` less its last newline,
    through the standard library's (pure-Python, with ``indent``) encoder."""
    return json.dumps(payload, indent=2, sort_keys=True)


def csv_text(header, rows):
    """The CSV text of Python rows, one cell at a time: ``format(c, ".17g")`` of a float, ``str``
    of anything else."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format(c, ".17g") if isinstance(c, float) else str(c) for c in row))
    return "\n".join(lines) + "\n"


def classicality_rows(report):
    """The rows of a classicality ``deficits.csv``, one per record: order, position, the
    record's times padded with NaN to the report's widest order, and the deficit."""
    width = report.max_order_tested
    return [
        [r.order, r.position, *r.times, *[float("nan")] * (width - r.order), r.deficit] for r in report.records
    ]


def classicality_columns(tables, pool):
    """A classicality report's ``columns`` from its tables, one (order, position) at a
    time: each table checked, then per order n and interior position k the order-n
    tables summed over outcome axis k, that marginal checked, and its max |·|
    distance to the coarse tables, row by row.

    ``tables[n]`` holds one row of m^n entries per order-n tuple of pool indices, in
    ``combinations_with_replacement`` order; the coarse row of a tuple is found by
    dict lookup.  A failing table raises through the package's one rule.
    """
    p, max_order, m = len(pool), len(tables), tables[1].shape[1]
    levels = [list(itertools.combinations_with_replacement(range(p), n)) for n in range(max_order + 1)]
    row = [{t: k for k, t in enumerate(level)} for level in levels]

    def where(what, n):
        return lambda k: f"classicality_report: {what} at times {tuple(pool[i] for i in levels[n][k])}"

    for n in range(1, max_order + 1):
        _check_tables(tables[n], where("table", n))
    columns = []
    for n in range(2, max_order + 1):
        fine = tables[n].reshape((-1,) + (m,) * n)
        deficits = np.empty((len(fine), n - 1))
        for position in range(1, n):
            coarse = [row[n - 1][t[: position - 1] + t[position:]] for t in levels[n]]
            reduced = fine.sum(axis=position).reshape(len(fine), -1)
            _check_tables(reduced, where(f"marginal at position {position} of the table", n))
            deficits[:, position - 1] = np.abs(reduced - tables[n - 1][coarse]).max(axis=1)
        columns.append((np.array(levels[n], dtype=np.intp).reshape(-1, n), deficits))
    return columns


def distribution_rows(dist):
    """The rows of ``distribution_<n>.csv``: each outcome tuple in ``np.ndindex`` order and its
    clipped probability."""
    clipped = dist.clipped().reshape((dist.n_outcomes,) * dist.n)
    return [list(xs) + [float(clipped[xs])] for xs in np.ndindex(*clipped.shape)]


#: the config of test_12 (``tests/test_acceptance.py``), whose outputs are also a golden set
TEST_12 = {
    "version": 1,
    "model": {"kind": "exact", "preset": "qubit-zx"},
    "preparation": {"kind": "diagonal", "weights": [1.0, 0.0]},
    "measurement": {"kind": "mub"},
    "grid": {"t0": 0.0, "times": [0.8, 1.6, 2.4]},
    "analysis": {"kind": "classicality", "max_order": 3},
}

#: 2x2 config matrices of finite entries ([re, im] pairs) whose check overflows a
#: double: M - M† of the anti-Hermitian one, the trace of the diagonal one
HUGE_ANTI_HERMITIAN = [[[0.5, 0.0], [1e308, 0.0]], [[-1e308, 0.0], [0.5, 0.0]]]
HUGE_DIAGONAL = [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e308, 0.0]]]


def global_hamiltonian(model) -> np.ndarray:
    """H = Σ_j |j⟩⟨j| ⊗ H_j on the joint space, summed as d Kronecker products with the unit matrices |j⟩⟨j|."""
    d, big_d = model.d, model.env_dim
    h = np.zeros((d * big_d, d * big_d), dtype=complex)
    for j in range(d):
        e = np.zeros((d, d))
        e[j, j] = 1.0
        h += kron(e, model.blocks[j])
    return h


def random_hermitian(dim: int, seed: int) -> np.ndarray:
    """Seeded GUE-style Hermitian matrix, (G + G†)/2 with standard-normal G."""
    if dim < 1:
        raise ValidationError(f"random_hermitian: dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


def random_density(dim: int, seed: int) -> np.ndarray:
    """Seeded full-rank random density matrix, GG†/tr(GG†)."""
    if dim < 1:
        raise ValidationError(f"random_density: dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = g @ g.conj().T
    return w / np.trace(w).real


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Seeded Haar-like random unitary via QR of a complex Gaussian."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def is_rank_one(measurement) -> bool:
    """True iff every outcome of the PVM has rank exactly one: its ``bases`` are
    (d, d, 1), so r = 1 and m = d (no zero projector)."""
    return measurement.bases.shape == (measurement.d, measurement.d, 1)


def vectors(measurement):
    """The columns of a rank-one PVM, (d, m) and read-only, as its ``bases`` hold them; None if r > 1."""
    return measurement.bases[:, :, 0].T if is_rank_one(measurement) else None


def mub_check(a, b, tol: float = 1e-10) -> bool:
    """True iff all squared cross-overlaps of two rank-one PVMs equal 1/d within ``tol``."""
    if not (is_rank_one(a) and is_rank_one(b)):
        raise ValidationError("mub_check: only rank-one PVMs supported")
    if a.d != b.d:
        raise ShapeError(f"mub_check: dimension mismatch {a.d} vs {b.d}")
    overlaps = np.abs(vectors(a).conj().T @ vectors(b)) ** 2
    return bool(np.max(np.abs(overlaps - 1.0 / a.d)) <= tol)


def qubit_two_time_deficit_closed(provider, p, theta, x2, t2, t1, t0=0.0) -> float:
    """The closed-form 2-time qubit deficit at one angle: ``theta_sweep`` over [theta],
    which checks the inputs as the sweep does."""
    return float(theta_sweep(provider, p, [theta], t2, t1, t0, x2)[1][0])


def qubit_two_time_deficit_simplified(p, theta, x2, re_phi) -> float:
    """The Markovian-or-commuting specialization of the 2-time qubit deficit, the
    bare formula: with a single dephasing function φ (the one over the second
    interval) the bracket of the closed form collapses, and the deficit becomes
    (-1)^x2 · (1/2)(1/2 - p) · sin 2θ sin 4θ · (1 - Re φ)."""
    return float((-1) ** x2 * 0.5 * (0.5 - p) * np.sin(2 * theta) * np.sin(4 * theta) * (1.0 - re_phi))


def markovianity_deficit(model, times, max_order: int) -> float:
    """The deficit of ``markovianity_deficit_detail`` on the model's exact provider."""
    return markovianity_deficit_detail(ExactDephasingProvider(model), times, max_order)[0]


def delta_count(d: int, h: int) -> int:
    """Brute-force count of off-diagonal pairs with j - l = h modulo {0, ±d}.

    Must equal d for every admissible h (1 <= |h| <= d-1).
    """
    count = 0
    for j in range(d):
        for l in range(d):
            if j == l:
                continue
            for k in (-1, 0, 1):
                if j - l == h + k * d:
                    count += 1
    return count
