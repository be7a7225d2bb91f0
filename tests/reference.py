"""Test-only reference computations built on the package's public stages.

Nothing in the package reads these; the tests hold the package against them.
"""

import itertools

import numpy as np

from dephaser.errors import TimeOrderError, ValidationError


def transfer(provider, state, dt, source, target):
    """The branch states after one interval of length ``dt`` and one
    measurement: ``provider.apply`` of the kernels of the exponentials of
    ``dt``, the composition of the stages that the engine calls one by one.

    ``state``, ``source`` and ``target`` are as for ``provider.apply``;
    ``dt`` is a scalar, or an array that broadcasts against
    ``state.shape[:-3]``.
    """
    return provider.apply(state, provider.kernels(provider.exponentials(dt), source, target), source, target)


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
