"""Test-only reference computations built on the package's public stages.

Nothing in the package reads these; the tests hold the package against them.
"""

import itertools

import numpy as np

from dephaser.errors import ValidationError


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


def commutativity_check(model, tol=1e-12):
    """True iff all block commutators of ``model`` vanish within ``tol`` (max-norm)."""
    for a, b in itertools.combinations(model.blocks, 2):
        if np.max(np.abs(a @ b - b @ a)) > tol:
            return False
    return True
