"""Dense complex linear-algebra kernel for finite-dimensional Hilbert spaces.

All operators are plain ``numpy`` complex arrays; the functions below supply
the validated constructors, spectral exponentials and tensor-product plumbing
used by the rest of the package (the tests draw their seeded random instances
from ``tests/reference.py``).  The one vectorized (channel) form of the
package, its column-stacking convention included, is the channel basis of
:attr:`~dephaser.measurements.ProjectiveMeasurement.channel_basis`.  Each
check reads its tolerance or cap from the named constants below.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, ValidationError, _capped

# Tolerances: structural checks one-two orders above double-precision
# accumulation at the supported dimensions (total dim <= DIM_CAP).
HERM_TOL = 1e-12
TRACE_TOL = 1e-12

#: least eigenvalue of a density operator: a state given to ten digits (decimal text
#: in a config) or built from products of unitaries has roundoff-negative eigenvalues,
#: which this admits, while a state that is not PSD is refused.
EIG_FLOOR = -1e-10

#: hard cap on the total Hilbert-space dimension of any constructed operator
DIM_CAP = 4096


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d complex array and reject non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ShapeError(f"{name}: expected a 2-d array, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValidationError(f"{name}: contains NaN/Inf entries")
    return a


def check_square(m: np.ndarray, name: str = "matrix") -> int:
    if m.shape[0] != m.shape[1] or not m.size:
        raise ShapeError(f"{name}: expected a non-empty square matrix, got shape {m.shape}")
    return m.shape[0]


def check_hermitian(m, name: str = "operator") -> np.ndarray:
    """Validate Hermiticity within ``HERM_TOL`` (max-norm) and return the array; a
    deviation past the double range (from huge finite entries) is refused, unwarned."""
    a = as_complex_matrix(m, name)
    check_square(a, name)
    with np.errstate(over="ignore"):
        dev = np.abs(a - a.conj().T).max()
    if not dev <= HERM_TOL:
        raise ValidationError(f"{name}: not Hermitian, max |M - M†| = {dev:.3e} > {HERM_TOL:g}")
    return a


def check_density(m, name: str = "state") -> np.ndarray:
    """Validate a density operator: Hermitian, unit trace within ``TRACE_TOL`` (a trace
    past the double range is refused, unwarned) and eigenvalues >= ``EIG_FLOOR``."""
    a = check_hermitian(m, name)
    # summed as Python floats, a trace past the double range is inf or nan, not a numpy warning
    tr = sum(a.diagonal().real.tolist())
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise ValidationError(f"{name}: trace = {tr!r}, expected 1 within {TRACE_TOL:g}")
    lo = np.linalg.eigvalsh(a).min()
    if not lo >= EIG_FLOOR:
        raise ValidationError(f"{name}: minimum eigenvalue {lo:.3e} < {EIG_FLOOR:g}")
    return a


def hermitian_eigh(h: np.ndarray):
    """Spectral decomposition (w, V) of a Hermitian matrix, H = V diag(w) V†.

    ``h`` may be a stack (..., n, n): then ``w`` is (..., n) and ``V``
    (..., n, n), each matrix decomposed as it would be alone.  ``h`` is not
    re-validated: callers pass a checked matrix (the stacked blocks of
    a ``DephasingModel``, stored read-only, or the input of
    :func:`hermitian_expm`, checked there).  A failed decomposition raises
    ``np.linalg.LinAlgError`` (an analysis failure, not an invalid input).
    """
    return np.linalg.eigh(h)


def spectral_expm(w: np.ndarray, v: np.ndarray, tau) -> np.ndarray:
    """exp(-i·tau·H) from the spectral decomposition H = V diag(w) V†.

    Vectorised over leading axes: ``w`` is (..., n), ``v`` is (..., n, n) and
    ``tau`` broadcasts against ``w.shape[:-1]``.  A non-finite tau, or a phase
    tau·w beyond the double range, raises ``ValidationError`` (numpy warns of
    nothing).
    """
    tau = np.asarray(tau, dtype=float)
    # a non-finite tau, or a finite one whose phase overflows, gives NaN entries
    with np.errstate(over="ignore", invalid="ignore"):
        u = (v * np.exp(-1j * tau[..., None] * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    if not np.isfinite(u).all():
        raise ValidationError(
            f"spectral_expm: exp(-i·tau·w) is not finite (a non-finite tau, or tau·w beyond the double "
            f"range); max |tau| = {float(np.abs(tau).max())!r}"
        )
    return u


def hermitian_expm(h: np.ndarray, tau: float) -> np.ndarray:
    """Unitary propagator exp(-i·tau·H) of a Hermitian generator.

    Computed through the spectral decomposition H = V diag(w) V†, which is
    exact up to eigensolver accuracy for Hermitian input (no Padé scaling
    needed).
    """
    return spectral_expm(*hermitian_eigh(check_hermitian(h, "hermitian_expm input")), tau)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with a guard (``DIM_CAP``) on the resulting dimension."""
    a = as_complex_matrix(a, "kron lhs")
    b = as_complex_matrix(b, "kron rhs")
    _capped("kron", "rows or columns in the result", max(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]), DIM_CAP)
    return np.kron(a, b)
