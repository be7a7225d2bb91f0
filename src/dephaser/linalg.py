"""Dense complex linear-algebra kernel for finite-dimensional Hilbert spaces.

All operators are plain ``numpy`` complex arrays; the functions below supply
the validated constructors, spectral exponentials and tensor-product plumbing
used by the rest of the package (the tests draw their seeded random instances
from ``tests/reference.py``).  The one vectorized (channel) form of the
package, its column-stacking convention included, is the channel basis of
:attr:`~dephaser.measurements.ProjectiveMeasurement.channel_basis`.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, SizeCapError, ValidationError

# Tolerances: structural checks one-two orders above double-precision
# accumulation at the supported dimensions (total dim <= DIM_CAP).
HERM_TOL = 1e-12
TRACE_TOL = 1e-12

#: hard cap on the total Hilbert-space dimension of any constructed operator
DIM_CAP = 4096


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d complex array and reject non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ShapeError(f"{name}: expected a 2-d array, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name}: contains NaN/Inf entries")
    return a


def check_square(m: np.ndarray, name: str = "matrix") -> int:
    if m.shape[0] != m.shape[1] or not m.size:
        raise ShapeError(f"{name}: expected a non-empty square matrix, got shape {m.shape}")
    return m.shape[0]


def check_hermitian(m, name: str = "operator", tol: float = HERM_TOL) -> np.ndarray:
    """Validate Hermiticity within ``tol`` (max-norm) and return the array."""
    a = as_complex_matrix(m, name)
    check_square(a, name)
    dev = np.max(np.abs(a - a.conj().T))
    if dev > tol:
        raise ValidationError(f"{name}: not Hermitian, max |M - M†| = {dev:.3e} > {tol:g}")
    return a


def check_density(m, name: str = "state", min_eig: float = -1e-10) -> np.ndarray:
    """Validate a density operator: Hermitian, unit trace, PSD within tolerance."""
    a = check_hermitian(m, name)
    tr = np.trace(a).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValidationError(f"{name}: trace = {tr!r}, expected 1 within {TRACE_TOL:g}")
    lo = np.linalg.eigvalsh(a).min()
    if lo < min_eig:
        raise ValidationError(f"{name}: minimum eigenvalue {lo:.3e} < {min_eig:g}")
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


def kron(a: np.ndarray, b: np.ndarray, cap: int = DIM_CAP) -> np.ndarray:
    """Kronecker product with a guard on the resulting dimension."""
    a = as_complex_matrix(a, "kron lhs")
    b = as_complex_matrix(b, "kron rhs")
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if max(rows, cols) > cap:
        raise SizeCapError(f"kron: result dimension {rows}x{cols} exceeds cap {cap}")
    return np.kron(a, b)
