"""Dense complex linear-algebra kernel for finite-dimensional Hilbert spaces.

All operators are plain ``numpy`` complex arrays; the functions below supply
the validated constructors, spectral exponentials, tensor-product plumbing and
channel representations used by the rest of the package.

Conventions (used consistently everywhere):

* vectorization is column-stacking, ``vec(A)[c*d + r] = A[r, c]``, so that
  ``vec(A X B) = (B.T ⊗ A) vec(X)``;
* a superoperator on a d-dimensional system is a d²×d² matrix acting on
  vectorized operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, SizeCapError, ValidationError

# Tolerances: structural checks one-two orders above double-precision
# accumulation at the supported dimensions (total dim <= DIM_CAP).
HERM_TOL = 1e-12
TRACE_TOL = 1e-12
UNITARY_TOL = 1e-10
PSD_TOL = 1e-10

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
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"{name}: expected square matrix, got shape {m.shape}")
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


@dataclass(frozen=True)
class Superoperator:
    """A linear map on operators of a d-dimensional system.

    ``matrix`` is d²×d² acting on column-stacked vectorizations.
    """

    d: int
    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix, "Superoperator.matrix")
        n = check_square(m, "Superoperator.matrix")
        if n != self.d * self.d:
            raise ShapeError(f"Superoperator: matrix dim {n} != d² = {self.d ** 2}")
        object.__setattr__(self, "matrix", m)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = as_complex_matrix(rho, "Superoperator.apply input")
        if rho.shape != (self.d, self.d):
            raise ShapeError(f"Superoperator.apply: state shape {rho.shape} != ({self.d}, {self.d})")
        return unvec(self.matrix @ vec(rho), self.d)

    def compose(self, other: "Superoperator") -> "Superoperator":
        """self ∘ other (apply ``other`` first)."""
        if self.d != other.d:
            raise ShapeError("Superoperator.compose: dimension mismatch")
        return Superoperator(self.d, self.matrix @ other.matrix)

    def is_trace_preserving(self, tol: float = UNITARY_TOL) -> bool:
        # tr(S(X)) = tr(X) for all X  <=>  vec(1)† S = vec(1)†
        ident = vec(np.eye(self.d)).conj()
        return bool(np.max(np.abs(ident @ self.matrix - ident)) <= tol)


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m).T.reshape(-1)


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v).reshape(d, d).T


def conjugation_superoperator(u: np.ndarray) -> Superoperator:
    """The map X -> U X U† as a superoperator (column-stacking)."""
    u = as_complex_matrix(u, "conjugation operand")
    d = check_square(u, "conjugation operand")
    return Superoperator(d, np.kron(u.conj(), u))


def sandwich_superoperator(a: np.ndarray, b: np.ndarray) -> Superoperator:
    """The map X -> A X B as a superoperator (column-stacking)."""
    a = as_complex_matrix(a, "sandwich lhs")
    b = as_complex_matrix(b, "sandwich rhs")
    d = check_square(a, "sandwich lhs")
    if b.shape != (d, d):
        raise ShapeError("sandwich_superoperator: operand shapes differ")
    return Superoperator(d, np.kron(b.T, a))


def choi_matrix(s: Superoperator) -> np.ndarray:
    """Choi matrix C = sum_{ij} |i><j| ⊗ S(|i><j|) of a superoperator.

    The channel is completely positive iff C is PSD; trace preserving iff the
    partial trace of C over the output (second) factor is the identity.
    """
    d = s.d
    # C[i*d + r, j*d + c] = <r| S(|i><j|) |c> = Smat[c*d + r, j*d + i]
    m = s.matrix.reshape(d, d, d, d)  # indices [c, r, j, i]
    return m.transpose(3, 1, 2, 0).reshape(d * d, d * d)


def is_completely_positive(s: Superoperator, tol: float = PSD_TOL) -> bool:
    c = choi_matrix(s)
    c = 0.5 * (c + c.conj().T)
    return bool(np.linalg.eigvalsh(c).min() >= -tol)


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
