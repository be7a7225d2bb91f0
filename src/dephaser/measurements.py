"""Projective measurements on the system space.

A PVM is given by orthonormal column vectors (rank-one) or by orthogonal
projectors summing to the identity (general PVMs, needed only for the
maximally-mixed-state analysis).  Either way it is stored in one form, the one
the propagation engine of :mod:`dephaser.statistics` reads: the orthonormal
bases V_x of the outcomes' ranges (:attr:`ProjectiveMeasurement.bases`).
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ShapeError, ValidationError
from .linalg import as_complex_matrix, check_square

GRAM_TOL = 1e-12
PROJ_TOL = 1e-10


@dataclass(frozen=True)
class PhaseVector:
    """Phase angles attached to the Fourier basis, gauge-fixed to phases[0] = 0."""

    phases: tuple

    def __post_init__(self):
        ph = tuple(float(p) for p in self.phases)
        if not all(np.isfinite(p) for p in ph):
            raise ValidationError(f"PhaseVector: non-finite entry in {ph}")
        # global-phase gauge: shift so the first phase vanishes
        ph = tuple(p - ph[0] for p in ph)
        object.__setattr__(self, "phases", ph)


class ProjectiveMeasurement:
    """A PVM with outcomes 0..m-1, stored as ``bases``: the V_x stacked read-only as
    (m, d, r), zero-padded to the largest rank r, so that P_x = V_x V_x†."""

    def __init__(self, vectors: Optional[np.ndarray] = None, projectors: Optional[Sequence[np.ndarray]] = None):
        if (vectors is None) == (projectors is None):
            raise ValidationError("ProjectiveMeasurement: give exactly one of vectors/projectors")
        if vectors is not None:
            v = as_complex_matrix(vectors, "ProjectiveMeasurement vectors")
            d = check_square(v, "ProjectiveMeasurement vectors")
            gram = v.conj().T @ v
            dev = np.max(np.abs(gram - np.eye(d)))
            if dev > GRAM_TOL:
                raise ValidationError(f"ProjectiveMeasurement: vectors not orthonormal, |Gram - 1| = {dev:.3e}")
            bases = v.T[:, :, None].copy()  # column x is the outcome-x vector
        else:
            ps = [as_complex_matrix(p, f"projector {x}") for x, p in enumerate(projectors)]
            if not ps:
                raise ValidationError("ProjectiveMeasurement: no projectors given")
            d = check_square(ps[0], "projector 0")
            for x, p in enumerate(ps):
                if p.shape != (d, d):
                    raise ShapeError(f"ProjectiveMeasurement: projector {x} shape {p.shape} != ({d}, {d})")
            for x, p in enumerate(ps):
                if np.max(np.abs(p - p.conj().T)) > PROJ_TOL:
                    raise ValidationError(f"ProjectiveMeasurement: projector {x} is not Hermitian")
                for y, q in enumerate(ps):
                    ref = p if x == y else np.zeros((d, d))
                    if np.max(np.abs(p @ q - ref)) > PROJ_TOL:
                        raise ValidationError(f"ProjectiveMeasurement: projectors {x}, {y} not orthogonal idempotents")
            if np.max(np.abs(sum(ps) - np.eye(d))) > PROJ_TOL:
                raise ValidationError("ProjectiveMeasurement: projectors do not sum to the identity")
            # a projector's eigenvalues are 0 or 1 (within PROJ_TOL); its range
            # is spanned by the eigenvectors of eigenvalue 1
            ranges = [v[:, w > 0.5] for w, v in (np.linalg.eigh(p) for p in ps)]
            bases = np.zeros((len(ranges), d, max(v.shape[1] for v in ranges)), dtype=complex)
            for x, v in enumerate(ranges):
                bases[x, :, : v.shape[1]] = v
        bases.flags.writeable = False
        self.d = d
        self.bases = bases

    @property
    def n_outcomes(self) -> int:
        return len(self.bases)

    @property
    def is_rank_one(self) -> bool:
        """True iff every outcome has rank exactly one: r = 1 and m = d (no zero projector)."""
        return self.bases.shape == (self.d, self.d, 1)

    @property
    def vectors(self) -> Optional[np.ndarray]:
        """The columns of a rank-one PVM, (d, m) and read-only; None if r > 1."""
        return self.bases[:, :, 0].T if self.is_rank_one else None

    def projector(self, x: int) -> np.ndarray:
        """P_x = V_x V_x†; anything but an integer outcome in 0..m-1 (a float too) raises ``ValidationError``."""
        if not isinstance(x, numbers.Integral) or not 0 <= x < self.n_outcomes:
            raise ValidationError(f"projector: outcome {x!r} is not an integer in 0..{self.n_outcomes - 1}")
        v = self.bases[x]
        # elementwise, not v @ v†: a rank-one projector is then np.outer of its column, bit for bit
        return (v[:, None, :] * v[None, :, :].conj()).sum(axis=-1)

    @functools.cached_property
    def channel_basis(self) -> np.ndarray:
        """Q, (d², Σ_x r_x²): orthonormal columns vec(V_x e_a e_b† V_x†) over outcomes x and
        a, b < r_x, with Q·Q† the channel's matrix; built on first use and read-only.
        vec stacks columns, vec(A)[c·d + r] = A[r, c], so vec(A·X·B) = (Bᵀ ⊗ A)·vec(X)."""
        v, used = self.bases, np.abs(self.bases).max(axis=1) > 0  # padding columns are zero
        q = np.einsum("xlb,xja->ljxab", v.conj(), v)[:, :, used[:, :, None] & used[:, None, :]].reshape(self.d**2, -1)
        q.flags.writeable = False
        return q


def dephasing_basis(d: int) -> ProjectiveMeasurement:
    """Measurement fully compatible with the dephasing (computational) basis."""
    if d < 2:
        raise ValidationError(f"dephasing_basis: d must be >= 2, got {d}")
    return ProjectiveMeasurement(vectors=np.eye(d, dtype=complex))


def fourier_mub(d: int, phases: Optional[PhaseVector] = None) -> ProjectiveMeasurement:
    """Phased discrete-Fourier basis, unbiased with respect to the dephasing one.

    Outcome-x vector: d^(-1/2) * sum_j omega^(j x) e^(i phases[j]) |j>, with
    omega = exp(2 pi i / d).
    """
    if d < 2:
        raise ValidationError(f"fourier_mub: d must be >= 2, got {d}")
    if phases is None:
        phases = PhaseVector((0.0,) * d)
    if len(phases.phases) != d:
        raise ShapeError(f"fourier_mub: need {d} phases, got {len(phases.phases)}")
    j = np.arange(d)
    omega = np.exp(2j * np.pi / d)
    cols = np.empty((d, d), dtype=complex)
    for x in range(d):
        cols[:, x] = omega ** (j * x) * np.exp(1j * np.asarray(phases.phases)) / np.sqrt(d)
    return ProjectiveMeasurement(vectors=cols)


def qubit_basis(theta: float, phi: float) -> ProjectiveMeasurement:
    """General qubit basis (cos t, e^{i p} sin t), (sin t, -e^{i p} cos t)."""
    if not (np.isfinite(theta) and np.isfinite(phi)):
        raise ValidationError(f"qubit_basis: angles must be finite, got theta = {theta!r}, phi = {phi!r}")
    c, s, e = np.cos(theta), np.sin(theta), np.exp(1j * phi)
    cols = np.array([[c, s], [e * s, -e * c]], dtype=complex)
    return ProjectiveMeasurement(vectors=cols)


def mub_check(a: ProjectiveMeasurement, b: ProjectiveMeasurement, tol: float = 1e-10) -> bool:
    """True iff all squared cross-overlaps equal 1/d within ``tol``."""
    if not (a.is_rank_one and b.is_rank_one):
        raise ValidationError("mub_check: only rank-one PVMs supported")
    if a.d != b.d:
        raise ShapeError(f"mub_check: dimension mismatch {a.d} vs {b.d}")
    overlaps = np.abs(a.vectors.conj().T @ b.vectors) ** 2
    return bool(np.max(np.abs(overlaps - 1.0 / a.d)) <= tol)


def dephasing_channel(m: ProjectiveMeasurement) -> np.ndarray:
    """The d²×d² matrix Q·Q† of the completely dephasing channel rho -> sum_x P_x rho P_x,
    for the PVM's :attr:`~ProjectiveMeasurement.channel_basis` Q."""
    return m.channel_basis @ m.channel_basis.conj().T
