"""Projective measurements on the system space.

A PVM is given by orthonormal column vectors (rank-one) or by orthogonal
projectors summing to the identity (general PVMs, needed only for the
maximally-mixed-state analysis).  Either way it is stored in one form, the one
the propagation engine of :mod:`dephaser.statistics` reads: the orthonormal
bases V_x of the outcomes' ranges (:attr:`ProjectiveMeasurement.bases`).
There is no second view: a rank-one PVM's vector for outcome x is
``bases[x, :, 0]``, and a PVM is rank-one iff ``bases.shape == (d, d, 1)``.
Each check is one array reduction over its deviation (the Gram matrix, or a
projector's Hermiticity, products and sum), and :func:`fourier_mub` builds
its d columns in one array expression.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ShapeError, ValidationError, _integer, _real
from .linalg import as_complex_matrix, check_square

GRAM_TOL = 1e-12
PROJ_TOL = 1e-10


@dataclass(frozen=True)
class PhaseVector:
    """Phase angles attached to the Fourier basis, gauge-fixed to phases[0] = 0."""

    phases: tuple

    def __post_init__(self):
        ph = tuple(float(p) for p in self.phases)
        if not all(map(math.isfinite, ph)):
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
            with np.errstate(over="ignore", invalid="ignore"):  # a huge entry: an inf or NaN Gram
                gram = v.conj().T @ v
            dev = np.abs(gram - np.eye(d)).max()
            if not dev <= GRAM_TOL:
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
            # a huge entry: an inf or NaN deviation, which fails the <= test
            with np.errstate(over="ignore", invalid="ignore"):
                for x, p in enumerate(ps):
                    if not np.abs(p - p.conj().T).max() <= PROJ_TOL:
                        raise ValidationError(f"ProjectiveMeasurement: projector {x} is not Hermitian")
                    for y, q in enumerate(ps):
                        ref = p if x == y else np.zeros((d, d))
                        if not np.abs(p @ q - ref).max() <= PROJ_TOL:
                            raise ValidationError(f"ProjectiveMeasurement: projectors {x}, {y} not orthogonal idempotents")
                if not np.abs(sum(ps) - np.eye(d)).max() <= PROJ_TOL:
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

    def projector(self, x: int) -> np.ndarray:
        """P_x = V_x V_x† of outcome x in 0..m-1 (the argument rule of :mod:`dephaser.errors`)."""
        v = self.bases[_integer("projector", "outcome", x, 0, self.n_outcomes - 1)]
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
    d = _integer("dephasing_basis", "d", d, 2)
    return ProjectiveMeasurement(vectors=np.eye(d, dtype=complex))


def fourier_mub(d: int, phases: Optional[PhaseVector] = None) -> ProjectiveMeasurement:
    """Phased discrete-Fourier basis, unbiased with respect to the dephasing one.

    Outcome-x vector: d^(-1/2) * sum_j omega^(j x) e^(i phases[j]) |j>, with
    omega = exp(2 pi i / d).
    """
    d = _integer("fourier_mub", "d", d, 2)
    if phases is None:
        phases = PhaseVector((0.0,) * d)
    if len(phases.phases) != d:
        raise ShapeError(f"fourier_mub: need {d} phases, got {len(phases.phases)}")
    j = np.arange(d)
    # column x is omega^(j·x)·e^(i·phases[j]) / sqrt(d), each entry as one column at a time gave it
    cols = np.exp(2j * np.pi / d) ** np.multiply.outer(j, j) * np.exp(1j * np.asarray(phases.phases))[:, None] / np.sqrt(d)
    return ProjectiveMeasurement(vectors=cols)


def qubit_basis(theta: float, phi: float) -> ProjectiveMeasurement:
    """General qubit basis (cos t, e^{i p} sin t), (sin t, -e^{i p} cos t)."""
    theta, phi = _real("qubit_basis", "theta", theta), _real("qubit_basis", "phi", phi)
    c, s, e = np.cos(theta), np.sin(theta), np.exp(1j * phi)
    cols = np.array([[c, s], [e * s, -e * c]], dtype=complex)
    return ProjectiveMeasurement(vectors=cols)


def dephasing_channel(m: ProjectiveMeasurement) -> np.ndarray:
    """The d²×d² matrix Q·Q† of the completely dephasing channel rho -> sum_x P_x rho P_x,
    for the PVM's :attr:`~ProjectiveMeasurement.channel_basis` Q."""
    return m.channel_basis @ m.channel_basis.conj().T
