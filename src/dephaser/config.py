"""Experiment configuration: JSON schema, validation, object construction.

Config files are versioned JSON; complex matrices are nested arrays of
[re, im] pairs, real matrices plain nested numbers.  Validation errors name
the first failing field/invariant, checked in this order: ``version``, then
the fields that need no model (``grid``, the ``analysis`` kind, its numbers
and its least number of times), then the model, the phase bound and the
exact-model rule, then the measurement, the preparation and the rules on
them, and last the size estimate of the analysis kind (``SizeCapError``).
A document that breaks a model-independent field is refused before any
model is built, so a config with several faults reports its ``grid`` or
``analysis`` fault first.  Each constructed object checks its arrays in one
pass (see :class:`~dephaser.models.DephasingModel`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .classicality import DEFAULT_TOL, _report_size
from .errors import ValidationError, _capped, _shown
from .measurements import ProjectiveMeasurement, dephasing_basis, fourier_mub, qubit_basis
from .models import (
    DephasingModel,
    DephasingTensorProvider,
    ExactDephasingProvider,
    MarkovianAnalyticModel,
    MarkovianAnalyticProvider,
    _walk_size,
)
from .presets import get_preset
from .statistics import SystemPreparation, TimeGrid, _joint_size, _oracle_size

CONFIG_VERSION = 1


@dataclass(frozen=True)
class AnalysisRules:
    """What one analysis kind reads (else exit 2) and its size estimate (exit 3); :func:`parse_config` checks both."""

    size: Callable  # of the built (provider, measurement, grid, analysis): env, bases, times and numbers
    exact: bool = False  # an exact (finite-environment) model
    measurement: bool = True  # a measurement section
    min_times: int = 1  # least number of grid times
    min_order: Optional[int] = None  # least analysis.max_order, for a kind that reads one
    qubit_diagonal: bool = False  # d = 2 and a diagonal preparation


#: cap on the time triples of an NCGD run, C(K, 3) for K times, each a d²×d² lift and a CSV row: at
#: the cap (K = 67, D = 4) a run takes 0.2 s at d = 2 and 3.5 s at d = 8 on one core of a 2-vCPU x86 VM.
NCGD_TRIPLE_CAP = 50_000
#: cap on the angles of a theta-sweep run, one CSV row of about 41 bytes each: at the cap a run
#: writes 4 MB in about 0.2 s on one core of a 2-vCPU x86 VM, most of it formatting floats.
THETA_POINTS_CAP = 100_000

#: the rules and the size estimate of each analysis kind, one runner per key in ``cli``
ANALYSES = {
    "classicality": AnalysisRules(lambda p, m, g, a: _report_size(p, m, len(set(g.times)), a["max_order"]), min_order=2),
    "markovianity": AnalysisRules(
        lambda p, m, g, a: _walk_size(p, np.sort(g.times), a["max_order"]), exact=True, measurement=False, min_order=2
    ),
    "ncgd": AnalysisRules(lambda p, m, g, a: _capped("ncgd", "time triples", math.comb(g.n, 3), NCGD_TRIPLE_CAP), min_times=3),
    "theta-sweep": AnalysisRules(
        lambda p, m, g, a: _capped("theta-sweep", "angles", a["theta_points"], THETA_POINTS_CAP),
        measurement=False, min_times=2, qubit_diagonal=True,
    ),
    # the oracle's caps, then those of the branch-state route it is checked against
    "oracle-check": AnalysisRules(lambda p, m, g, a: (_oracle_size(p.model, m, g.n), _joint_size(p, m, g.n)), exact=True),
}

#: largest |off-diagonal entry| of a preparation that theta-sweep takes as diagonal:
#: its closed form reads only p = ρ_00, so coherences must vanish up to roundoff.
DIAGONAL_TOL = 1e-14

#: A markovian generator L = −(iε + γ/2) is accepted iff min eig V†·L·V >= −CP_TOL·max|L|, V an
#: orthonormal basis of {x : Σx = 0}: φ(t) = exp∘(t·L) is then PSD for every t >= 0, so the
#: dephasing map is completely positive (Horn & Johnson, Topics in Matrix Analysis, ch. 6).  An
#: energy-difference ε_jl = ω_j − ω_l with γ = 0 has exact minimum 0 and reads it within a few
#: ulps of max|L| (−1e-17·max|L| at ω ~ 1e6); a non-CP generator reads −O(max|L|).
CP_TOL = 1e-12

#: largest phase t·‖H‖ a config may reach, t the largest |time| of its grid (t0 included) and
#: ‖H‖ a bound on the model's frequencies (:func:`_frequency_bound`).  A phase t·w is formed in
#: doubles from t and w, each known to a relative 2^-52, so it carries an error near
#: t·‖H‖·2^-52 rad: 2·10^-7 rad at this bound, where tables still hold about seven digits,
#: against 0.2 rad at t·‖H‖ = 10^15, where exp(-i·t·w) is noise.  The library stays permissive.
PHASE_BOUND = 1e9


class ConfigError(ValidationError):
    """Config file fails schema or invariant validation."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _number(node, kind, name: str, least=None):
    """``node`` as a finite float (``kind`` float) or an integral int (``kind`` int), and >= ``least`` if given."""
    try:
        value = kind(node)
        # an int node or integer string is read exactly, however large (10**30 != float(10**30))
        exact = kind is int and isinstance(node, (int, str))
        ok = not isinstance(node, bool) and (exact or (math.isfinite(value) and value == float(node)))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not (ok and (least is None or value >= least)):
        expected = ("a finite number" if kind is float else "an integer") + ("" if least is None else f" >= {least}")
        raise ConfigError(f"{name}: expected {expected}, got {_shown(node)}")
    return value


def _numbers(node, name: str) -> tuple:
    """``node``, a list, as a tuple of finite floats, each entry read by :func:`_number`."""
    if not isinstance(node, (list, tuple)):
        raise ConfigError(f"{name}: expected a list, got {_shown(node)}")
    return tuple(_number(x, float, f"{name}[{k}]") for k, x in enumerate(node))


def _section(name: str, build, *args):
    """Run one section builder; invariant and coercion failures become ConfigError."""
    try:
        return build(*args)
    except ConfigError:
        raise
    except (ValidationError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _complex_array(node, name: str, ndim: int) -> np.ndarray:
    """``node``, nested finite [re, im] pairs, as a complex array of ``ndim`` dimensions."""
    try:
        arr = np.asarray(node, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: not a numeric array ({exc})") from exc
    _require(arr.ndim == ndim + 1 and arr.shape[-1] == 2, f"{name}: expected nested [re, im] pairs")
    # checked before 1j * inf, which computes 0 * inf
    _require(np.isfinite(arr).all(), f"{name}: entries must be finite")
    return arr[..., 0] + 1j * arr[..., 1]


@dataclass
class ExperimentConfig:
    """A fully validated experiment: constructed objects plus analysis knobs.

    ``analysis`` has ``tolerance`` >= 0, ``max_order`` and ``theta_points`` >= 1 (by default
    ``DEFAULT_TOL``, 3 and 181), and the config meets ``ANALYSES[analysis["kind"]]``, its size
    estimate included."""

    provider: DephasingTensorProvider
    preparation: SystemPreparation
    measurement: Optional[ProjectiveMeasurement]
    grid: TimeGrid
    analysis: dict


def _build_model(node):
    _require(isinstance(node, dict), "model: expected an object")
    kind = node.get("kind")
    if kind == "exact":
        if "preset" in node:
            model = get_preset(node["preset"])
            _require(isinstance(model, DephasingModel), f"model.preset: '{node['preset']}' is not an exact model")
        else:
            _require("blocks" in node and "env_state" in node, "model: exact model needs blocks and env_state (or preset)")
            blocks = [_complex_array(b, f"model.blocks[{j}]", 2) for j, b in enumerate(node["blocks"])]
            env = _complex_array(node["env_state"], "model.env_state", 2)
            model = DephasingModel(tuple(blocks), env)
        return ExactDephasingProvider(model)
    if kind == "markovian":
        if "preset" in node:
            model = get_preset(node["preset"])
            _require(isinstance(model, MarkovianAnalyticModel), f"model.preset: '{node['preset']}' is not a markovian model")
        else:
            _require("eps" in node and "gamma" in node, "model: markovian model needs eps and gamma (or preset)")
            model = MarkovianAnalyticModel(np.asarray(node["eps"], float), np.asarray(node["gamma"], float))
        # P·L·P, P the projector onto {x : Σx = 0}, has the eigenvalues of V†·L·V and a 0
        rate, proj = -(1j * model.eps + 0.5 * model.gamma), np.eye(model.d) - 1.0 / model.d
        low = np.linalg.eigvalsh(proj @ rate @ proj).min()
        _require(
            low >= -CP_TOL * np.abs(rate).max(),
            f"model: -(i·eps + gamma/2) has eigenvalue {low:.3e} < 0 on sum-zero vectors, so phi(t) is not PSD "
            "and the dephasing map not completely positive",
        )
        return MarkovianAnalyticProvider(model)
    raise ConfigError(f"model.kind: expected 'exact' or 'markovian', got {_shown(kind)}")


def _frequency_bound(provider: DephasingTensorProvider) -> float:
    """‖H‖, a bound on every frequency of the model: the largest absolute row sum of a block
    (it bounds the block's eigenvalues), or max|ε| + max γ/2 for a markovian model.  A bound too
    large for a double is inf."""
    model = provider.model
    if isinstance(provider, ExactDephasingProvider):
        with np.errstate(over="ignore"):
            return float(np.abs(model.blocks).sum(axis=-1).max())
    return float(np.abs(model.eps).max()) + 0.5 * float(model.gamma.max())


def _build_preparation(node, d: int) -> SystemPreparation:
    _require(isinstance(node, dict), "preparation: expected an object")
    kind = node.get("kind")
    if kind == "diagonal":
        weights = _numbers(node.get("weights", []), "preparation.weights")
        _require(len(weights) == d, f"preparation.weights: got {len(weights)} entries for system dimension d = {d}")
        return SystemPreparation.diagonal(weights)
    if kind == "maximally-mixed":
        return SystemPreparation.maximally_mixed(d)
    if kind == "pure":
        v = _complex_array(node.get("vector", []), "preparation.vector", 1)
        _require(v.size == d, f"preparation.vector: length {v.size} != system dimension d = {d}")
        return SystemPreparation.pure(v)
    if kind == "explicit":
        m = _complex_array(node.get("matrix", []), "preparation.matrix", 2)
        _require(m.shape == (d, d), f"preparation.matrix: shape {m.shape} != ({d}, {d})")
        return SystemPreparation(m)
    raise ConfigError(f"preparation.kind: unknown kind {_shown(kind)}")


def _build_measurement(node, d: int) -> ProjectiveMeasurement:
    _require(isinstance(node, dict), "measurement: expected an object")
    kind = node.get("kind")
    if kind == "dephasing":
        return dephasing_basis(d)
    if kind == "mub":
        phases = _numbers(node.get("phases", [0.0] * d), "measurement.phases")
        _require(len(phases) == d, f"measurement.phases: got {len(phases)} phases for system dimension d = {d}")
        return fourier_mub(d, phases)
    if kind == "qubit":
        _require(d == 2, f"measurement.kind 'qubit' requires d = 2, model has d = {d}")
        return qubit_basis(*(_number(node.get(k, 0.0), float, f"measurement.{k}") for k in ("theta", "phi")))
    if kind == "explicit":
        vectors = _complex_array(node.get("vectors", []), "measurement.vectors", 2)
        _require(vectors.shape == (d, d), f"measurement.vectors: shape {vectors.shape} != ({d}, {d})")
        return ProjectiveMeasurement(vectors=vectors)
    raise ConfigError(f"measurement.kind: unknown kind {_shown(kind)}")


def parse_config(doc: dict) -> ExperimentConfig:
    _require(isinstance(doc, dict), "config: top level must be an object")
    version = doc.get("version")
    # true == 1 in Python, so a JSON boolean is refused by type
    if not (version == CONFIG_VERSION and not isinstance(version, bool)):
        raise ConfigError(f"config.version: expected {CONFIG_VERSION}, got {_shown(version)}")

    # the fields that need no model come first, so a document that breaks one builds no model
    grid_node = doc.get("grid")
    _require(isinstance(grid_node, dict), "grid: expected an object with t0 and times")
    t0 = _number(grid_node.get("t0", 0.0), float, "grid.t0")
    times = _numbers(grid_node.get("times", []), "grid.times")
    grid = _section("grid", TimeGrid, t0, times)

    analysis = doc.get("analysis")
    _require(isinstance(analysis, dict), "analysis: expected an object")
    kind = analysis.get("kind")
    if not (isinstance(kind, str) and kind in ANALYSES):
        raise ConfigError(f"analysis.kind: expected one of {tuple(ANALYSES)}, got {_shown(kind)}")
    rules = ANALYSES[kind]
    analysis = {"tolerance": DEFAULT_TOL, "max_order": 3, "theta_points": 181, **analysis}
    analysis["tolerance"] = _number(analysis["tolerance"], float, "analysis.tolerance", 0)
    analysis["max_order"] = _number(analysis["max_order"], int, "analysis.max_order", rules.min_order)
    analysis["theta_points"] = _number(analysis["theta_points"], int, "analysis.theta_points", 1)
    _require(grid.n >= rules.min_times, f"grid.times: analysis.kind '{kind}' needs at least {rules.min_times} times")

    provider = _section("model", _build_model, doc.get("model"))
    d = provider.d
    phase = max(map(abs, (grid.t0,) + grid.times)) * _frequency_bound(provider)
    if not phase <= PHASE_BOUND:
        # a ValidationError, as a run reports a phase that overflows, so both read alike
        raise ValidationError(
            f"grid.times: phase t·|H| = {phase:.3e} exceeds {PHASE_BOUND:g} (t the largest |time|, |H| a bound "
            "on the model's frequencies), beyond which exp(-i·t·w) loses its digits"
        )
    _require(isinstance(provider, ExactDephasingProvider) or not rules.exact, f"analysis.kind '{kind}' requires an exact model")

    node = doc.get("measurement")
    measurement = None if node is None else _section("measurement", _build_measurement, node, d)
    _require(measurement is not None or not rules.measurement, f"analysis.kind '{kind}' requires a measurement section")

    preparation = _section("preparation", _build_preparation, doc.get("preparation", {"kind": "maximally-mixed"}), d)
    if rules.qubit_diagonal:
        rho = preparation.density
        _require(d == 2, f"{kind} requires d = 2, model has d = {d}")
        _require(np.abs(rho - np.diag(np.diag(rho))).max() <= DIAGONAL_TOL, f"{kind} requires a diagonal preparation")
        # check_density lets an eigenvalue dip below 0 by roundoff, but p = ρ_00 is a probability
        if not 0 <= rho[0, 0].real <= 1:
            raise ConfigError(f"{kind} requires rho_00 in [0, 1], got {float(rho[0, 0].real)!r}")

    rules.size(provider, measurement, grid, analysis)  # last, after every exit-2 rule
    return ExperimentConfig(provider, preparation, measurement, grid, analysis)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, bytes that are not UTF-8, an int literal past Python's digit
        # limit or arrays nested past the recursion limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)
