"""Experiment configuration: JSON schema, validation, object construction.

Config files are versioned JSON; complex matrices are nested arrays of
[re, im] pairs, real matrices plain nested numbers.  Validation errors name
the first failing field/invariant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .classicality import DEFAULT_TOL
from .errors import ValidationError
from .measurements import PhaseVector, ProjectiveMeasurement, dephasing_basis, fourier_mub, qubit_basis
from .models import (
    DephasingModel,
    DephasingTensorProvider,
    ExactDephasingProvider,
    MarkovianAnalyticModel,
    MarkovianAnalyticProvider,
)
from .presets import get_preset
from .statistics import SystemPreparation, TimeGrid

CONFIG_VERSION = 1

ANALYSIS_KINDS = ("classicality", "markovianity", "ncgd", "theta-sweep", "oracle-check")

#: A markovian generator L = −(iε + γ/2) is accepted iff min eig V†·L·V >= −CP_TOL·max|L|, V an
#: orthonormal basis of {x : Σx = 0}: φ(t) = exp∘(t·L) is then PSD for every t >= 0, so the
#: dephasing map is completely positive (Horn & Johnson, Topics in Matrix Analysis, ch. 6).  An
#: energy-difference ε_jl = ω_j − ω_l with γ = 0 has exact minimum 0 and reads it within a few
#: ulps of max|L| (−1e-17·max|L| at ω ~ 1e6); a non-CP generator reads −O(max|L|).
CP_TOL = 1e-12


class ConfigError(ValidationError):
    """Config file fails schema or invariant validation."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _number(node, kind, name: str):
    """``node`` as a finite float (``kind`` float) or an integral int (``kind`` int)."""
    try:
        value = kind(node)
        ok = not isinstance(node, bool) and math.isfinite(value) and value == float(node)
    except (TypeError, ValueError, OverflowError):
        ok = False
    _require(ok, f"{name}: expected {'a finite number' if kind is float else 'an integer'}, got {node!r}")
    return value


def _section(name: str, build, *args):
    """Run one section builder; invariant and coercion failures become ConfigError."""
    try:
        return build(*args)
    except ConfigError:
        raise
    except (ValidationError, TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _complex_matrix(node, name: str) -> np.ndarray:
    try:
        arr = np.asarray(node, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: not a numeric array ({exc})") from exc
    _require(arr.ndim == 3 and arr.shape[-1] == 2, f"{name}: expected nested [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _complex_vector(node, name: str) -> np.ndarray:
    arr = np.asarray(node, dtype=float)
    _require(arr.ndim == 2 and arr.shape[-1] == 2, f"{name}: expected a list of [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


@dataclass
class ExperimentConfig:
    """A fully validated experiment: constructed objects plus analysis knobs."""

    provider: DephasingTensorProvider
    preparation: SystemPreparation
    measurement: Optional[ProjectiveMeasurement]
    grid: TimeGrid
    analysis: dict

    @property
    def d(self) -> int:
        return self.provider.d


def _build_model(node):
    _require(isinstance(node, dict), "model: expected an object")
    kind = node.get("kind")
    if kind == "exact":
        if "preset" in node:
            model = get_preset(node["preset"])
            _require(isinstance(model, DephasingModel), f"model.preset: '{node['preset']}' is not an exact model")
        else:
            _require("blocks" in node and "env_state" in node, "model: exact model needs blocks and env_state (or preset)")
            blocks = [_complex_matrix(b, f"model.blocks[{j}]") for j, b in enumerate(node["blocks"])]
            env = _complex_matrix(node["env_state"], "model.env_state")
            model = DephasingModel(tuple(blocks), env)
        return ExactDephasingProvider(model)
    if kind == "markovian":
        if "preset" in node:
            model = get_preset(node["preset"])
            _require(
                isinstance(model, MarkovianAnalyticModel),
                f"model.preset: '{node['preset']}' is not a markovian model",
            )
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
    raise ConfigError(f"model.kind: expected 'exact' or 'markovian', got {kind!r}")


def _build_preparation(node, d: int) -> SystemPreparation:
    _require(isinstance(node, dict), "preparation: expected an object")
    kind = node.get("kind")
    if kind == "diagonal":
        weights = np.asarray(node.get("weights", []), dtype=float)
        _require(weights.size == d, f"preparation.weights: got {weights.size} entries for system dimension d = {d}")
        return SystemPreparation.diagonal(weights)
    if kind == "maximally-mixed":
        return SystemPreparation.maximally_mixed(d)
    if kind == "pure":
        v = _complex_vector(node.get("vector", []), "preparation.vector")
        _require(v.size == d, f"preparation.vector: length {v.size} != system dimension d = {d}")
        return SystemPreparation.pure(v)
    if kind == "explicit":
        m = _complex_matrix(node.get("matrix", []), "preparation.matrix")
        _require(m.shape == (d, d), f"preparation.matrix: shape {m.shape} != ({d}, {d})")
        return SystemPreparation(m)
    raise ConfigError(f"preparation.kind: unknown kind {kind!r}")


def _build_measurement(node, d: int) -> ProjectiveMeasurement:
    _require(isinstance(node, dict), "measurement: expected an object")
    kind = node.get("kind")
    if kind == "dephasing":
        return dephasing_basis(d)
    if kind == "mub":
        phases = node.get("phases", [0.0] * d)
        _require(len(phases) == d, f"measurement.phases: got {len(phases)} phases for system dimension d = {d}")
        return fourier_mub(d, PhaseVector(tuple(phases)))
    if kind == "qubit":
        _require(d == 2, f"measurement.kind 'qubit' requires d = 2, model has d = {d}")
        return qubit_basis(*(_number(node.get(k, 0.0), float, f"measurement.{k}") for k in ("theta", "phi")))
    if kind == "explicit":
        vectors = _complex_matrix(node.get("vectors", []), "measurement.vectors")
        _require(vectors.shape == (d, d), f"measurement.vectors: shape {vectors.shape} != ({d}, {d})")
        return ProjectiveMeasurement(vectors=vectors)
    raise ConfigError(f"measurement.kind: unknown kind {kind!r}")


def parse_config(doc: dict) -> ExperimentConfig:
    _require(isinstance(doc, dict), "config: top level must be an object")
    _require(doc.get("version") == CONFIG_VERSION, f"config.version: expected {CONFIG_VERSION}, got {doc.get('version')!r}")

    provider = _section("model", _build_model, doc.get("model"))
    d = provider.d

    grid_node = doc.get("grid")
    _require(isinstance(grid_node, dict), "grid: expected an object with t0 and times")
    t0 = _number(grid_node.get("t0", 0.0), float, "grid.t0")
    times = grid_node.get("times", [])
    _require(isinstance(times, (list, tuple)), f"grid.times: expected a list, got {times!r}")
    times = tuple(_number(t, float, f"grid.times[{k}]") for k, t in enumerate(times))
    grid = _section("grid", TimeGrid, t0, times)

    analysis = doc.get("analysis")
    _require(isinstance(analysis, dict), "analysis: expected an object")
    kind = analysis.get("kind")
    _require(kind in ANALYSIS_KINDS, f"analysis.kind: expected one of {ANALYSIS_KINDS}, got {kind!r}")
    analysis = dict(analysis)
    analysis["tolerance"] = _number(analysis.get("tolerance", DEFAULT_TOL), float, "analysis.tolerance")
    _require(analysis["tolerance"] >= 0, f"analysis.tolerance: expected a number >= 0, got {analysis['tolerance']!r}")
    analysis["max_order"] = _number(analysis.get("max_order", 3), int, "analysis.max_order")
    if "theta_points" in analysis:
        points = analysis["theta_points"] = _number(analysis["theta_points"], int, "analysis.theta_points")
        _require(points >= 1, f"analysis.theta_points: expected an integer >= 1, got {points!r}")

    if kind in ("markovianity", "oracle-check"):
        _require(isinstance(provider, ExactDephasingProvider), f"analysis.kind '{kind}' requires an exact model")

    measurement = None
    if "measurement" in doc and doc["measurement"] is not None:
        measurement = _section("measurement", _build_measurement, doc["measurement"], d)
    _require(
        measurement is not None or kind in ("markovianity", "theta-sweep"),
        f"analysis.kind '{kind}' requires a measurement section",
    )

    preparation = _section("preparation", _build_preparation, doc.get("preparation", {"kind": "maximally-mixed"}), d)

    return ExperimentConfig(provider, preparation, measurement, grid, analysis)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)
