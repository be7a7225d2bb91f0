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
    exact_model: Optional[DephasingModel]
    preparation: SystemPreparation
    measurement: Optional[ProjectiveMeasurement]
    grid: TimeGrid
    analysis: dict
    output_format: str

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
        return ExactDephasingProvider(model), model
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
        return MarkovianAnalyticProvider(model), None
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
        return qubit_basis(float(node.get("theta", 0.0)), float(node.get("phi", 0.0)))
    if kind == "explicit":
        vectors = _complex_matrix(node.get("vectors", []), "measurement.vectors")
        _require(vectors.shape == (d, d), f"measurement.vectors: shape {vectors.shape} != ({d}, {d})")
        return ProjectiveMeasurement(vectors=vectors)
    raise ConfigError(f"measurement.kind: unknown kind {kind!r}")


def parse_config(doc: dict) -> ExperimentConfig:
    _require(isinstance(doc, dict), "config: top level must be an object")
    _require(doc.get("version") == CONFIG_VERSION, f"config.version: expected {CONFIG_VERSION}, got {doc.get('version')!r}")

    provider, exact_model = _section("model", _build_model, doc.get("model"))
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
    analysis["tolerance"] = _number(analysis.get("tolerance", 1e-9), float, "analysis.tolerance")
    _require(analysis["tolerance"] >= 0, f"analysis.tolerance: expected a number >= 0, got {analysis['tolerance']!r}")
    analysis["max_order"] = _number(analysis.get("max_order", 3), int, "analysis.max_order")
    analysis["seed"] = _number(analysis.get("seed", 0), int, "analysis.seed")
    if "theta_points" in analysis:
        analysis["theta_points"] = _number(analysis["theta_points"], int, "analysis.theta_points")

    if kind in ("markovianity", "oracle-check"):
        _require(exact_model is not None, f"analysis.kind '{kind}' requires an exact model")

    measurement = None
    if "measurement" in doc and doc["measurement"] is not None:
        measurement = _section("measurement", _build_measurement, doc["measurement"], d)
    _require(
        measurement is not None or kind in ("markovianity", "theta-sweep"),
        f"analysis.kind '{kind}' requires a measurement section",
    )

    preparation = _section("preparation", _build_preparation, doc.get("preparation", {"kind": "maximally-mixed"}), d)

    output = doc.get("output", {})
    fmt = output.get("format", "json") if isinstance(output, dict) else "json"
    _require(fmt in ("json", "csv"), f"output.format: expected 'json' or 'csv', got {fmt!r}")

    return ExperimentConfig(provider, exact_model, preparation, measurement, grid, analysis, fmt)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)
