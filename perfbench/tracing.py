"""Per-layer spans for the dephaser package, recorded from outside it.

Each traced function is replaced, at the module or class attribute its callers
look up, by a wrapper that records one span: layer name, start, end, parent
span and op id.  Spans stay in memory in flat arrays; per-layer call counts
and self times (a span's duration minus the time its child spans cover) are
derived from them after the run, and the spans are written to disk when the
run ends.  No file of the package is modified.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import os
import time

import numpy as np

# (layer name, owner, attribute).  The owner is a module, or "module:Class"
# for methods; each entry is a name that a caller in the package (or the
# benchmark's own op) binds, so every call into the layer passes one wrapper.
TARGETS = (
    ("linalg.hermitian_expm", "dephaser.models", "hermitian_expm"),
    ("linalg.hermitian_expm", "dephaser.statistics", "hermitian_expm"),
    ("models.tensor_array", "dephaser.models:ExactDephasingProvider", "tensor_array"),
    ("models.tensor_array", "dephaser.models:MarkovianAnalyticProvider", "tensor_array"),
    ("models.tensor_pairs", "dephaser.models:ExactDephasingProvider", "tensor_pairs"),
    ("models.tensor_pairs", "dephaser.models:MarkovianAnalyticProvider", "tensor_pairs"),
    ("models.propagator", "dephaser.models:ExactDephasingProvider", "propagator"),
    ("models.markovianity_deficit_detail", "dephaser.cli", "markovianity_deficit_detail"),
    ("models.semigroup_deficit", "dephaser.cli", "semigroup_deficit"),
    ("models.triviality_check", "dephaser.cli", "triviality_check"),
    ("measurements.projector", "dephaser.measurements:ProjectiveMeasurement", "projector"),
    ("measurements.dephasing_channel", "dephaser.statistics", "dephasing_channel"),
    ("statistics.joint_distribution", "dephaser.statistics", "joint_distribution"),
    ("statistics.joint_distribution", "dephaser.classicality", "joint_distribution"),
    ("statistics.oracle_distribution", "dephaser.statistics", "oracle_distribution"),
    ("statistics.ncgd_deficit", "dephaser.statistics", "ncgd_deficit"),
    ("statistics.sandwich_identity_deficit", "dephaser.statistics", "sandwich_identity_deficit"),
    ("classicality.classicality_report", "dephaser.classicality", "classicality_report"),
    ("classicality.kolmogorov_deficit", "dephaser.classicality", "kolmogorov_deficit"),
    ("classicality.theta_sweep", "dephaser.classicality", "theta_sweep"),
    ("config.load_config", "dephaser.cli", "load_config"),
    ("cli.cmd_run", "dephaser.cli", "cmd_run"),
)


def _input_key(op_id, a, result):
    """Identity of one joint_distribution input within one op."""
    provider, prep, measurement, grid = list(a.values())[:4]
    return (op_id, id(provider), id(prep), id(measurement), grid.t0, grid.times)


# Values noted per returning call, from its bound arguments and its result:
# tensor entries computed, distribution inputs seen, deficit records produced.
NOTES = {
    "models.tensor_array": lambda op_id, a, result: result.size,
    "statistics.joint_distribution": _input_key,
    "classicality.classicality_report": lambda op_id, a, result: len(result.records),
}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans of the wrapped layers while installed."""

    def __init__(self):
        self.layer_names: list = []
        self.name = array.array("i")
        self.parent = array.array("q")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.notes: dict = {layer: [] for layer in NOTES}
        self.op_id = 0
        self._stack: list = []
        self._originals = []
        self._wrappers = []
        for layer, owner, attr in TARGETS:
            obj = _resolve(owner)
            fn = obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)
            if layer not in self.layer_names:
                self.layer_names.append(layer)
            self._originals.append((obj, attr, fn))
            self._wrappers.append((obj, attr, self._wrap(self.layer_names.index(layer), layer, fn)))

    def _wrap(self, nid: int, layer: str, fn):
        names, parents, ops = self.name.append, self.parent.append, self.op.append
        starts, ends = self.start, self.end
        stack = self._stack
        note = NOTES.get(layer)
        notes = self.notes.get(layer)
        signature = inspect.signature(fn) if note is not None else None
        perf_counter = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names(nid)
            parents(stack[-1] if stack else -1)
            ops(tracer.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if note is not None:
                notes.append(note(tracer.op_id, signature.bind(*args, **kwargs).arguments, result))
            return result

        return traced

    def install(self) -> None:
        for obj, attr, wrapper in self._wrappers:
            setattr(obj, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, fn in self._originals:
            setattr(obj, attr, fn)

    def _arrays(self):
        return tuple(np.array(a) for a in (self.name, self.parent, self.start, self.end, self.op))

    def layer_metrics(self, ops: int, traced_wall_s: float, untraced_wall_s: float) -> dict:
        """Per-layer metrics, each per op, from the recorded spans."""
        name, parent, start, end, _ = self._arrays()
        k = len(self.layer_names)
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        self_s = np.bincount(name, weights=dur - covered, minlength=k)
        calls = np.bincount(name, minlength=k)

        def nid(layer):
            return self.layer_names.index(layer)

        def per_op(x):
            return float(x) / ops

        def ratio(num, den):
            return float(num) / den if den else 0.0

        out = {}
        for layer in self.layer_names:
            out[f"{layer}.calls"] = per_op(calls[nid(layer)])
            out[f"{layer}.self_s"] = per_op(self_s[nid(layer)])

        entries = sum(self.notes["models.tensor_array"])
        out["models.tensor_array.entries"] = per_op(entries)
        out["models.tensor_array.bytes_computed"] = per_op(16 * entries)

        expm_in_prop = int(np.count_nonzero(
            (name == nid("linalg.hermitian_expm")) & child
            & (name[np.where(child, parent, 0)] == nid("models.propagator"))
        ))
        prop_calls = calls[nid("models.propagator")]
        out["models.propagator.hit_ratio"] = 1.0 - ratio(expm_in_prop, prop_calls) if prop_calls else 0.0

        keys = self.notes["statistics.joint_distribution"]
        out["statistics.joint_distribution.distinct_ratio"] = ratio(len(set(keys)), len(keys))
        out["classicality.records"] = per_op(sum(self.notes["classicality.classicality_report"]))
        out["trace.spans"] = per_op(len(name))
        out["trace.wall_s"] = per_op(traced_wall_s)
        out["trace.overhead_frac"] = traced_wall_s / untraced_wall_s - 1.0
        return out

    def write(self, path: str) -> None:
        """Write every span (layer, start, end, parent index, op id) to ``path``."""
        name, parent, start, end, op = self._arrays()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, layer_names=np.array(self.layer_names), layer=name, start=start, end=end, parent=parent, op=op)
