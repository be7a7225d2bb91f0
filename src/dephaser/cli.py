"""Batch front-end: run experiment configs, emit JSON/CSV reports.

Exit codes: 0 success, 2 config/validation error (an ``--out`` that cannot be
created or written to included, refused before any analysis runs), 3
numerical-cap error, 4 analysis-level failure (an ``OSError`` while writing an
output included).  Errors are emitted as one JSON object on stderr.  A run
computes and serializes every output before it opens a file, then writes them
whole and together: each into a temporary ``.tmp-*`` file beside it, made by
``tempfile.mkstemp`` (created exclusively, mode 0600), and only when every one
is written are they renamed over the old files, ``report.json`` last.  A failed
write leaves every old output as it was and removes the temporary files; only a
failed rename leaves a mixed set, the outputs renamed before it new beside the
old ``report.json``.
Given a fixed config, output files are byte-identical across runs:
``report.json`` is strict JSON in the layout of ``json.dumps(..., indent=2,
sort_keys=True)`` with ``"schema": 2``, and CSV floats are written with ``.17g``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import classicality as cl
from . import statistics as st
from .config import ExperimentConfig, load_config
from .errors import DephaserError, SizeCapError, ValidationError
from .models import markovianity_deficit_detail, semigroup_deficit, triviality_check
from .presets import preset_listing

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAP = 3
EXIT_ANALYSIS = 4
REPORT_SCHEMA = 2  #: the form of ``report.json``, written as its ``schema`` key (README, output contract)


def _write_outputs(outdir: str, outputs: dict) -> None:
    """Write each text of ``outputs``, ``{file name: text}``, whole into ``outdir``: every one
    into a temporary file beside its output, made by ``tempfile.mkstemp`` as
    ``.tmp-<random characters><name>``, then, once all are written, each renamed over its
    output in the order given.  On an error the temporary files not yet renamed are removed,
    so a failed write leaves every old output as it was."""
    staged = []  # the (temporary, output) pairs written and not yet renamed
    try:
        for name, text in outputs.items():
            fd, tmp = tempfile.mkstemp(suffix=name, prefix=".tmp-", dir=outdir)
            staged.append((tmp, os.path.join(outdir, name)))
            # bytes, not a file object: the outputs are ASCII, and a file object costs more than a small write
            data = memoryview(text.encode())
            try:
                while data:
                    data = data[os.write(fd, data) :]
            finally:
                os.close(fd)
        while staged:
            os.replace(*staged[0])
            del staged[0]
    finally:
        for tmp, _ in staged:
            os.unlink(tmp)


_STR = json.encoder.encode_basestring_ascii


class _FloatText(dict):
    """``float.__repr__`` of finite floats, as ``json`` writes them: each distinct
    nonzero value is formatted once, on its first lookup.  ±0 are never stored,
    as 0.0 == -0.0 would give one of them the other's text."""

    __slots__ = ()

    def __missing__(self, x: float) -> str:
        if not math.isfinite(x):
            raise DephaserError(f"report.json: non-finite value {x!r} has no strict JSON form")
        text = float.__repr__(x)
        if x:
            self[x] = text
        return text


def _json(obj, indent: str, memo: _FloatText) -> str:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)`` for ``obj`` placed
    after the line break ``indent`` (a newline and its indentation), but strict: a
    non-finite float raises ``DephaserError``.  Takes dicts with str keys, lists,
    tuples, str, int, float, bool and None; anything else raises ``TypeError``, as
    ``json`` does.  A plain float or int item is written without a call."""
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            _STR(k) + ": " + (memo[v] if type(v) is float else int.__repr__(v) if type(v) is int else _json(v, inner, memo))
            for k, v in sorted(obj.items())
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [memo[v] if type(v) is float else int.__repr__(v) if type(v) is int else _json(v, inner, memo) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(obj, str):
        return _STR(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return memo[obj]
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _cells(column) -> list:
    """The CSV cells of one column: a list as it is, ``str`` of an int, ``.17g`` of a
    float.  Each distinct float is formatted once, keyed by its bits so that ±0 stay apart."""
    if isinstance(column, list):
        return column
    if column.dtype.kind in "iu":
        return list(map(str, column.tolist()))
    bits, inverse = np.unique(np.ascontiguousarray(column, dtype=np.float64).view(np.int64), return_inverse=True)
    text = np.array([format(x, ".17g") for x in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse.reshape(-1)].tolist()


def _csv(header, columns) -> str:
    """The CSV text of one line per row of the equal-length ``columns``: 1-d numpy arrays, or lists of cell text."""
    lines = map(",".join, zip(*map(_cells, columns)))
    return "\n".join([",".join(header), *lines]) + "\n"


# Each runner computes one analysis kind from a config that passed its size estimate, and returns
# its report payload and its other outputs, {file name: text} in the order they are renamed.


def _run_classicality(cfg: ExperimentConfig) -> tuple:
    a, grid = cfg.analysis, cfg.grid
    report = cl.classicality_report(
        cfg.provider, cfg.preparation, cfg.measurement, grid.times, a["max_order"], a["tolerance"], t0=grid.t0
    )
    width = report.max_order_tested
    header = ["order", "position"] + [f"t_{k + 1}" for k in range(width)] + ["deficit"]
    parts = []  # per order, one row per (tuple, position): order, position, the pool index of each time, deficit
    for rows, deficits in report.columns:
        n = rows.shape[1]
        index = np.full((deficits.size, width), -1)  # -1, the last text below, is the nan that pads shorter tuples
        index[:, :n] = np.repeat(rows, n - 1, axis=0)
        parts.append([np.full(deficits.size, n), np.arange(deficits.size) % (n - 1) + 1, index, deficits.reshape(-1)])
    order, position, index, deficits = map(np.concatenate, zip(*parts))
    # each pool time is formatted once per run, and the time columns gather their cells from that text
    text = np.array([format(t, ".17g") for t in report.pool] + ["nan"], dtype=object)
    csv = _csv(header, [order, position, *text[index.T].tolist(), deficits])
    return {"analysis": "classicality", **report.to_dict()}, {"deficits.csv": csv}


def _run_markovianity(cfg: ExperimentConfig) -> tuple:
    deficit, detail = markovianity_deficit_detail(cfg.provider, cfg.grid.times, cfg.analysis["max_order"])
    times = np.sort(cfg.grid.times)
    # the semigroup and triviality checks read the durations the walk exponentiated
    semigroup = float(np.max(semigroup_deficit(cfg.provider, *_triples(times)), initial=0.0))
    trivial = triviality_check(cfg.provider, times)
    payload = {"factorization_deficit": deficit, "semigroup_deficit": semigroup, "trivial_dephasing": trivial}
    return {"analysis": "markovianity", **payload, **detail}, {}


def _triples(times: np.ndarray) -> np.ndarray:
    """The triples (t_i, t_j, t_l), i < j < l, of sorted times as three rows, lexicographic in (i, j, l)."""
    before = np.less.outer(np.arange(len(times)), np.arange(len(times)))  # before[i, j]: i < j
    return times[np.array(np.nonzero(before[:, :, None] & before))]


def _run_ncgd(cfg: ExperimentConfig) -> tuple:
    t1, t2, t3 = _triples(np.sort(cfg.grid.times))
    deficits = st.ncgd_deficit(cfg.provider, cfg.measurement, t1, t2, t3)
    # the sandwich deficit depends on the outer pair only: one per distinct pair
    (s, t), inverse = np.unique((t1, t3), axis=1, return_inverse=True)
    sandwich = st.sandwich_identity_deficit(cfg.provider, cfg.measurement, t, s)[inverse.reshape(-1)]
    csv = _csv(["t_1", "t_2", "t_3", "ncgd_deficit", "sandwich_deficit"], (t1, t2, t3, deficits, sandwich))
    payload = {
        "analysis": "ncgd",
        "norm": "entrywise max on superoperator matrices",
        "max_ncgd_deficit": float(deficits.max()),
        "max_sandwich_deficit": float(sandwich.max()),
        "triples": len(deficits),
    }
    return payload, {"deficits.csv": csv}


def _run_theta_sweep(cfg: ExperimentConfig) -> tuple:
    p, times = float(cfg.preparation.density[0, 0].real), sorted(cfg.grid.times)
    thetas = np.linspace(0.0, np.pi / 2, cfg.analysis["theta_points"])
    thetas, deficits, argmax_theta = cl.theta_sweep(cfg.provider, p, thetas, times[1], times[0], t0=cfg.grid.t0)
    payload = {
        "analysis": "theta-sweep",
        "p": p,
        "t1": times[0],
        "t2": times[1],
        "argmax_theta": argmax_theta,
        "max_abs_deficit": float(np.max(np.abs(deficits))),
    }
    return payload, {"deficits.csv": _csv(["theta", "deficit"], (thetas, deficits))}


def _run_oracle_check(cfg: ExperimentConfig) -> tuple:
    fast = st.joint_distribution(cfg.provider, cfg.preparation, cfg.measurement, cfg.grid)
    oracle = st.oracle_distribution(cfg.provider.model, cfg.preparation, cfg.measurement, cfg.grid)
    n = fast.n
    # the outcome tuples in np.ndindex order, one column per time
    outcomes = np.indices((fast.n_outcomes,) * n).reshape(n, -1)
    csv = _csv([f"x_{k + 1}" for k in range(n)] + ["probability"], [*outcomes, fast.clipped().reshape(-1)])
    gap = float(np.max(np.abs(fast.table - oracle.table)))
    return {"analysis": "oracle-check", "n": n, "max_abs_difference": gap}, {f"distribution_{n}.csv": csv}


_RUNNERS = {
    "classicality": _run_classicality,
    "markovianity": _run_markovianity,
    "ncgd": _run_ncgd,
    "theta-sweep": _run_theta_sweep,
    "oracle-check": _run_oracle_check,
}


def _output_directory(outdir: str) -> None:
    """Create ``outdir`` if it is missing; one that cannot be created, or is not a
    writable directory, is refused with ``ValidationError`` before any analysis runs."""
    if not os.path.isdir(outdir):  # one stat for the usual existing directory, where makedirs makes three calls
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"--out {outdir!r}: cannot create the output directory: {exc.strerror}") from exc
    if not os.access(outdir, os.W_OK | os.X_OK):
        raise ValidationError(f"--out {outdir!r}: the output directory is not writable")


def _reported(command, done: str) -> int:
    """Run ``command`` and print ``done``, or write the error it raises as one JSON object on stderr:
    the one exit-code table of both commands, a size cap 3, a validation error 2, any other 4."""
    try:
        command()
    except (DephaserError, np.linalg.LinAlgError, OSError) as exc:
        # an OSError is an output that cannot be written: every old output is left as it was (_write_outputs)
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        if isinstance(exc, SizeCapError):
            return EXIT_CAP
        return EXIT_VALIDATION if isinstance(exc, ValidationError) else EXIT_ANALYSIS
    print(done)
    return EXIT_OK


def cmd_run(args) -> int:
    outdir = args.out or "."

    def run():
        cfg = load_config(args.config)
        _output_directory(outdir)
        payload, outputs = _RUNNERS[cfg.analysis["kind"]](cfg)
        # serialized whole before any file is opened: a value with no strict JSON form writes nothing
        outputs["report.json"] = _json({"schema": REPORT_SCHEMA, **payload}, "\n", _FloatText()) + "\n"
        _write_outputs(outdir, outputs)

    return _reported(run, f"wrote {os.path.join(outdir, 'report.json')}")


def cmd_validate(args) -> int:
    return _reported(lambda: load_config(args.config), "ok")


def cmd_presets(args) -> int:
    for name, desc in preset_listing():
        print(f"{name:20s} {desc}")
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(prog="dephaser", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory (default: cwd)")

    p_val = sub.add_parser("validate", help="validate a config without running it")
    p_val.add_argument("config")

    sub.add_parser("presets", help="list named model presets")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # the command functions are looked up per call, not bound into the cached
    # parser, so a wrapper set on the module attribute sees every call
    return {"run": cmd_run, "validate": cmd_validate, "presets": cmd_presets}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
