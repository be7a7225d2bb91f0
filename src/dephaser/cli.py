"""Batch front-end: run experiment configs, emit JSON/CSV reports.

Exit codes: 0 success, 2 config/validation error, 3 numerical-cap error,
4 analysis-level failure.  Errors are emitted as one JSON object on stderr.
Given a fixed config, output files are byte-identical across runs.
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
from .config import ConfigError, ExperimentConfig, load_config
from .errors import DephaserError, SizeCapError, ValidationError
from .models import DephasingTable, markovianity_deficit_detail, semigroup_deficit, triviality_check
from .presets import preset_listing

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAP = 3
EXIT_ANALYSIS = 4

#: cap on the time triples of an NCGD run, C(K, 3) for K times, checked before
#: any dephasing matrix is computed.  A triple costs a d²×d² lift (d⁴ entries),
#: and its CSV row is formatted from Python: a run at the cap (K = 67, D = 4)
#: takes about 0.6 s at d <= 3, 1.4 s at d = 5 and 4 s at d = 8 on one core of
#: a 2-vCPU x86 VM.
NCGD_TRIPLE_CAP = 50_000

#: cap on the angles of a theta-sweep run, checked before any propagator.  The
#: sweep is one array expression, but each angle is one CSV row of about 41
#: bytes formatted from Python: on one core of a 2-vCPU x86 VM a run at the cap
#: writes 4 MB in about 0.5 s.
THETA_POINTS_CAP = 100_000

#: largest |off-diagonal entry| of a preparation that theta-sweep takes as diagonal:
#: its closed form reads only p = ρ_00, so coherences must vanish up to roundoff.
DIAGONAL_TOL = 1e-14


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(c) if isinstance(c, float) else str(c) for c in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_distribution(outdir: str, dist: st.JointDistribution) -> str:
    n = dist.n
    path = os.path.join(outdir, f"distribution_{n}.csv")
    header = [f"x_{k + 1}" for k in range(n)] + ["probability"]
    clipped = dist.clipped().reshape((dist.n_outcomes,) * n)
    rows = [list(xs) + [float(clipped[xs])] for xs in np.ndindex(*clipped.shape)]
    _write_csv(path, header, rows)
    return path


def _run_classicality(cfg: ExperimentConfig, outdir: str) -> dict:
    a = cfg.analysis
    report = cl.classicality_report(
        cfg.provider,
        cfg.preparation,
        cfg.measurement,
        cfg.grid.times,
        a["max_order"],
        a["tolerance"],
        t0=cfg.grid.t0,
    )
    width = report.max_order_tested
    header = ["order", "position"] + [f"t_{k + 1}" for k in range(width)] + ["deficit"]
    # pad shorter time tuples so the CSV stays rectangular
    pad = {n: [float("nan")] * (width - n) for n in range(2, width + 1)}
    rows = [[n, position, *times, *pad[n], deficit] for n, position, times, deficit in report.record_values()]
    _write_csv(os.path.join(outdir, "deficits.csv"), header, rows)
    return {"analysis": "classicality", **report.to_dict()}


def _run_markovianity(cfg: ExperimentConfig, outdir: str) -> dict:
    deficit, detail = markovianity_deficit_detail(cfg.provider, cfg.grid.times, cfg.analysis["max_order"])
    times = np.sort(cfg.grid.times)
    # every dephasing matrix of the semigroup and triviality checks, from one
    # dephasings call that reuses the walk's eigendecomposition and unitaries
    table = DephasingTable(cfg.provider, times)
    return {
        "analysis": "markovianity",
        "factorization_deficit": deficit,
        "semigroup_deficit": float(np.max(semigroup_deficit(table, *_triples(times)), initial=0.0)),
        "trivial_dephasing": triviality_check(table, times),
        **detail,
    }


def _triples(times: np.ndarray) -> np.ndarray:
    """The triples (t_i, t_j, t_l), i < j < l, of sorted times as three rows, lexicographic in (i, j, l)."""
    before = np.less.outer(np.arange(len(times)), np.arange(len(times)))  # before[i, j]: i < j
    return times[np.array(np.nonzero(before[:, :, None] & before))]


def _run_ncgd(cfg: ExperimentConfig, outdir: str) -> dict:
    times = np.sort(cfg.grid.times)
    if len(times) < 3:
        raise ValidationError("ncgd analysis needs at least 3 grid times")
    if math.comb(len(times), 3) > NCGD_TRIPLE_CAP:
        raise SizeCapError(f"ncgd: {math.comb(len(times), 3)} time triples exceed cap {NCGD_TRIPLE_CAP}")
    t1, t2, t3 = _triples(times)
    # every reduced map reads its dephasing matrix from one dephasings call
    table = DephasingTable(cfg.provider, times)
    deficits = st.ncgd_deficit(table, cfg.measurement, t1, t2, t3)
    # the sandwich deficit depends on the outer pair only: one per distinct pair
    (s, t), inverse = np.unique((t1, t3), axis=1, return_inverse=True)
    sandwich = st.sandwich_identity_deficit(table, cfg.measurement, t, s)[inverse.reshape(-1)]
    rows = np.column_stack((t1, t2, t3, deficits, sandwich)).tolist()
    _write_csv(os.path.join(outdir, "deficits.csv"), ["t_1", "t_2", "t_3", "ncgd_deficit", "sandwich_deficit"], rows)
    return {
        "analysis": "ncgd",
        "norm": "entrywise max on superoperator matrices",
        "max_ncgd_deficit": float(deficits.max()),
        "max_sandwich_deficit": float(sandwich.max()),
        "triples": len(deficits),
    }


def _run_theta_sweep(cfg: ExperimentConfig, outdir: str) -> dict:
    a = cfg.analysis
    if cfg.d != 2:
        raise ValidationError(f"theta-sweep requires d = 2, model has d = {cfg.d}")
    rho = cfg.preparation.density
    if np.max(np.abs(rho - np.diag(np.diag(rho)))) > DIAGONAL_TOL:
        raise ValidationError("theta-sweep requires a diagonal preparation")
    p = float(rho[0, 0].real)
    times = sorted(cfg.grid.times)
    if len(times) < 2:
        raise ValidationError("theta-sweep needs at least 2 grid times")
    n_points = a.get("theta_points", 181)
    if n_points > THETA_POINTS_CAP:
        raise SizeCapError(f"theta-sweep: {n_points} angles exceed cap {THETA_POINTS_CAP}")
    thetas = np.linspace(0.0, np.pi / 2, n_points)
    thetas, deficits, argmax_theta = cl.theta_sweep(
        cfg.provider, p, thetas, times[1], times[0], t0=cfg.grid.t0
    )
    _write_csv(os.path.join(outdir, "deficits.csv"), ["theta", "deficit"], np.column_stack((thetas, deficits)).tolist())
    return {
        "analysis": "theta-sweep",
        "p": p,
        "t1": times[0],
        "t2": times[1],
        "argmax_theta": argmax_theta,
        "max_abs_deficit": float(np.max(np.abs(deficits))),
    }


def _run_oracle_check(cfg: ExperimentConfig, outdir: str) -> dict:
    fast = st.joint_distribution(cfg.provider, cfg.preparation, cfg.measurement, cfg.grid)
    oracle = st.oracle_distribution(cfg.provider.model, cfg.preparation, cfg.measurement, cfg.grid)
    _write_distribution(outdir, fast)
    return {
        "analysis": "oracle-check",
        "n": cfg.grid.n,
        "max_abs_difference": float(np.max(np.abs(fast.table - oracle.table))),
    }


_RUNNERS = {
    "classicality": _run_classicality,
    "markovianity": _run_markovianity,
    "ncgd": _run_ncgd,
    "theta-sweep": _run_theta_sweep,
    "oracle-check": _run_oracle_check,
}


def _error_json(code: int, exc: Exception) -> int:
    sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
    return code


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        return _error_json(EXIT_VALIDATION, exc)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    try:
        payload = _RUNNERS[cfg.analysis["kind"]](cfg, outdir)
    except np.linalg.LinAlgError as exc:
        return _error_json(EXIT_ANALYSIS, exc)
    except SizeCapError as exc:
        return _error_json(EXIT_CAP, exc)
    except ValidationError as exc:
        return _error_json(EXIT_VALIDATION, exc)
    except DephaserError as exc:
        return _error_json(EXIT_ANALYSIS, exc)
    _write_json(os.path.join(outdir, "report.json"), payload)
    print(f"wrote {os.path.join(outdir, 'report.json')}")
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        load_config(args.config)
    except ConfigError as exc:
        return _error_json(EXIT_VALIDATION, exc)
    print("ok")
    return EXIT_OK


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
