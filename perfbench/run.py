"""dephaser benchmark: seeded workloads in a closed loop, checked outputs, metrics.

Run from the repository root:

    python3 perfbench/run.py --workload multitime --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``multitime``,
``kolmogorov`` and ``cli``.  One client runs ops back to back in this process.
Every op's output is checked outside the timed region; failures are counted,
never dropped.

``--trace 0`` measures with tracing off and prints the end-to-end metrics.
Each timed one is scaled to a nominal host speed by a reference computation
timed between mix cycles (``host.py``); the table also prints it unscaled.
``--trace 1`` runs every mix cycle twice, untraced then traced, and prints the
per-layer metrics (per op) plus the tracing overhead; its spans are written to
``perfbench/_work/trace-<workload>.npz``.

Human-readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import host

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, "perfbench", "_work")
NPROC = len(os.sched_getaffinity(0))
#: the process runs on one CPU (see host.pin_to_fastest_cpu), so BLAS gets one thread
BLAS_THREADS = 1

#: set-up is measured in this process and in this many fresh ones; median reported
SETUP_PROBES = 6
#: every timed metric is a median over windows of whole mix cycles; a window
#: closes at the first cycle end after this many seconds
WINDOW_S = 2.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("multitime", "kolmogorov", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(args, workdir):
    """Import the package, generate the inputs from the seed, warm up."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dephaser", "__init__.py")):
        sys.exit(f"perfbench: no dephaser package under {src}")
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, ROOT, workdir)
    wl.warm_up()
    return wl


def closed_loop(wl, seconds, tracer=None):
    """Run the mix cycle by cycle, ops back to back, each checked after its
    timed region, until ``seconds`` have passed at the end of a cycle.

    Between cycles the reference computation is timed once, so that each
    cycle has a reference time just before and just after it.  About every
    ``WINDOW_S`` the process also moves, between cycles, to the CPU that is
    fastest now; the reference is then timed on both sides of the move.

    With a tracer every cycle runs twice, untraced and then traced, so that
    both passes meet the same phases of host speed.  Returns (latencies, CPU
    times) of the untraced and of the traced ops, the cycles as (first op,
    end op, reference before, reference after) over the untraced ops, the
    status counts and the error messages.
    """
    plain, traced = ([], []), ([], [])
    passes = ((None, plain), (tracer, traced)) if tracer is not None else ((None, plain),)
    status, errors = collections.Counter(), collections.Counter()
    cycles = []
    ref_before = host.reference_s()
    deadline = time.perf_counter() + seconds
    repin_at = time.perf_counter() + WINDOW_S
    first = 0
    while True:
        for tr, (lat, cpu) in passes:
            for i in range(first, first + wl.cycle):
                if tr is not None:
                    tr.op_id = i
                    tr.install()
                c0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    output, error = wl.run(i), None
                except Exception as exc:  # a failed op is counted, not fatal
                    output, error = None, exc
                t1 = time.perf_counter()
                c1 = time.process_time()
                if tr is not None:
                    tr.uninstall()
                lat.append(t1 - t0)
                cpu.append(c1 - c0)
                if error is not None:
                    status["failed"] += 1
                    errors[f"{type(error).__name__}: {error}"[:160]] += 1
                else:
                    status[wl.check(i, output)] += 1
        ref_after = host.reference_s(repeats=1)
        cycles.append((len(plain[0]) - wl.cycle, len(plain[0]), ref_before, ref_after))
        ref_before = ref_after
        first += wl.cycle
        if time.perf_counter() >= deadline:
            return plain, traced, cycles, status, errors
        if time.perf_counter() >= repin_at:
            host.pin_to_fastest_cpu(rounds=1)
            ref_before = host.reference_s(repeats=1)
            repin_at = time.perf_counter() + WINDOW_S


def setup_probes(args):
    """Set-up times of fresh processes, each importing and warming up from
    scratch: (scaled, unscaled) seconds per process."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((probe["setup_s"], probe["raw_setup_s"]))
    return out


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, else the setting."""
    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return fn()
    return BLAS_THREADS


def git_commit():
    """Commit of the checkout, or None where it is not a git repository."""
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.isdir(git_dir):
        return None
    try:
        proc = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment(args):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "dephaser", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def window_bounds(lat, cycles):
    """(first op, end op) of each window: a run of whole cycles holding at
    least ``WINDOW_S`` of op time.  A shorter remainder joins the last window.

    A window holds the exact mix, so its percentiles fall inside the same
    kinds of op as those of the whole run.
    """
    bounds, start, t = [], 0, 0.0
    for cycle_start, end, _, _ in cycles:
        t += sum(lat[cycle_start:end])
        if t >= WINDOW_S:
            bounds.append((start, end))
            start, t = end, 0.0
    if start < len(lat):
        bounds[-1:] = [(bounds[-1][0] if bounds else start, len(lat))]
    return bounds


def timed_medians(lat, cpu, bounds, factor):
    """Medians over windows of the timed end-to-end metrics, with every op's
    wall and CPU time multiplied by its ``factor``."""
    per_window = {"ops_per_s": [], "latency_p50_ms": [], "latency_p90_ms": [], "cpu_ms_per_op": []}
    for start, end in bounds:
        w = [t * f for t, f in zip(lat[start:end], factor[start:end])]
        c = [t * f for t, f in zip(cpu[start:end], factor[start:end])]
        per_window["ops_per_s"].append(len(w) / sum(w))
        per_window["latency_p50_ms"].append(1e3 * statistics.median(w))
        per_window["latency_p90_ms"].append(1e3 * statistics.quantiles(w, n=10, method="inclusive")[8])
        per_window["cpu_ms_per_op"].append(1e3 * sum(c) / len(c))
    return {name: statistics.median(values) for name, values in per_window.items()}


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms", "cpu_ms_per_op": "ms"}


def end_to_end(lat, cpu, cycles, status, setup):
    """End-to-end metrics, each timed one scaled to the nominal host speed:
    an op's times are multiplied by ``REFERENCE_NOMINAL_S`` over the mean of
    the reference times just before and just after its cycle.  Returns the
    metrics and, for the table, the timed ones unscaled."""
    n = len(lat)
    scale = []
    for start, end, ref_before, ref_after in cycles:
        scale += [host.REFERENCE_NOMINAL_S / (0.5 * (ref_before + ref_after))] * (end - start)
    bounds = window_bounds(lat, cycles)
    scaled = {"setup_s": statistics.median(s for s, _ in setup), **timed_medians(lat, cpu, bounds, scale)}
    raw = {"setup_s": statistics.median(r for _, r in setup), **timed_medians(lat, cpu, bounds, [1.0] * n)}
    samples = {"setup_s": len(setup)}
    shown = {name: (value, UNITS[name], samples.get(name, n)) for name, value in scaled.items()}
    shown["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    shown["success_frac"] = (status["ok"] / n, "frac", n)
    unscaled = {name: (value, UNITS[name], samples.get(name, n)) for name, value in raw.items()}
    return shown, unscaled


def layer_unit(name):
    if name.endswith(".self_s") or name == "trace.wall_s":
        return "s/op"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "frac"
    if name.endswith("bytes_computed") or name.endswith("bytes_written"):
        return "B/op"
    return "count/op"


def main(argv=None) -> int:
    args = parse_args(argv)
    pinned_cpu = host.pin_to_fastest_cpu()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        t_begin = time.perf_counter()
        wl = set_up(args, workdir)
        raw_setup_s = time.perf_counter() - t_begin
        setup_s = raw_setup_s * host.REFERENCE_NOMINAL_S / host.reference_s()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
            return 0
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        wl.bytes_written = 0
        (lat, cpu), (traced_lat, _), cycles, status, errors = closed_loop(wl, args.seconds, tracer)
        attempted = len(lat) + len(traced_lat)
        unscaled = {}
        if tracer is None:
            setup = [(setup_s, raw_setup_s)] + setup_probes(args)
            shown, unscaled = end_to_end(lat, cpu, cycles, status, setup)
        else:
            n = len(traced_lat)
            layers = tracer.layer_metrics(n, sum(traced_lat), sum(lat))
            layers["cli.bytes_written"] = wl.bytes_written / attempted
            shown = {k: (v, layer_unit(k), n) for k, v in sorted(layers.items())}
            tracer.write(os.path.join(WORK, f"trace-{args.workload}.npz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = attempted - status["ok"]
    print("env " + json.dumps({**environment(args), "first_cpu": pinned_cpu}, sort_keys=True))
    print(f"{'metric':48s} {'value':>16s} {'unit':8s} samples")
    for name, (value, unit, samples) in shown.items():
        print(f"{name:48s} {value:16.6g} {unit:8s} {samples}")
    print(f"{'failed_frac':48s} {failed / attempted:16.6g} {'frac':8s} {attempted}")
    for name, (value, unit, samples) in unscaled.items():
        print(f"{'unscaled ' + name:48s} {value:16.6g} {unit:8s} {samples}")
    print(f"status {dict(status)}")
    for message, count in errors.most_common(5):
        print(f"error x{count}: {message}")
    result = {
        "correct": status["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in shown.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
