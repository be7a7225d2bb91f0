"""The three benchmark workloads: seeded inputs, one op, and its correctness check.

A workload is built from a seed (input generation), warmed up, and then run op
by op in a closed loop.  ``run(i)`` performs op ``i`` and returns its raw
output; ``check(i, output)`` verifies that output outside the timed region and
returns ``"ok"``, ``"failed"`` (the op did not end as documented) or
``"wrong"`` (it ended but its output is incorrect).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from dephaser import classicality, cli, statistics
from dephaser.measurements import fourier_mub
from dephaser.models import DephasingModel, ExactDephasingProvider
from dephaser.presets import get_preset
from dephaser.statistics import SystemPreparation, TimeGrid

#: tensor route vs oracle agreement; the acceptance suite's oracle tolerance
ORACLE_TOL = 1e-10


def _hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


def _density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = g @ g.conj().T
    return w / np.trace(w).real


def _times(rng, count):
    return tuple(float(t) for t in np.sort(rng.uniform(0.1, 3.0, count)))


class Workload:
    name = ""
    #: ops in one repeat of the fixed op mix; runs end on whole cycles
    cycle = 1

    def __init__(self, seed: int, root: str, workdir: str):
        self.seed = seed
        self.bytes_written = 0

    def warm_up(self) -> None:
        self.run(0)

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, output) -> str:
        raise NotImplementedError


class Multitime(Workload):
    """One tensor-route joint distribution on a random exact model with D=4.

    Fixed mix per cycle: four ops with d=3 on 4-time grids, then one with d=5
    on a 3-time grid (5^6 tensor entries against 3^8, about twice the time).
    The d=5 ops are a fifth of the ops, so p90 falls in their middle and p50
    inside the d=3 ops, rather than in the tail of a single kind of op, where
    it would follow the host's noise.
    """

    name = "multitime"
    D_ENV, N_INPUTS = 4, 8
    MIX = ((3, 4), (3, 4), (3, 4), (3, 4), (5, 3))  # (d, n) per op of a cycle
    cycle = len(MIX)

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        rng = np.random.default_rng(seed)
        self.inputs = {}
        for d, n in sorted(set(self.MIX)):
            self.inputs[d, n] = [
                (DephasingModel(tuple(_hermitian(rng, self.D_ENV) for _ in range(d)), _density(rng, self.D_ENV)),
                 TimeGrid(0.0, _times(rng, n)))
                for _ in range(self.N_INPUTS)
            ]
        self.preps = {d: SystemPreparation.maximally_mixed(d) for d, _ in self.MIX}
        self.measurements = {d: fourier_mub(d) for d, _ in self.MIX}
        self._oracle = {}

    def _input(self, i):
        d, n = self.MIX[i % self.cycle]
        model, grid = self.inputs[d, n][(i // self.cycle) % self.N_INPUTS]
        return model, self.preps[d], self.measurements[d], grid

    def run(self, i):
        model, prep, measurement, grid = self._input(i)
        # a fresh provider per op, so no propagator cache carries over
        provider = ExactDephasingProvider(model)
        return statistics.joint_distribution(provider, prep, measurement, grid).table

    def check(self, i, table):
        model, prep, measurement, grid = self._input(i)
        key = (id(model), grid.times)
        if key not in self._oracle:
            self._oracle[key] = statistics.oracle_distribution(model, prep, measurement, grid).table
        return "ok" if np.max(np.abs(table - self._oracle[key])) <= ORACLE_TOL else "wrong"


class Kolmogorov(Workload):
    """One classicality report on qubit-zx over a seeded pool of times, orders 2..3.

    Fixed mix per cycle: four pools of 5 times, then one pool of 7 (about 2.3x
    the work), so p50 falls inside the pool-5 ops and p90 in the middle of the
    pool-7 ops.
    """

    name = "kolmogorov"
    MAX_ORDER, N_INPUTS, RECHECKED = 3, 8, 2
    POOL_MIX = (5, 5, 5, 5, 7)
    cycle = len(POOL_MIX)

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        rng = np.random.default_rng(seed)
        self.pools = {p: [_times(rng, p) for _ in range(self.N_INPUTS)] for p in sorted(set(self.POOL_MIX))}
        self.model = get_preset("qubit-zx")
        self.prep = SystemPreparation.diagonal([1.0, 0.0])
        self.measurement = fourier_mub(2)

    def _pool(self, i):
        return self.pools[self.POOL_MIX[i % self.cycle]][(i // self.cycle) % self.N_INPUTS]

    def expected_records(self, pool_size):
        """One record per non-decreasing n-tuple from the pool and interior position."""
        return sum(math.comb(pool_size + n - 1, n) * (n - 1) for n in range(2, self.MAX_ORDER + 1))

    def run(self, i):
        provider = ExactDephasingProvider(self.model)
        return classicality.classicality_report(provider, self.prep, self.measurement, self._pool(i), self.MAX_ORDER)

    def _oracle(self, times):
        return statistics.oracle_distribution(self.model, self.prep, self.measurement, TimeGrid(0.0, times))

    def check(self, i, report):
        if len(report.records) != self.expected_records(len(self._pool(i))):
            return "wrong"
        rng = np.random.default_rng([self.seed, i])
        for r in rng.choice(len(report.records), self.RECHECKED, replace=False):
            rec = report.records[r]
            p = rec.position
            fine = self._oracle(rec.times).as_array().sum(axis=p - 1).reshape(-1)
            coarse = self._oracle(rec.times[: p - 1] + rec.times[p:]).table
            if abs(float(np.max(np.abs(fine - coarse))) - rec.deficit) > ORACLE_TOL:
                return "wrong"
        return "ok"


# The five shipped configs, a generated classicality config on the analytic
# preset (its only distribution route), and four malformed documents that the
# README documents as exit 2.  Weights place p50 inside the markovianity runs
# and p90 inside the slowest kind (classicality on qubit-zx, a fifth of the
# mix), not on the boundary between two kinds of op.
CLI_MIX = (
    ("classicality_qubit_zx", 4),
    ("markovianity_scalar_phases", 4),
    ("ncgd_markov_real_qudit", 2),
    ("oracle_check_qubit_zx", 2),
    ("theta_sweep_qubit_zx", 2),
    ("generated_classicality", 2),
    ("bad_version", 1),
    ("bad_kind", 1),
    ("bad_times", 1),
    ("bad_max_order", 1),
)
SHIPPED_CONFIGS = CLI_MIX[:5]


class Cli(Workload):
    """One in-process ``dephaser run`` over a fixed mix of configs."""

    name = "cli"
    cycle = sum(w for _, w in CLI_MIX)

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        rng = np.random.default_rng(seed)
        docs = {}
        for name, _ in SHIPPED_CONFIGS:
            with open(os.path.join(root, "configs", name + ".json")) as fh:
                docs[name] = json.load(fh)
        gen = {
            "version": 1,
            "model": {"kind": "markovian", "preset": "markov-real-qudit"},
            "preparation": {"kind": "maximally-mixed"},
            "measurement": {"kind": "mub"},
            "grid": {"t0": 0.0, "times": list(_times(rng, 3))},
            "analysis": {"kind": "classicality", "max_order": 3},
        }
        docs["generated_classicality"] = gen
        docs["bad_version"] = {**gen, "version": int(rng.choice([0, 2, 3]))}
        docs["bad_kind"] = {**gen, "analysis": {"kind": "kind-%06x" % int(rng.integers(1 << 24)), "max_order": 3}}
        docs["bad_times"] = {**gen, "grid": {"t0": 0.0, "times": [str(rng.choice(list("abcxyz")))]}}
        docs["bad_max_order"] = {**gen, "analysis": {"kind": "classicality", "max_order": str(rng.choice(["two", "three", "four"]))}}

        os.makedirs(workdir)
        self.paths = {}
        for name, doc in docs.items():
            self.paths[name] = os.path.join(workdir, name + ".json")
            with open(self.paths[name], "w") as fh:
                json.dump(doc, fh)
        self.expected_exit = {name: (2 if name.startswith("bad_") else 0) for name in docs}
        self.sequence = [name for name, weight in CLI_MIX for _ in range(weight)]
        self.outdir = os.path.join(workdir, "out")
        self.reference = {}

    def warm_up(self):
        # the first repeat of each document; its outputs are the reference bytes
        for i, name in enumerate(self.sequence):
            if name not in self.reference:
                try:
                    output = self.run(i)
                except Exception:
                    continue  # counted as a failure in the timed ops
                self.check(i, output)

    def run(self, i):
        path = self.paths[self.sequence[i % self.cycle]]
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(["run", path, "--out", self.outdir])
        except Exception:
            self._collect_outputs()  # so the next op's check sees only its own files
            raise
        return code, err.getvalue()

    def _collect_outputs(self):
        files = {}
        if os.path.isdir(self.outdir):
            for f in sorted(os.listdir(self.outdir)):
                path = os.path.join(self.outdir, f)
                with open(path, "rb") as fh:
                    files[f] = fh.read()
                os.remove(path)
        self.bytes_written += sum(len(b) for b in files.values())
        return files

    def check(self, i, output):
        name = self.sequence[i % self.cycle]
        code, stderr = output
        files = self._collect_outputs()
        if code != self.expected_exit[name]:
            return "failed"
        if code != 0:
            lines = stderr.splitlines()
            try:
                one_object = len(lines) == 1 and isinstance(json.loads(lines[0]), dict)
            except json.JSONDecodeError:
                one_object = False
            return "ok" if one_object and not files else "failed"
        # README contract: same config and seed, byte-identical outputs
        expected = self.reference.setdefault(name, files)
        return "ok" if files and files == expected else "wrong"


WORKLOADS = {w.name: w for w in (Multitime, Kolmogorov, Cli)}
