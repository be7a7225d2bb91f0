"""Host speed on a shared machine: CPU choice and a fixed reference computation.

A virtual machine on a shared host runs the same code up to about 1.7x slower
in some phases than in others, and the phases last from seconds to many
minutes.  Two things here keep that out of the benchmark's figures:

* ``pin_to_fastest_cpu`` moves the process to the allowed CPU that runs a
  short Python loop fastest.  The slow phases of the two virtual CPUs mostly
  do not overlap, so the benchmark calls it again between mix cycles.
* ``reference_s`` times a fixed computation that belongs to the benchmark,
  not to the package: small numpy calls and plain interpreter work, the two
  kinds of work the ops are made of.  Its time follows the host's speed; the
  benchmark scales every measured time by ``REFERENCE_NOMINAL_S /
  reference_s()`` measured beside it, so that a figure reads as it would at
  one fixed host speed.
"""

from __future__ import annotations

import json
import os
import statistics
import time

#: reference time that the scaled figures are expressed at: about what
#: ``reference_s`` measures on an idle 2-vCPU Intel Xeon virtual machine
REFERENCE_NOMINAL_S = 0.006


def _spin() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - t0


def pin_to_fastest_cpu(rounds: int = 7) -> int:
    """Pin this process to the allowed CPU that runs a fixed Python loop fastest.

    The CPUs are timed in alternating rounds and compared by their median, so
    that a change of host speed during the probe does not decide it.  Child
    processes inherit the pin.
    """
    cpus = sorted(os.sched_getaffinity(0))
    times = {cpu: [] for cpu in cpus}
    if len(cpus) > 1:
        for _ in range(rounds):
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                times[cpu].append(min(_spin() for _ in range(2)))
    best = min(cpus, key=lambda cpu: statistics.median(times[cpu]) if times[cpu] else 0.0)
    os.sched_setaffinity(0, {best})
    return best


_MATRIX = None


def _reference_once() -> float:
    """One pass of the reference: small numpy calls, then plain interpreter
    work on dicts, strings and JSON, about half the time each."""
    import numpy as np

    global _MATRIX
    if _MATRIX is None:
        rng = np.random.default_rng(20221103)
        _MATRIX = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    a = _MATRIX
    t0 = time.perf_counter()
    x = np.eye(8, dtype=complex)
    for _ in range(400):
        x = x @ a
        x = x / np.abs(x).max()
        np.einsum("ij,ji->", x, a)
    counts, digits = {}, []
    for i in range(3000):
        key = "k%d" % (i % 97)
        counts[key] = counts.get(key, 0) + i
        digits.append(str(i * 7)[-2:])
        if i % 100 == 0:
            json.loads(json.dumps(counts))
    "".join(digits)
    return time.perf_counter() - t0


def reference_s(repeats: int = 3) -> float:
    """Median time of the fixed reference computation on this CPU, now."""
    return statistics.median(_reference_once() for _ in range(repeats))
