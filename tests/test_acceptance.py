"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single pass/fail line
(visible with ``pytest -s`` or on failure).  Tolerances are stated inline.
"""

import itertools
import json
import os

import numpy as np
import pytest

from dephaser.classicality import (
    classicality_report,
    kolmogorov_deficit,
    markov_qubit_violation_closed,
    search_nonclassicality_witness,
    theta_sweep,
)
from dephaser.cli import main as cli_main
from dephaser.config import load_config
from dephaser.measurements import ProjectiveMeasurement, fourier_mub
from dephaser.models import (
    DephasingModel,
    ExactDephasingProvider,
    MarkovianAnalyticModel,
    MarkovianAnalyticProvider,
    semigroup_deficit,
)
from dephaser.presets import get_preset
from dephaser.statistics import (
    SystemPreparation,
    TimeGrid,
    joint_distribution,
    ncgd_deficit,
    oracle_distribution,
    sandwich_identity_deficit,
)
from reference import (
    delta_count,
    markovianity_deficit,
    qubit_two_time_deficit_closed,
    qubit_two_time_deficit_simplified,
    random_density,
    random_unitary,
)
from tests.conftest import random_exact_model


def _report(num, name, ok, extra=""):
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{extra}")
    assert ok, f"acceptance criterion {num} ({name}) failed{extra}"


def _model_pool():
    pool = []
    seed = 0
    for d in (2, 3):
        for big_d in (2, 3):
            for _ in range(5):
                pool.append((d, random_exact_model(d, big_d, seed)))
                seed += 17
    return pool  # 20 models


def _random_pvm(d, seed):
    return ProjectiveMeasurement(vectors=random_unitary(d, seed))


def test_01_oracle_equivalence():
    """Decomposition route equals the global-unitary oracle on 20 models."""
    worst = 0.0
    rng = np.random.default_rng(2024)
    for k, (d, model) in enumerate(_model_pool()):
        provider = ExactDephasingProvider(model)
        prep = SystemPreparation(random_density(d, 1000 + k))
        meas = _random_pvm(d, 2000 + k)
        n = 1 + k % 3
        times = tuple(np.sort(rng.uniform(0.1, 3.0, n)))
        grid = TimeGrid(0.0, times)
        fast = joint_distribution(provider, prep, meas, grid)
        slow = oracle_distribution(model, prep, meas, grid)
        worst = max(worst, float(np.max(np.abs(fast.table - slow.table))))
    _report(1, "oracle equivalence", worst <= 1e-10, f" (max diff {worst:.3e})")


def test_02_two_time_consistency_mub_diagonal():
    """MUB measurement with diagonal preparation is 2-time consistent."""
    worst_deficit = 0.0
    worst_uniform = 0.0
    rng = np.random.default_rng(7)
    for k, (d, model) in enumerate(_model_pool()):
        provider = ExactDephasingProvider(model)
        w = rng.dirichlet(np.ones(d))
        prep = SystemPreparation.diagonal(w)
        meas = fourier_mub(d, tuple(rng.uniform(0, 2 * np.pi, d)))
        t1, t2 = np.sort(rng.uniform(0.1, 3.0, 2))
        fine = joint_distribution(provider, prep, meas, TimeGrid(0.0, (t1, t2)))
        coarse = joint_distribution(provider, prep, meas, TimeGrid(0.0, (t2,)))
        worst_deficit = max(worst_deficit, kolmogorov_deficit(fine, coarse, 1))
        one_time = joint_distribution(provider, prep, meas, TimeGrid(0.0, (t1,)))
        worst_uniform = max(worst_uniform, float(np.max(np.abs(one_time.table - 1.0 / d))))
    ok = worst_deficit <= 1e-9 and worst_uniform <= 1e-12
    _report(2, "2-time consistency for unbiased bases", ok,
            f" (deficit {worst_deficit:.3e}, uniformity {worst_uniform:.3e})")


def test_03_three_time_violation_witness():
    """Coarse grid search finds a 3-time consistency violation."""
    provider = ExactDephasingProvider(get_preset("qubit-zx"))
    witness = search_nonclassicality_witness(
        provider,
        SystemPreparation.diagonal([1.0, 0.0]),
        fourier_mub(2, (0.0, 0.0)),
        t0=0.0,
        horizon=np.pi,
        points_per_interval=5,
        threshold=1e-3,
    )
    ok = witness is not None and witness.deficit >= 1e-3
    extra = "" if witness is None else f" (times {witness.times}, deficit {witness.deficit:.4f})"
    _report(3, "3-time violation witness", ok, extra)


def test_04_maximally_mixed_two_time_consistency():
    """Commuting and analytic models: 2-time consistent for any PVM."""
    providers = [
        ExactDephasingProvider(get_preset("commuting-diag")),
        MarkovianAnalyticProvider(
            MarkovianAnalyticModel(
                np.array([[0.0, 0.9], [-0.9, 0.0]]), np.array([[0.0, 0.4], [0.4, 0.0]])
            )
        ),
        MarkovianAnalyticProvider(get_preset("markov-real-qudit")),
    ]
    worst = 0.0
    for p_idx, provider in enumerate(providers):
        d = provider.d
        prep = SystemPreparation.maximally_mixed(d)
        for k in range(10):
            meas = _random_pvm(d, 300 + 31 * p_idx + k)
            t1, t2 = 0.4 + 0.1 * k, 1.3 + 0.2 * k
            fine = joint_distribution(provider, prep, meas, TimeGrid(0.0, (t1, t2)))
            coarse = joint_distribution(provider, prep, meas, TimeGrid(0.0, (t2,)))
            worst = max(worst, kolmogorov_deficit(fine, coarse, 1))
    _report(4, "maximally mixed 2-time consistency", worst <= 1e-9, f" (max deficit {worst:.3e})")


def test_05_markov_qubit_violation_closed_form():
    """Analytic qubit: closed-form 3-vs-2 time mismatch, exact to 1e-12.

    The prefactor is -(1/4), fixed against the numeric pipeline; see the
    docstring of markov_qubit_violation_closed.
    """
    rng = np.random.default_rng(55)
    worst = 0.0
    meas = fourier_mub(2)
    prep = SystemPreparation.maximally_mixed(2)
    for _ in range(100):
        eps_v = rng.uniform(0.1, 2.0)
        gam_v = rng.uniform(0.0, 2.0)
        t1, t2, t3 = np.sort(rng.uniform(0.1, 4.0, 3))
        prov = MarkovianAnalyticProvider(
            MarkovianAnalyticModel(
                np.array([[0.0, eps_v], [-eps_v, 0.0]]), np.array([[0.0, gam_v], [gam_v, 0.0]])
            )
        )
        p3 = joint_distribution(prov, prep, meas, TimeGrid(0.0, (t1, t2, t3))).as_array()
        p2 = joint_distribution(prov, prep, meas, TimeGrid(0.0, (t1, t3))).as_array()
        for x1 in range(2):
            for x3 in range(2):
                numeric = p2[x1, x3] - p3[x1, :, x3].sum()
                closed = markov_qubit_violation_closed(eps_v, gam_v, x3, x1, t3, t2, t1)
                worst = max(worst, abs(numeric - closed))
    # second half: eps = 0 restores classicality up to order 4
    real_prov = MarkovianAnalyticProvider(
        MarkovianAnalyticModel(np.zeros((2, 2)), np.array([[0.0, 0.6], [0.6, 0.0]]))
    )
    report = classicality_report(
        real_prov, SystemPreparation.diagonal([0.3, 0.7]), meas,
        (0.5, 1.0, 1.7, 2.6), max_order=4, tol=1e-9,
    )
    ok = worst <= 1e-12 and report.verdict(4)
    _report(5, "analytic qubit closed-form violation", ok,
            f" (closed-form diff {worst:.3e}, eps=0 classical up to 4: {report.verdict(4)})")


def test_06_real_qudit_classicality():
    """Uniform real dephasing in d = 3, 4 is classical up to order 4."""
    worst = 0.0
    for d in (3, 4):
        g = 0.8 * (np.ones((d, d)) - np.eye(d))
        prov = MarkovianAnalyticProvider(MarkovianAnalyticModel(np.zeros((d, d)), g))
        report = classicality_report(
            prov,
            SystemPreparation.maximally_mixed(d),
            fourier_mub(d),
            (0.4, 0.9, 1.5, 2.2),
            max_order=4,
            tol=1e-9,
        )
        worst = max(worst, report.max_deficit)
        assert report.verdict(4)
    _report(6, "real-dephasing qudit classicality", worst <= 1e-9, f" (max deficit {worst:.3e})")


def test_07_real_qubit_probability_tables():
    """Real-dephasing qubit tables match the 1/8 and 1/4 sign patterns."""
    gam = 0.7
    prov = MarkovianAnalyticProvider(
        MarkovianAnalyticModel(np.zeros((2, 2)), gam * (np.ones((2, 2)) - np.eye(2)))
    )
    prep = SystemPreparation.maximally_mixed(2)
    meas = fourier_mub(2)
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(3):
        t1, t2, t3 = np.sort(rng.uniform(0.1, 3.0, 3))
        phi = lambda b, a: np.exp(-0.5 * gam * (b - a))
        p32, p21, p31 = phi(t3, t2), phi(t2, t1), phi(t3, t1)
        table3 = joint_distribution(prov, prep, meas, TimeGrid(0.0, (t1, t2, t3))).as_array()
        table2 = joint_distribution(prov, prep, meas, TimeGrid(0.0, (t1, t3))).as_array()
        for x1, x2, x3 in itertools.product(range(2), repeat=3):
            pred = 0.125 * (
                1.0
                + (-1) ** (x3 - x2) * p32
                + (-1) ** (x2 - x1) * p21
                + (-1) ** (x3 - x1) * p31
            )
            worst = max(worst, abs(table3[x1, x2, x3] - pred))
        for x1, x3 in itertools.product(range(2), repeat=2):
            pred = 0.25 * (1.0 + (-1) ** (x3 - x1) * p31)
            worst = max(worst, abs(table2[x1, x3] - pred))
    _report(7, "real-dephasing qubit tables", worst <= 1e-12, f" (max diff {worst:.3e})")


def test_08_two_time_closed_forms_and_sweep():
    """General and simplified 2-time deficits match numerics; known zeros."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for k in range(100):
        d_env = 2 + k % 2
        model = random_exact_model(2, d_env, 5000 + k)
        prov = ExactDephasingProvider(model)
        p = rng.uniform(0.0, 1.0)
        theta = rng.uniform(0.0, np.pi / 2)
        phi = rng.uniform(0.0, 2 * np.pi)
        t1, t2 = np.sort(rng.uniform(0.1, 3.0, 2))
        prep = SystemPreparation.diagonal([p, 1 - p])
        from dephaser.measurements import qubit_basis

        meas = qubit_basis(theta, phi)
        fine = joint_distribution(prov, prep, meas, TimeGrid(0.0, (t1, t2)))
        coarse = joint_distribution(prov, prep, meas, TimeGrid(0.0, (t2,)))
        for x2 in range(2):
            numeric = fine.as_array()[:, x2].sum() - coarse.as_array()[x2]
            closed = qubit_two_time_deficit_closed(prov, p, theta, x2, t2, t1)
            worst = max(worst, abs(numeric - closed))
    zx = ExactDephasingProvider(get_preset("qubit-zx"))
    zeros_ok = (
        abs(qubit_two_time_deficit_closed(zx, 0.2, 0.0, 0, 1.7, 0.5)) < 1e-14
        and abs(qubit_two_time_deficit_closed(zx, 0.2, np.pi / 4, 0, 1.7, 0.5)) < 1e-14
        and abs(qubit_two_time_deficit_closed(zx, 0.5, 0.6, 0, 1.7, 0.5)) < 1e-14
        and qubit_two_time_deficit_simplified(0.5, 0.6, 0, 0.3) == 0.0
    )
    thetas = np.linspace(0.0, np.pi / 2, 181)
    _, _, argmax = theta_sweep(zx, 0.0, thetas, 1.6, 0.8)
    star = 0.5 * np.arctan(np.sqrt(2.0))
    step = thetas[1] - thetas[0]
    sweep_ok = min(abs(argmax - star), abs(argmax - (np.pi / 2 - star))) <= step
    ok = worst <= 1e-12 and zeros_ok and sweep_ok
    _report(8, "2-time closed forms and theta sweep", ok,
            f" (max diff {worst:.3e}, argmax {argmax:.5f} vs {star:.5f})")


def test_09_delta_count():
    """Off-diagonal pair counting equals d for all admissible shifts."""
    ok = all(
        delta_count(d, h) == d
        for d in range(2, 9)
        for h in list(range(1, d)) + list(range(-(d - 1), 0))
    )
    _report(9, "off-diagonal pair count", ok)


def test_10_markovianity_diagnostics():
    """Factorization holds for phases, fails for noncommuting/commuting-mixed."""
    scalar = get_preset("scalar-phases")
    d_scalar = markovianity_deficit(scalar, (0.3, 0.8, 1.4, 2.1, 2.9), max_order=4)
    zx = ExactDephasingProvider(get_preset("qubit-zx"))
    d_semi = semigroup_deficit(zx, 0.0, np.pi / 8, np.pi / 4)
    commuting = get_preset("commuting-diag")
    d_comm = markovianity_deficit(commuting, (0.0, 0.6, 1.3, 2.2), max_order=3)
    ok = d_scalar <= 1e-12 and d_semi > 1e-4 and d_comm > 1e-3
    _report(10, "markovianity diagnostics", ok,
            f" (scalar {d_scalar:.3e}, semigroup {d_semi:.3e}, commuting {d_comm:.3e})")


def test_11_ncgd_identities():
    """Real-dephasing factorizing models are NCGD for unbiased bases."""
    rng = np.random.default_rng(3)
    worst_sandwich = 0.0
    worst_ncgd = 0.0
    for d in (2, 3):
        g = rng.uniform(0.2, 1.5) * (np.ones((d, d)) - np.eye(d))
        prov = MarkovianAnalyticProvider(MarkovianAnalyticModel(np.zeros((d, d)), g))
        meas = fourier_mub(d)
        for _ in range(10):
            t1, t2, t3 = np.sort(rng.uniform(0.1, 4.0, 3))
            worst_sandwich = max(worst_sandwich, sandwich_identity_deficit(prov, meas, t3, t1))
            worst_ncgd = max(worst_ncgd, ncgd_deficit(prov, meas, t1, t2, t3))
    ok = worst_sandwich <= 1e-10 and worst_ncgd <= 1e-10
    _report(11, "ncgd identities", ok,
            f" (sandwich {worst_sandwich:.3e}, ncgd {worst_ncgd:.3e})")


def test_12_cli_determinism(tmp_path):
    """Repeated CLI runs of one config write byte-identical files."""
    doc = {
        "version": 1,
        "model": {"kind": "exact", "preset": "qubit-zx"},
        "preparation": {"kind": "diagonal", "weights": [1.0, 0.0]},
        "measurement": {"kind": "mub"},
        "grid": {"t0": 0.0, "times": [0.8, 1.6, 2.4]},
        "analysis": {"kind": "classicality", "max_order": 3},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", str(cfg), "--out", str(out_a)]) == 0
    assert cli_main(["run", str(cfg), "--out", str(out_b)]) == 0
    ok = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("report.json", "deficits.csv")
    )
    _report(12, "cli determinism", ok)


def test_13_finite_order_instance():
    """A qubit pool consistent to order 3 and violated at order 4, as the oracle reads it."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = load_config(os.path.join(root, "configs", "finite_order_qubit.json"))
    pool, max_order = cfg.grid.times, cfg.analysis["max_order"]
    report = classicality_report(cfg.provider, cfg.preparation, cfg.measurement, pool, max_order, t0=cfg.grid.t0)
    rows, deficits = report.columns[-1]
    row, position = np.unravel_index(np.argmax(deficits), deficits.shape)
    times, position = tuple(pool[i] for i in rows[row]), int(position) + 1
    # the order-4 maximum recomputed on the global-unitary route, tuple and marginal alike
    oracle = [
        oracle_distribution(cfg.provider.model, cfg.preparation, cfg.measurement, TimeGrid(0.0, grid))
        for grid in (times, times[: position - 1] + times[position:])
    ]
    recomputed = float(np.max(np.abs(oracle[0].marginalize(position).table - oracle[1].table)))
    ok = (
        max_order == 4
        and [report.verdict(n) for n in (1, 2, 3, 4)] == [True, True, True, False]
        and abs(deficits.max() - 2.7755e-3) < 1e-7
        and abs(recomputed - deficits.max()) <= 1e-12
    )
    _report(13, "finite-order instance", ok, f" (order-4 max {deficits.max():.10e}, oracle {recomputed:.10e})")
