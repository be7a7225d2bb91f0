import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_exact_model
from reference import (
    classicality_columns,
    delta_count,
    qubit_two_time_deficit_closed,
    qubit_two_time_deficit_simplified,
)
from dephaser import classicality, cli, models, statistics
from dephaser.classicality import (
    classicality_report,
    kolmogorov_deficit,
    markov_qubit_violation_closed,
    search_nonclassicality_witness,
    theta_sweep,
)
from dephaser.config import parse_config
from dephaser.errors import ShapeError, SizeCapError, ValidationError
from dephaser.measurements import ProjectiveMeasurement, dephasing_basis, fourier_mub, qubit_basis
from dephaser.models import (
    ExactDephasingProvider,
    MarkovianAnalyticModel,
    MarkovianAnalyticProvider,
)
from dephaser.presets import get_preset
from dephaser.statistics import JointDistribution, SystemPreparation, TimeGrid, joint_distribution

angles = st.floats(min_value=0.0, max_value=np.pi / 2, allow_nan=False)
probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def real_dephasing_provider(d=2, gamma=0.5):
    g = gamma * (np.ones((d, d)) - np.eye(d))
    return MarkovianAnalyticProvider(MarkovianAnalyticModel(np.zeros((d, d)), g))


class TestKolmogorovDeficit:
    def test_consistent_process(self):
        prov = real_dephasing_provider()
        prep = SystemPreparation.diagonal([0.3, 0.7])
        meas = fourier_mub(2)
        fine = joint_distribution(prov, prep, meas, TimeGrid(0.0, (0.5, 1.0, 2.0)))
        coarse = joint_distribution(prov, prep, meas, TimeGrid(0.0, (0.5, 2.0)))
        assert kolmogorov_deficit(fine, coarse, 2) < 1e-12

    def test_last_position_rejected(self, zx_provider):
        prep = SystemPreparation.maximally_mixed(2)
        meas = fourier_mub(2)
        fine = joint_distribution(zx_provider, prep, meas, TimeGrid(0.0, (0.5, 1.0)))
        coarse = joint_distribution(zx_provider, prep, meas, TimeGrid(0.0, (0.5,)))
        with pytest.raises(ValidationError):
            kolmogorov_deficit(fine, coarse, 2)

    def test_grid_mismatch_rejected(self, zx_provider):
        prep = SystemPreparation.maximally_mixed(2)
        meas = fourier_mub(2)
        fine = joint_distribution(zx_provider, prep, meas, TimeGrid(0.0, (0.5, 1.0)))
        coarse = joint_distribution(zx_provider, prep, meas, TimeGrid(0.0, (2.0,)))
        with pytest.raises(ShapeError):
            kolmogorov_deficit(fine, coarse, 1)

    def test_outcome_count_mismatch_rejected(self):
        # tables of 2 and 3 outcomes cannot be compared entry by entry
        fine = JointDistribution(2, TimeGrid(0.0, (0.5, 1.0, 2.0)), np.full(8, 1 / 8))
        coarse = JointDistribution(3, TimeGrid(0.0, (0.5, 2.0)), np.full(9, 1 / 9))
        with pytest.raises(ShapeError, match="fine table has 2 outcomes, coarse 3"):
            kolmogorov_deficit(fine, coarse, 2)


class TestClassicalityReport:
    def test_real_dephasing_is_classical(self):
        report = classicality_report(
            real_dephasing_provider(),
            SystemPreparation.diagonal([0.2, 0.8]),
            fourier_mub(2),
            (0.5, 1.0, 1.8),
            max_order=3,
        )
        assert report.verdict(3)
        assert report.max_deficit < 1e-12

    def test_complex_dephasing_violates_order_three(self, markov_qubit_provider):
        report = classicality_report(
            markov_qubit_provider,
            SystemPreparation.maximally_mixed(2),
            fourier_mub(2),
            (0.5, 1.0, 1.8),
            max_order=3,
        )
        assert report.verdict(2)
        assert not report.verdict(3)

    def test_noncommuting_model_violates_order_two(self, zx_provider):
        report = classicality_report(
            zx_provider,
            SystemPreparation.diagonal([1.0, 0.0]),
            qubit_basis(0.5 * np.arctan(np.sqrt(2.0)), 0.0),
            (0.8, 1.6),
            max_order=2,
        )
        assert not report.verdict(2)
        assert report.max_deficit > 1e-2

    def test_dephasing_basis_always_classical(self, zx_provider):
        report = classicality_report(
            zx_provider,
            SystemPreparation.diagonal([0.4, 0.6]),
            dephasing_basis(2),
            (0.5, 1.3, 2.0),
            max_order=3,
        )
        assert report.verdict(3)

    def test_record_structure(self):
        report = classicality_report(
            real_dephasing_provider(),
            SystemPreparation.maximally_mixed(2),
            fourier_mub(2),
            (0.5, 1.0),
            max_order=3,
        )
        orders = sorted({r.order for r in report.records})
        assert orders == [2, 3]
        d = report.to_dict()
        assert d["verdicts"]["3"] is True
        assert sum(len(o["tuples"]) * (o["order"] - 1) for o in d["orders"]) == len(report.records)

    def test_note_is_not_a_field(self):
        # the note has one value: to_dict writes it, and there is no field to set or compare
        report = classicality_report(
            real_dephasing_provider(), SystemPreparation.maximally_mixed(2), fourier_mub(2), (0.5,), max_order=2
        )
        assert report.to_dict()["note"] == "order 1 is normalization only and recorded as trivially satisfied"
        assert "note" not in {field.name for field in dataclasses.fields(report)}

    def test_verdict_range(self):
        report = classicality_report(
            real_dephasing_provider(),
            SystemPreparation.maximally_mixed(2),
            fourier_mub(2),
            (0.5,),
            max_order=2,
        )
        with pytest.raises(ValidationError):
            report.verdict(5)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"max_order": 3.0}, "max_order must be an integer, got 3.0"),  # raised TypeError in numpy
            ({"max_order": np.float64(2.0)}, "max_order must be an integer"),
            ({"tol": float("nan")}, "tol must be finite, got nan"),  # made every verdict False
            ({"tol": float("inf")}, "tol must be finite, got inf"),  # made every verdict True
            ({"tol": -1e-3}, "tol must be >= 0, got -0.001"),  # made every verdict False
        ],
        ids=["float-order", "numpy-float-order", "nan-tol", "inf-tol", "negative-tol"],
    )
    def test_bad_order_or_tol_rejected_before_any_propagator(self, zx_provider, monkeypatch, kwargs, match):
        def forbidden(*args):
            raise AssertionError("no propagator before the input checks")

        monkeypatch.setattr(models, "spectral_expm", forbidden)
        prep, meas = SystemPreparation.diagonal([1.0, 0.0]), fourier_mub(2)
        with pytest.raises(ValidationError, match=f"^classicality_report: {match}"):
            classicality_report(zx_provider, prep, meas, (0.5, 1.2), **{"max_order": 3, **kwargs})
        assert zx_provider._eig is None

    def test_integral_order_accepted(self, zx_provider):
        prep, meas = SystemPreparation.diagonal([1.0, 0.0]), fourier_mub(2)
        assert classicality_report(zx_provider, prep, meas, (0.5, 1.2), np.int64(3)) == classicality_report(
            zx_provider, prep, meas, (0.5, 1.2), 3
        )


def per_tuple_records(provider, prep, meas, pool, max_order, t0=0.0):
    """Reference report: fine and coarse distributions computed afresh for every tuple."""
    pool = sorted({float(t) for t in pool})
    records = []
    for n in range(2, max_order + 1):
        for sel in itertools.combinations_with_replacement(pool, n):
            fine = joint_distribution(provider, prep, meas, TimeGrid(t0, sel))
            for position in range(1, n):
                coarse = joint_distribution(provider, prep, meas, TimeGrid(t0, sel[: position - 1] + sel[position:]))
                records.append((n, position, sel, kolmogorov_deficit(fine, coarse, position)))
    return records


def assert_matches_reference(report, reference):
    assert len(report.records) == len(reference)
    for rec, (n, position, sel, deficit) in zip(report.records, reference):
        assert (rec.order, rec.position, rec.times) == (n, position, sel)
        assert abs(rec.deficit - deficit) <= 1e-12


def general_qutrit_measurement():
    """Two-outcome PVM on a qutrit: a rank-one projector and its rank-two complement."""
    v = np.array([1.0, 1.0j, -1.0]) / np.sqrt(3.0)
    p0 = np.outer(v, v.conj())
    return ProjectiveMeasurement(projectors=(p0, np.eye(3) - p0))


class TestReportMatchesPerTupleReference:
    """The prefix-trie report against a per-tuple recomputation of every distribution."""

    @pytest.mark.parametrize(
        "case",
        ["qubit-zx", "exact-d3-D2", "exact-d3-D2-general-pvm", "analytic-d3"],
    )
    def test_records(self, case):
        if case == "qubit-zx":
            provider = ExactDephasingProvider(get_preset("qubit-zx"))
            prep, meas = SystemPreparation.diagonal([1.0, 0.0]), fourier_mub(2)
        elif case.startswith("exact-d3-D2"):
            provider = ExactDephasingProvider(random_exact_model(3, 2, 41))
            prep = SystemPreparation.pure([1.0, 0.5 - 0.5j, -0.3])
            meas = general_qutrit_measurement() if case.endswith("pvm") else fourier_mub(3)
        else:
            # level shifts w_j plus white noise of strengths g_j: a CP dephasing semigroup
            w, g = np.array([0.0, 0.8, -0.3]), np.array([0.0, 1.0, 0.4])
            eps, gamma = w[:, None] - w[None, :], (g[:, None] - g[None, :]) ** 2
            provider = MarkovianAnalyticProvider(MarkovianAnalyticModel(eps, gamma))
            prep, meas = SystemPreparation.maximally_mixed(3), fourier_mub(3)
        pool, t0 = (0.4, 1.1, 1.7, 2.9), 0.1
        report = classicality_report(provider, prep, meas, pool, 4, t0=t0)
        assert_matches_reference(report, per_tuple_records(provider, prep, meas, pool, 4, t0=t0))

    def test_records_d3_D4(self):
        # four-dimensional environment blocks under three-outcome Kraus products
        provider = ExactDephasingProvider(random_exact_model(3, 4, 29))
        prep = SystemPreparation.pure([0.6, -0.2 + 0.4j, 0.5])
        pool, t0 = (0.35, 0.9, 1.6), 0.05
        report = classicality_report(provider, prep, fourier_mub(3), pool, 3, t0=t0)
        assert_matches_reference(report, per_tuple_records(provider, prep, fourier_mub(3), pool, 3, t0=t0))
        assert report.max_deficit > 1e-3

    @given(
        pool=st.lists(st.floats(0.05, 3.0, allow_nan=False), min_size=1, max_size=5),
        max_order=st.integers(2, 4),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_property(self, pool, max_order, seed):
        provider = ExactDephasingProvider(random_exact_model(2, 2, seed))
        prep, meas = SystemPreparation.diagonal([0.7, 0.3]), fourier_mub(2)
        report = classicality_report(provider, prep, meas, pool, max_order)
        assert_matches_reference(report, per_tuple_records(provider, prep, meas, pool, max_order))

    def test_repeated_pool_times_recorded_once(self, zx_provider):
        prep, meas = SystemPreparation.diagonal([1.0, 0.0]), fourier_mub(2)
        report = classicality_report(zx_provider, prep, meas, (2.0, 1.0, 1.0), 2)
        assert [r.times for r in report.records] == [(1.0, 1.0), (1.0, 2.0), (2.0, 2.0)]
        assert report.to_dict()["grid_pool"] == [1.0, 2.0]
        assert report == classicality_report(zx_provider, prep, meas, (1.0, 2.0), 2)

    @pytest.mark.parametrize(
        "big_d, pool, max_order",
        [(4, (1.0,), 21), (2, tuple(0.1 * k for k in range(1, 31)), 6)],
        ids=["largest-state", "stored-tables"],
    )
    def test_cap_checked_before_any_propagator(self, big_d, pool, max_order, monkeypatch):
        # a pool of 1 time at order 21, D = 4: the deepest level's parent states
        # hold 2^20·r²·D² = 2^24 entries, the stored tables only 2^22 - 2;
        # 30 times at order 6, D = 2: C(35, 6)·2^6 ~ 10^8 stored table entries
        def forbidden(*args):
            raise AssertionError("no propagator before the cap check")

        provider = ExactDephasingProvider(random_exact_model(2, big_d, seed=3))
        monkeypatch.setattr(models, "spectral_expm", forbidden)
        with pytest.raises(SizeCapError):
            classicality_report(provider, SystemPreparation.maximally_mixed(2), fourier_mub(2), pool, max_order)
        assert provider._batch is None
        assert provider._eig is None

    @pytest.mark.parametrize(
        "pool, max_order, message",
        [
            ((1.0,), 10**6, r"^classicality_report: 1000000 orders exceed cap 22$"),
            ((1.0,), 10**12, r"^classicality_report: 1000000000000 orders exceed cap 22$"),
            # 20 times to order 8: C(28, 8) - 1 = 3108104 one-entry tables fit, 20572696 records do not
            (tuple(0.1 * k for k in range(1, 21)), 8, r"^classicality_report: at least 20572696 records exceed cap 10000000$"),
        ],
        ids=["order-1e6", "order-1e12", "records"],
    )
    def test_single_outcome_report_bounded(self, zx_provider, monkeypatch, pool, max_order, message):
        # one outcome: each table is one entry, so neither the node nor the stored tables bound N
        def forbidden(*args):
            raise AssertionError("no propagator before the cap check")

        monkeypatch.setattr(models, "spectral_expm", forbidden)
        one_outcome = ProjectiveMeasurement(projectors=[np.eye(2)])
        began = time.perf_counter()
        with pytest.raises(SizeCapError, match=message):
            classicality_report(zx_provider, SystemPreparation.diagonal([0.8, 0.2]), one_outcome, pool, max_order)
        assert time.perf_counter() - began < 1.0

    def test_order_bound_never_speaks_first_with_two_outcomes(self, zx_provider):
        # qubit-zx at order 10^6 keeps its node message; with m >= 2 the stored tables refuse order 23
        # (2 + 4 + ... + 2^23 = 2^24 - 2 entries) before the order bound is read, and pass order 22
        message = r"^classicality_report: 33554448 entries in its largest node exceed cap 10000000$"
        with pytest.raises(SizeCapError, match=message):
            classicality_report(zx_provider, SystemPreparation.diagonal([1.0, 0.0]), fourier_mub(2), (1.0,), 10**6)
        assert 2 ** (classicality.MAX_ORDER + 2) - 2 > classicality.TERM_CAP
        shape, big = (2, 2, 1), 1  # a qubit, a rank-one PVM and D = 1: the least node of m = 2
        assert classicality._sizes(shape, big, 1, classicality.MAX_ORDER, classicality.TERM_CAP)[0] == 2**22 + 4
        with pytest.raises(SizeCapError, match=r"^classicality_report: at least 16777214 stored table entries exceed"):
            classicality._sizes(shape, big, 1, classicality.MAX_ORDER + 1, classicality.TERM_CAP)

    def test_cap_counts_parent_states_and_effects(self, zx_provider, monkeypatch):
        # one time at order 4, D = 2: a deepest-level row holds its parent's
        # 2^3·r²·D² = 32 entries of branch states and 2²·r²·D² = 16 of gathered
        # effects; the stored tables hold 2 + 4 + 8 + 16 = 30 entries
        prep, meas = SystemPreparation.maximally_mixed(2), fourier_mub(2)
        whole = classicality_report(zx_provider, prep, meas, (1.0,), 4)
        monkeypatch.setattr(classicality, "TERM_CAP", 48)
        assert classicality_report(zx_provider, prep, meas, (1.0,), 4).records == whole.records
        monkeypatch.setattr(classicality, "TERM_CAP", 47)
        with pytest.raises(SizeCapError):
            classicality_report(zx_provider, prep, meas, (1.0,), 4)

    def test_dimension_mismatch_rejected(self, zx_provider):
        with pytest.raises(ShapeError):
            classicality_report(zx_provider, SystemPreparation.maximally_mixed(3), fourier_mub(2), (1.0,), 2)


def inject_first_rows(monkeypatch, bad_rows):
    """Make the first row of a two-outcome report's order-n tables ``bad_rows[n]``, whether
    a level computes them from its branch states or reads them out at the deepest level."""
    for name in ("_probabilities", "_readout"):
        real = getattr(classicality, name)

        def first_row_bad(*args, real=real):
            tables = real(*args).copy()
            rows = tables.reshape(len(tables), -1)
            n = round(math.log2(rows.shape[1]))
            if n in bad_rows:
                rows[0] = bad_rows[n]
            return tables

        monkeypatch.setattr(classicality, name, first_row_bad)


class TestReportChecks:
    """The report's whole-array checks and its chunked levels."""

    @pytest.mark.parametrize(
        "pool, t0, message",
        [
            ((0.5, float("inf")), 0.0, r"^classicality_report: pool must be finite, got inf$"),
            ((0.5, float("nan")), 0.0, r"^classicality_report: pool must be finite, got nan$"),
            ((0.5, 1.2), float("nan"), r"^classicality_report: t0 must be finite, got nan$"),
            ((0.5, 1.2), float("-inf"), r"^classicality_report: t0 must be finite, got -inf$"),
        ],
        ids=["inf-time", "nan-time", "nan-t0", "inf-t0"],
    )
    def test_non_finite_times_rejected_first(self, zx_provider, pool, t0, message):
        # a pool holding inf formed inf - inf among its spans, a RuntimeWarning, before any check
        with pytest.raises(ValidationError, match=message):
            classicality_report(zx_provider, SystemPreparation.diagonal([1.0, 0.0]), fourier_mub(2), pool, 3, t0=t0)

    @pytest.mark.parametrize("factor", [1.0 + 1e-6, float("nan")], ids=["unnormalised", "nan"])
    def test_bad_tables_rejected(self, zx_model, factor):
        class ScalingProvider(ExactDephasingProvider):
            def apply(self, state, kernels, source, target):
                return factor * super().apply(state, kernels, source, target)

        with pytest.raises(ValidationError):
            classicality_report(
                ScalingProvider(zx_model), SystemPreparation.diagonal([1.0, 0.0]), fourier_mub(2), (0.5, 1.2), 3
            )

    @pytest.mark.parametrize("factor", [1.0 + 1e-6, float("nan")], ids=["unnormalised", "nan"])
    def test_bad_deepest_tables_rejected(self, zx_model, factor):
        # only the deepest level's tables, read out through the effects, are off
        class ScalingProvider(ExactDephasingProvider):
            def effects(self, kernels, source, target):
                return factor * super().effects(kernels, source, target)

        with pytest.raises(ValidationError, match="table at times .* is not a probability"):
            classicality_report(
                ScalingProvider(zx_model), SystemPreparation.diagonal([1.0, 0.0]), fourier_mub(2), (0.5, 1.2), 3
            )

    @pytest.mark.parametrize(
        "bad",
        [[np.nan, 1.0], [np.inf, 0.0], [-np.inf, 1.0], [0.5, 0.4], [1.1, -0.1]],
        ids=["nan", "inf", "minus-inf", "unnormalised", "below-floor"],
    )
    def test_one_rule_for_every_table(self, zx_model, monkeypatch, bad):
        # a JointDistribution and a report's table are refused by the same rule, in the same words
        rule = r"is not a probability table \(.*; need finite entries >= -1e-10 summing to 1 within 1e-10\)"
        with pytest.raises(ValidationError, match="JointDistribution: table " + rule):
            JointDistribution(2, TimeGrid(0.0, (0.5,)), np.array(bad))
        real = classicality._probabilities

        def first_table_bad(state):
            tables = real(state).copy()
            tables.reshape(len(tables), -1)[0] = bad
            return tables

        monkeypatch.setattr(classicality, "_probabilities", first_table_bad)
        with pytest.raises(ValidationError, match=r"classicality_report: table at times \(0\.5,\) " + rule):
            classicality_report(
                ExactDephasingProvider(zx_model), SystemPreparation.diagonal([1.0, 0.0]), fourier_mub(2), (0.5, 1.2), 2
            )

    def test_marginal_failure_named(self, zx_model, monkeypatch):
        # entries >= -1e-10 summing to 1, so the table passes; its position-1
        # marginal, [-1.2e-10, 1 + 1.2e-10], has an entry below the floor
        inject_first_rows(monkeypatch, {2: [-0.6e-10, 0.5, -0.6e-10, 0.5 + 1.2e-10]})
        rule = r" is not a probability table \(min entry -1\.200e-10"
        with pytest.raises(ValidationError, match=r"^classicality_report: marginal at position 1 of the table at times \(0\.5, 0\.5\)" + rule):
            classicality_report(
                ExactDephasingProvider(zx_model), SystemPreparation.diagonal([1.0, 0.0]), fourier_mub(2), (0.5, 1.2), 2
            )

    def test_lowest_order_bad_table_named_first(self, zx_model, monkeypatch):
        # bad tables at orders 1 and 3: the tables are checked order by order
        inject_first_rows(monkeypatch, {1: [0.5, 0.4], 3: [0.5, 0.4, 0, 0, 0, 0, 0, 0]})
        with pytest.raises(ValidationError, match=r"^classicality_report: table at times \(0\.5,\) is not"):
            classicality_report(
                ExactDephasingProvider(zx_model), SystemPreparation.diagonal([1.0, 0.0]), fourier_mub(2), (0.5, 1.2), 3
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
    def test_non_finite_table_named_before_any_marginal(self, zx_model, monkeypatch, bad):
        # an order-3 table of a 4-order report: every table is checked before any
        # marginal is formed, so the table is named and no RuntimeWarning is raised
        inject_first_rows(monkeypatch, {3: [bad, 1.0, 0, 0, 0, 0, 0, 0]})
        with pytest.raises(ValidationError, match=r"^classicality_report: table at times \(0\.5, 0\.5, 0\.5\) is not"):
            classicality_report(
                ExactDephasingProvider(zx_model), SystemPreparation.diagonal([1.0, 0.0]), fourier_mub(2), (0.5, 1.2), 4
            )

    @pytest.mark.parametrize(
        "big_d, pool, max_order",
        [(4, (1.0,), 21), (2, tuple(0.1 * k for k in range(1, 31)), 6)],
        ids=["largest-state", "stored-tables"],
    )
    def test_cap_checked_before_any_eigendecomposition(self, big_d, pool, max_order):
        # the inputs of test_cap_checked_before_any_propagator
        provider = ExactDephasingProvider(random_exact_model(2, big_d, seed=3))
        with pytest.raises(SizeCapError):
            classicality_report(provider, SystemPreparation.maximally_mixed(2), fourier_mub(2), pool, max_order)
        assert provider._eig is None

    def test_chunked_levels_match_unchunked(self, zx_model, monkeypatch):
        steps = []

        class CountingProvider(ExactDephasingProvider):
            def apply(self, state, kernels, source, target):
                steps.append("apply")
                return super().apply(state, kernels, source, target)

            def effects(self, kernels, source, target):
                steps.append("effects")
                return super().effects(kernels, source, target)

        prep, meas, pool = SystemPreparation.diagonal([0.8, 0.2]), fourier_mub(2), (0.3, 0.9, 1.4, 2.2)
        whole = classicality_report(CountingProvider(zx_model), prep, meas, pool, 4)
        assert len(steps) == 4
        # largest state 2^4·r²·D² = 64 entries, stored tables 768: both fit, but
        # each level in flight may hold only 800 // 4 = 200 state entries
        monkeypatch.setattr(classicality, "TERM_CAP", 800)
        steps.clear()
        chunked = classicality_report(CountingProvider(zx_model), prep, meas, pool, 4)
        assert len(steps) > 4
        assert chunked == whole

    def test_level_one_in_chunks_of_one_row(self, zx_model, monkeypatch):
        # level 1 applies its kernels to the root by broadcasting: one root row against
        # a kernel per pool time.  2 times to order 3 at a cap of 48 (the stored tables,
        # 2·2 + 3·4 + 4·8): each level in flight holds 48 // 3 = 16 entries, one level-1 row
        applied = []

        class CountingProvider(ExactDephasingProvider):
            def apply(self, state, kernels, source, target):
                if len(source) == 1:  # the identity basis: level 1
                    applied.append((state.shape[:3], kernels.shape[:3]))
                return super().apply(state, kernels, source, target)

        seen, real = [], classicality._columns

        def spy(flat, tables, *args):
            seen.append({n: t.tobytes() for n, t in tables.items()})
            return real(flat, tables, *args)

        monkeypatch.setattr(classicality, "_columns", spy)
        prep, meas, pool = SystemPreparation.diagonal([0.8, 0.2]), fourier_mub(2), (0.3, 1.4)
        whole = classicality_report(CountingProvider(zx_model), prep, meas, pool, 3)
        assert applied == [((1, 1, 1), (2, 1, 1))]
        monkeypatch.setattr(classicality, "TERM_CAP", 48)
        applied.clear()
        chunked = classicality_report(CountingProvider(zx_model), prep, meas, pool, 3)
        assert applied == [((1, 1, 1), (1, 1, 1))] * 2
        assert seen[0] == seen[1]
        assert_same_report(whole, chunked)

    @pytest.mark.parametrize("max_order", [2, 3, 4])
    def test_deepest_level_builds_no_branch_state(self, zx_model, monkeypatch, max_order):
        # levels below max_order apply their kernels; the deepest one only reads
        # its effects out, so no branch state of max_order outcomes is built
        built, effects = [], []

        class CountingProvider(ExactDephasingProvider):
            def apply(self, state, kernels, source, target):
                out = super().apply(state, kernels, source, target)
                built.append(math.prod(out.shape[1:-2]))  # outcomes per row
                return out

            def effects(self, kernels, source, target):
                effects.append(len(kernels))
                return super().effects(kernels, source, target)

        prep, meas, pool = SystemPreparation.diagonal([0.8, 0.2]), fourier_mub(2), (0.3, 0.9, 1.4)
        for cap in (classicality.TERM_CAP, 800):  # one chunk per level, then several
            monkeypatch.setattr(classicality, "TERM_CAP", cap)
            built.clear()
            effects.clear()
            classicality_report(CountingProvider(zx_model), prep, meas, pool, max_order)
            assert built and max(built) == 2 ** (max_order - 1)
            # effects of distinct durations only: at most one per pair s <= t of the pool
            assert effects and all(0 < k <= len(pool) * (len(pool) + 1) // 2 for k in effects)


class TestReportColumns:
    """One exponentiation per report, and records read from the report's columns."""

    POOL = (0.3, 0.9, 1.4, 2.2)

    @pytest.mark.parametrize("cap", [classicality.TERM_CAP, 800], ids=["default-cap", "cap-800"])
    def test_one_exponentiation_per_report(self, zx_provider, monkeypatch, cap):
        # at a cap of 800 the levels run in chunks (test_chunked_levels_match_unchunked),
        # yet every chunk gathers its kernels from the report-wide arrays
        calls = []
        real = models.spectral_expm

        def counting(w, v, tau):
            calls.append(np.asarray(tau).size)
            return real(w, v, tau)

        monkeypatch.setattr(models, "spectral_expm", counting)
        monkeypatch.setattr(classicality, "TERM_CAP", cap)
        prep, meas = SystemPreparation.diagonal([0.8, 0.2]), fourier_mub(2)
        classicality_report(zx_provider, prep, meas, self.POOL, 4)
        # the distinct durations: 4 from t0 = 0 and 7 between pool times (0 included)
        assert calls == [11]

    def test_uncapped_stage_arrays_chunked(self, zx_model, monkeypatch):
        # 12 times at order 2: stored tables 12·2 + 78·4 = 336 entries and a
        # largest node of 32 fit a cap of 1000, but the stage arrays of the
        # 90 durations, (12 + 78)·16 + 12·16 + 2·78·16 = 4128 entries, do not:
        # each chunk then exponentiates its own distinct durations
        pool = tuple(np.random.default_rng(8).uniform(0.05, 3.0, 12))
        prep, meas = SystemPreparation.diagonal([0.6, 0.4]), fourier_mub(2)
        whole = classicality_report(ExactDephasingProvider(zx_model), prep, meas, pool, 2)
        calls = []
        real = models.spectral_expm

        def counting(w, v, tau):
            calls.append(np.asarray(tau).size)
            return real(w, v, tau)

        monkeypatch.setattr(models, "spectral_expm", counting)
        monkeypatch.setattr(classicality, "TERM_CAP", 1000)
        chunked = classicality_report(ExactDephasingProvider(zx_model), prep, meas, pool, 2)
        assert len(calls) > 2 and max(calls) < 78
        assert chunked == whole
        for a, b in zip(chunked.columns, whole.columns):
            assert np.array_equal(a[1], b[1])

    def test_no_record_built(self, monkeypatch):
        built = []
        real = classicality.DeficitRecord.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(classicality.DeficitRecord, "__init__", counting)
        provider = ExactDephasingProvider(get_preset("qubit-zx"))
        report = classicality_report(provider, SystemPreparation.diagonal([1.0, 0.0]), fourier_mub(2), self.POOL, 3)
        report.to_dict()
        assert len(report.records) == 4 * 5 // 2 + 20 * 2
        assert not report.verdict(3) and report.max_deficit > 1e-3
        doc = {
            "version": 1,
            "model": {"kind": "exact", "preset": "qubit-zx"},
            "preparation": {"kind": "diagonal", "weights": [1.0, 0.0]},
            "measurement": {"kind": "mub"},
            "grid": {"t0": 0.0, "times": list(self.POOL)},
            "analysis": {"kind": "classicality", "max_order": 3},
        }
        cli._run_classicality(parse_config(doc))
        assert built == []
        report.records[0]
        assert len(built) == 1

    def test_records_view(self, zx_provider):
        prep, meas, t0 = SystemPreparation.diagonal([0.7, 0.3]), fourier_mub(2), 0.1
        report = classicality_report(zx_provider, prep, meas, self.POOL, 4, t0=t0)
        reference = per_tuple_records(zx_provider, prep, meas, self.POOL, 4, t0=t0)
        records = report.records
        assert len(records) == len(reference) == 10 + 20 * 2 + 35 * 3
        # iteration in record order: order, then tuple, then position
        assert_matches_reference(report, reference)
        listed = list(records)
        assert [records[k] for k in range(len(records))] == listed
        assert records[-1] == listed[-1] and records[-len(records)] == listed[0]
        assert (records[-1].order, records[-1].position, records[-1].times) == (4, 3, (2.2,) * 4)
        assert records[np.int64(7)] == listed[7]
        for s in (slice(None), slice(3, 17), slice(-5, None), slice(None, None, -3), slice(40, 10, -7)):
            assert records[s] == tuple(listed[s])
        with pytest.raises(IndexError):
            records[len(records)]
        with pytest.raises(IndexError):
            records[-len(records) - 1]
        again = classicality_report(zx_provider, prep, meas, self.POOL, 4, t0=t0).records
        assert records == again and records == tuple(listed) and records == listed
        assert records != listed[:-1]
        assert records != classicality_report(zx_provider, prep, meas, self.POOL, 3, t0=t0).records
        assert report.max_deficit == max(r.deficit for r in listed)
        for n in range(1, 5):
            assert report.verdict(n) == all(r.deficit <= report.tolerance for r in listed if r.order <= n)


def analytic_d3_provider():
    # level shifts w_j plus white noise of strengths g_j: a CP dephasing semigroup
    w, g = np.array([0.0, 0.8, -0.3]), np.array([0.0, 1.0, 0.4])
    return MarkovianAnalyticProvider(MarkovianAnalyticModel(w[:, None] - w[None, :], (g[:, None] - g[None, :]) ** 2))


TAIL_CASES = {
    # rank-one PVM, m = 2
    "exact-qubit-mub": lambda: (
        ExactDephasingProvider(get_preset("qubit-zx")),
        SystemPreparation.diagonal([0.8, 0.2]),
        fourier_mub(2),
    ),
    # a rank-one projector and its rank-two complement, m = 2
    "exact-d3-rank-two": lambda: (
        ExactDephasingProvider(random_exact_model(3, 2, 41)),
        SystemPreparation.pure([1.0, 0.5 - 0.5j, -0.3]),
        general_qutrit_measurement(),
    ),
    # rank-one PVM, m = 3
    "analytic-d3-mub": lambda: (analytic_d3_provider(), SystemPreparation.maximally_mixed(3), fourier_mub(3)),
    # one outcome, the identity: every marginal is its table
    "exact-qubit-one-outcome": lambda: (
        ExactDephasingProvider(get_preset("qubit-zx")),
        SystemPreparation.diagonal([0.8, 0.2]),
        ProjectiveMeasurement(projectors=(np.eye(2),)),
    ),
}


class TestReportTail:
    """The report's checks and deficits against the per-(order, position) reference,
    bit for bit, on the tables the report computed."""

    @pytest.mark.parametrize("slabs", ["one-slab", "slab-per-segment"])
    @pytest.mark.parametrize("walk", ["unchunked", "chunked"])
    @pytest.mark.parametrize(
        "pool, max_order",
        [((0.4, 1.1, 1.1, 2.9), 3), ((1.3,), 5), ((0.3, 0.9, 1.4), 5), ((0.5, 2.0), 2)],
        ids=["repeated-time", "one-time", "order-5", "order-2"],
    )
    @pytest.mark.parametrize("case", list(TAIL_CASES))
    def test_bitwise_equal_to_reference(self, monkeypatch, case, pool, max_order, walk, slabs):
        provider, prep, meas = TAIL_CASES[case]()
        p, (m, _, r) = len(set(pool)), meas.bases.shape
        seen, calls = [], []
        real_columns, real_probabilities = classicality._columns, classicality._probabilities

        def spy(flat, tables, plan, m, pool):
            seen.append({n: t.copy() for n, t in tables.items()})
            if slabs == "slab-per-segment":
                # a budget of 0 puts each segment but the smallest in a slab of its own
                plan = classicality._plan(p, max_order, m, 0)
            return real_columns(flat, tables, plan, m, pool)

        def counting(state):
            calls.append(len(state))
            return real_probabilities(state)

        monkeypatch.setattr(classicality, "_columns", spy)
        monkeypatch.setattr(classicality, "_probabilities", counting)
        if walk == "chunked":
            # the least cap the report passes: its largest node, its stored tables or its records
            node = statistics._state_entries(meas.bases.shape, provider.env.size, max_order) + m * m * r * r * provider.env.size
            stored = sum(math.comb(p + n - 1, n) * m**n for n in range(1, max_order + 1))
            records = sum(math.comb(p + n - 1, n) * (n - 1) for n in range(2, max_order + 1))
            monkeypatch.setattr(classicality, "TERM_CAP", max(node, stored, records))
        report = classicality_report(provider, prep, meas, pool, max_order, t0=0.1)
        # one state computation per level below the deepest, more where the walk runs in chunks
        assert len(calls) > max_order - 1 if walk == "chunked" and p > 1 else len(calls) == max_order - 1
        reference = classicality_columns(seen[0], report.pool)
        assert len(report.columns) == len(reference) == max_order - 1
        for (rows, deficits), (ref_rows, ref_deficits) in zip(report.columns, reference):
            assert np.array_equal(rows, ref_rows)
            assert deficits.shape == ref_deficits.shape and deficits.tobytes() == ref_deficits.tobytes()
            assert not deficits.flags.writeable

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("p, max_order", [(1, 5), (4, 2), (4, 4), (3, 5)])
    def test_slabs_hold_whole_segments_within_budget(self, p, max_order, m):
        # per (order n, position k): one row of m^(n-1) entries per order-n tuple
        segments = [(n, k, math.comb(p + n - 1, n)) for n in range(2, max_order + 1) for k in range(1, n)]
        sizes = [rows * m ** (n - 1) for n, _, rows in segments]
        largest, total = max(sizes), sum(sizes)
        for budget in (0, largest, largest + 1, total - 1, total, 10**9):
            slabs = classicality._plan(p, max_order, m, budget).slabs
            # consecutive, whole and in record order
            assert [(n, k, rows) for slab in slabs for n, k, rows, _, _ in slab[3]] == segments
            record = 0
            for entries, records, starts, held, _ in slabs:
                assert records == slice(record, record + len(starts))
                record, entry, expected = records.stop, 0, []
                for n, k, rows, width, at in held:
                    assert width == m ** (n - k) and at == slice(entry, entry + rows * m ** (n - 1))
                    expected.extend(range(entry, at.stop, m ** (n - 1)))
                    entry = at.stop
                assert entries == entry <= max(budget, largest)
                assert starts.tolist() == expected
            assert record == sum(rows for _, _, rows in segments)
            # each slab but the last is full: the next segment would not fit
            for slab, after in itertools.pairwise(slabs):
                assert slab[0] + after[3][0][4].stop > max(budget, largest)
            assert len(slabs) == 1 if budget >= total else len(slabs) > 1 or len(segments) == 1
            assert classicality._plan(p, max_order, m, budget).largest == max(slab[0] for slab in slabs)

    EDGES = [t for edge in (1 + 1e-10, 1 - 1e-10) for t in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0))]

    @pytest.mark.parametrize("total", EDGES, ids=[f"{t:.17g}" for t in EDGES])
    def test_fused_check_agrees_with_the_rule(self, zx_model, monkeypatch, total):
        # a table whose total lies one ulp either side of each edge of 1 ± NORM_TOL:
        # checking all tables at once passes exactly what the rule passes
        row = [0.5, 0.0, 0.0, total - 0.5]  # both sums exact: the row's total is `total`
        inject_first_rows(monkeypatch, {2: row})
        prep, meas = SystemPreparation.diagonal([1.0, 0.0]), fourier_mub(2)
        if abs(total - 1.0) <= 1e-10:
            JointDistribution(2, TimeGrid(0.0, (0.5, 0.5)), np.array(row))
            classicality_report(ExactDephasingProvider(zx_model), prep, meas, (0.5, 1.2), 2)
            return
        with pytest.raises(ValidationError, match="JointDistribution: table is not"):
            JointDistribution(2, TimeGrid(0.0, (0.5, 0.5)), np.array(row))
        with pytest.raises(ValidationError, match=r"^classicality_report: table at times \(0\.5, 0\.5\) is not"):
            classicality_report(ExactDephasingProvider(zx_model), prep, meas, (0.5, 1.2), 2)


def plan_arrays(plan):
    """Every index array of a plan: the per-level ones, then each slab's row starts
    (a slab's coarse rows are views of ``plan.coarse``)."""
    levels = plan.tuples + plan.parent + plan.first + plan.pair + plan.coarse
    return [a for a in levels + tuple(slab[2] for slab in plan.slabs) if a is not None]


def plan_leaves(value):
    """Every item a plan holds, its tuples walked to their items."""
    if isinstance(value, tuple):
        for item in value:
            yield from plan_leaves(item)
    else:
        yield value


def assert_same_report(a, b):
    assert a == b
    assert len(a.columns) == len(b.columns)
    for (rows_a, deficits_a), (rows_b, deficits_b) in zip(a.columns, b.columns):
        assert np.array_equal(rows_a, rows_b) and np.array_equal(deficits_a, deficits_b)


class TestReportPlan:
    """The index plan of (pool size, max order, outcomes), built once and shared by reports."""

    @pytest.mark.parametrize("max_order", [2, 3, 4])
    @pytest.mark.parametrize("p", range(1, 7))
    def test_matches_dict_lookup(self, p, max_order):
        levels = [list(itertools.combinations_with_replacement(range(p), n)) for n in range(max_order + 1)]
        row = [{t: k for k, t in enumerate(level)} for level in levels]
        for m, budget in itertools.product((2, 3), (0, 10**9)):
            plan = classicality._plan(p, max_order, m, budget)
            assert plan.tuples[0].shape == (1, 0)
            for n in range(1, max_order + 1):
                assert plan.tuples[n].tolist() == [list(t) for t in levels[n]]
                assert plan.parent[n].tolist() == [row[n - 1][t[:-1]] for t in levels[n]]
                children = [[row[n][t + (a,)] for a in range(t[-1] if t else 0, p)] for t in levels[n - 1]]
                assert [list(range(a, b)) for a, b in itertools.pairwise(plan.first[n - 1])] == children
                if n >= 2:
                    assert plan.pair[n].tolist() == [row[2][t[-2:]] for t in levels[n]]
                    assert plan.coarse[n].tolist() == [
                        [row[n - 1][t[:k] + t[k + 1 :]] for t in levels[n]] for k in range(n - 1)
                    ]
            # a report's marginals: per order n, interior position k and tuple, m^(n-1) entries
            entries, starts, segments = 0, [], []
            for n in range(2, max_order + 1):
                for k in range(1, n):
                    segments.append((n, k, entries, len(starts)))
                    starts.extend(range(entries, entries + len(levels[n]) * m ** (n - 1), m ** (n - 1)))
                    entries += len(levels[n]) * m ** (n - 1)
            ends = [(lo, r0) for _, _, lo, r0 in segments[1:]] + [(entries, len(starts))]
            segments = [(n, k, lo, hi, r0, r1) for (n, k, lo, r0), (hi, r1) in zip(segments, ends)]
            # the slabs read back in record order: each row's first entry, each segment's entries and
            # rows, and per order the coarse rows of its positions in the slab
            lo, held = 0, []
            for size, records, slab_starts, slab_segments, orders in plan.slabs:
                assert slab_starts.tolist() == [s - lo for s in starts[records]]
                r0 = records.start
                for n, k, rows, _, at in slab_segments:
                    held.append((n, k, lo + at.start, lo + at.stop, r0, r0 + rows))
                    r0 += rows
                for n, at, rows, coarse, shape in orders:
                    ks = [k for n_, k, _, _, _ in slab_segments if n_ == n]
                    assert coarse.tolist() == [row[n - 1][t[: k - 1] + t[k:]] for k in ks for t in levels[n]]
                    assert shape == (len(ks) * len(levels[n]), m ** (n - 1)) and at.stop - at.start == math.prod(shape)
                lo += size
            assert held == segments and lo == entries
            assert sum(a.size for a in plan_arrays(plan)) <= classicality._plan_entries(p, max_order)

    @pytest.mark.parametrize("max_order", [2, 3, 4])
    @pytest.mark.parametrize("p", range(1, 7))
    def test_read_only(self, zx_provider, p, max_order):
        for budget in (0, classicality.TERM_CAP // max_order):
            # a kept plan holds no mutable container: only tuples, ints, slices, None and read-only arrays
            for item in plan_leaves(classicality._plan(p, max_order, 2, budget)):
                assert type(item) in (int, slice, type(None)) or (type(item) is np.ndarray and not item.flags.writeable)
        plan = classicality._plan(p, max_order, 2, classicality.TERM_CAP // max_order)
        assert len(plan.slabs) == 1 and len(plan_arrays(plan)) == 5 * max_order
        assert all(not a.flags.writeable for a in plan_arrays(plan))
        pool, prep = tuple(0.4 * k for k in range(1, p + 1)), SystemPreparation.diagonal([1.0, 0.0])
        report = classicality_report(zx_provider, prep, fourier_mub(2), pool, max_order)
        for n, (rows, deficits) in enumerate(report.columns, 2):
            assert rows is plan.tuples[n]
            assert not rows.flags.writeable and not deficits.flags.writeable
            with pytest.raises(ValueError):
                rows[0, 0] = 1

    @pytest.mark.parametrize(
        "cap, pool, max_order",
        [
            (None, (0.3, 0.9, 1.4, 2.2), 4),
            # levels in chunks (test_chunked_levels_match_unchunked)
            (800, (0.3, 0.9, 1.4, 2.2), 4),
            # stage arrays per chunk (test_uncapped_stage_arrays_chunked)
            (1000, tuple(np.random.default_rng(8).uniform(0.05, 3.0, 12)), 2),
        ],
        ids=["default-cap", "chunked-levels", "chunked-stages"],
    )
    def test_cache_state_never_shows(self, zx_model, monkeypatch, cap, pool, max_order):
        if cap is not None:
            monkeypatch.setattr(classicality, "TERM_CAP", cap)
        prep, meas = SystemPreparation.diagonal([0.6, 0.4]), fourier_mub(2)
        classicality._plan.cache_clear()
        cold = classicality_report(ExactDephasingProvider(zx_model), prep, meas, pool, max_order)
        hits = classicality._plan.cache_info().hits
        warm = classicality_report(ExactDephasingProvider(zx_model), prep, meas, pool, max_order)
        assert classicality._plan.cache_info().hits == hits + 1
        assert_same_report(cold, warm)

    @pytest.mark.parametrize("cap", [None, 800, 1000], ids=["default-cap", "cap-800", "cap-1000"])
    def test_keyed_by_outcome_count(self, monkeypatch, cap):
        # one pool size and order, m = 2 twice (rank one, then rank two) and m = 3: two plans,
        # and every report bitwise the same as with no plan kept
        if cap is not None:
            monkeypatch.setattr(classicality, "TERM_CAP", cap)
        pool = (0.4, 1.1, 2.9)
        cases = [TAIL_CASES[name]() for name in ("exact-qubit-mub", "exact-d3-rank-two", "analytic-d3-mub")]
        classicality._plan.cache_clear()
        kept = [classicality_report(provider, prep, meas, pool, 3) for provider, prep, meas in cases]
        info = classicality._plan.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 1, 2)
        monkeypatch.setattr(classicality, "PLAN_ENTRIES", 0)  # every plan built per report
        for report, (provider, prep, meas) in zip(kept, cases):
            built = classicality_report(provider, prep, meas, pool, 3)
            assert_same_report(report, built)
            for (_, a), (_, b) in zip(report.columns, built.columns):
                assert a.tobytes() == b.tobytes()
        assert classicality._plan.cache_info() == info

    def test_tail_kept_per_budget(self, zx_model, monkeypatch):
        # a plan kept at the default cap, then a cap of 800: the new budget, 800 // 4, builds
        # and keeps its own plan, whose marginals are cut into 4 slabs (20 + 80 + 80, then
        # 280 three times), not the 1 of the plan kept first
        prep, meas, pool = SystemPreparation.diagonal([0.6, 0.4]), fourier_mub(2), (0.3, 0.9, 1.4, 2.2)
        classicality._plan.cache_clear()
        classicality_report(ExactDephasingProvider(zx_model), prep, meas, pool, 4)
        checks, real = [], classicality._within_rule
        monkeypatch.setattr(classicality, "_within_rule", lambda *args: checks.append(1) or real(*args))
        monkeypatch.setattr(classicality, "TERM_CAP", 800)
        kept = classicality_report(ExactDephasingProvider(zx_model), prep, meas, pool, 4)
        info = classicality._plan.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 2)
        assert len(checks) == 1 + len(classicality._plan(4, 4, 2, 200).slabs) == 1 + 4
        monkeypatch.setattr(classicality, "PLAN_ENTRIES", 0)
        built = classicality_report(ExactDephasingProvider(zx_model), prep, meas, pool, 4)
        assert len(checks) == 2 * 5
        for (_, a), (_, b) in zip(kept.columns, built.columns):
            assert a.tobytes() == b.tobytes()

    def test_built_after_the_caps(self):
        # the largest-state input of test_cap_checked_before_any_propagator: its plan would be kept
        assert classicality._plan_entries(1, 21) <= classicality.PLAN_ENTRIES
        provider = ExactDephasingProvider(random_exact_model(2, 4, seed=3))
        before = classicality._plan.cache_info()
        with pytest.raises(SizeCapError):
            classicality_report(provider, SystemPreparation.maximally_mixed(2), fourier_mub(2), (1.0,), 21)
        assert classicality._plan.cache_info() == before

    def test_large_plan_not_kept(self, zx_provider, monkeypatch):
        pool = tuple(np.linspace(0.05, 3.0, 45))
        assert classicality._plan_entries(len(pool), 3) > classicality.PLAN_ENTRIES
        prep, meas = SystemPreparation.diagonal([1.0, 0.0]), fourier_mub(2)
        classicality._plan.cache_clear()
        report = classicality_report(zx_provider, prep, meas, pool, 3)
        assert classicality._plan.cache_info().currsize == 0
        monkeypatch.setattr(classicality, "PLAN_ENTRIES", classicality._plan_entries(len(pool), 3))
        assert_same_report(report, classicality_report(zx_provider, prep, meas, pool, 3))
        assert classicality._plan.cache_info().currsize == 1
        classicality._plan.cache_clear()


@pytest.mark.parametrize(
    "cap, pool, max_order",
    [
        (None, (0.3, 0.9, 1.4, 2.2), 3),
        # stage arrays per chunk, each chunk building its own kernels
        (1000, tuple(np.random.default_rng(8).uniform(0.05, 3.0, 12)), 2),
    ],
    ids=["default-cap", "chunked-stages"],
)
def test_coefficient_memo_state_never_shows(zx_model, monkeypatch, cap, pool, max_order):
    if cap is not None:
        monkeypatch.setattr(classicality, "TERM_CAP", cap)
    prep = SystemPreparation.diagonal([0.6, 0.4])
    models._kept_coefficients.cache_clear()
    cold = classicality_report(ExactDephasingProvider(zx_model), prep, fourier_mub(2), pool, max_order)
    misses = models._kept_coefficients.cache_info().misses
    warm = classicality_report(ExactDephasingProvider(zx_model), prep, fourier_mub(2), pool, max_order)
    assert models._kept_coefficients.cache_info().misses == misses
    monkeypatch.setattr(models, "COEFFICIENT_ENTRIES", 0)  # built per call
    uncached = classicality_report(ExactDephasingProvider(zx_model), prep, fourier_mub(2), pool, max_order)
    for report in (warm, uncached):
        assert_same_report(cold, report)
        for (_, a), (_, b) in zip(cold.columns, report.columns):
            assert a.tobytes() == b.tobytes()


class TestTwoTimeClosedForm:
    @given(p=probs, theta=angles)
    @settings(max_examples=25, deadline=None)
    def test_matches_numeric_deficit(self, p, theta):
        model = get_preset("qubit-zx")
        prov = ExactDephasingProvider(model)
        prep = SystemPreparation.diagonal([p, 1 - p])
        meas = qubit_basis(theta, 0.0)
        t1, t2 = 0.7, 1.9
        fine = joint_distribution(prov, prep, meas, TimeGrid(0.0, (t1, t2)))
        coarse = joint_distribution(prov, prep, meas, TimeGrid(0.0, (t2,)))
        for x2 in range(2):
            numeric = fine.as_array()[:, x2].sum() - coarse.as_array()[x2]
            closed = qubit_two_time_deficit_closed(prov, p, theta, x2, t2, t1)
            assert abs(numeric - closed) < 1e-12

    def test_azimuthal_phase_irrelevant(self):
        prov = ExactDephasingProvider(get_preset("qubit-zx"))
        p, theta, t1, t2 = 0.2, 0.5, 0.6, 1.4
        prep = SystemPreparation.diagonal([p, 1 - p])
        closed = qubit_two_time_deficit_closed(prov, p, theta, 0, t2, t1)
        for phi in (0.0, 0.9, 2.5):
            meas = qubit_basis(theta, phi)
            fine = joint_distribution(prov, prep, meas, TimeGrid(0.0, (t1, t2)))
            coarse = joint_distribution(prov, prep, meas, TimeGrid(0.0, (t2,)))
            numeric = fine.as_array()[:, 0].sum() - coarse.as_array()[0]
            assert abs(numeric - closed) < 1e-12

    def test_maximally_mixed_prep_vanishes(self):
        prov = ExactDephasingProvider(get_preset("qubit-zx"))
        assert abs(qubit_two_time_deficit_closed(prov, 0.5, 0.61, 0, 1.7, 0.4)) < 1e-14

    def test_outcome_sign_flip(self):
        prov = ExactDephasingProvider(get_preset("qubit-zx"))
        a = qubit_two_time_deficit_closed(prov, 0.1, 0.61, 0, 1.7, 0.4)
        b = qubit_two_time_deficit_closed(prov, 0.1, 0.61, 1, 1.7, 0.4)
        assert abs(a + b) < 1e-14


class TestSimplifiedForm:
    @given(p=probs, theta=angles)
    @settings(max_examples=25, deadline=None)
    def test_matches_closed_form_markovian(self, p, theta):
        # with a single dephasing function the bracket collapses; phi is the
        # one over the second interval
        eps = np.array([[0.0, 0.8], [-0.8, 0.0]])
        gamma = np.array([[0.0, 0.5], [0.5, 0.0]])
        prov = MarkovianAnalyticProvider(MarkovianAnalyticModel(eps, gamma))
        t1, t2 = 0.6, 1.5
        re_phi = float(prov.model.phi_matrix(t2 - t1)[0, 1].real)
        simplified = qubit_two_time_deficit_simplified(p, theta, 0, re_phi)
        closed = qubit_two_time_deficit_closed(prov, p, theta, 0, t2, t1)
        assert abs(simplified - closed) < 1e-13

    def test_matches_closed_form_commuting(self):
        prov = ExactDephasingProvider(get_preset("commuting-diag"))
        p, theta, t1, t2 = 0.1, 0.7, 0.5, 1.8
        re_phi = float(prov.dephasing_matrix(t2, t1)[0, 1].real)
        simplified = qubit_two_time_deficit_simplified(p, theta, 1, re_phi)
        closed = qubit_two_time_deficit_closed(prov, p, theta, 1, t2, t1)
        assert abs(simplified - closed) < 1e-13

    def test_reference_value(self):
        # p = 0, theta = pi/8, Re phi = 1/2 gives sqrt(2)/16
        val = qubit_two_time_deficit_simplified(0.0, np.pi / 8, 0, 0.5)
        assert abs(val - np.sqrt(2.0) / 16) < 1e-15

    def test_vanishes_without_decoherence(self):
        assert qubit_two_time_deficit_simplified(0.0, 0.6, 0, 1.0) == 0.0


class TestMarkovViolation:
    @given(
        eps=st.floats(0.1, 2.0, allow_nan=False),
        gamma=st.floats(0.0, 2.0, allow_nan=False),
        p=probs,
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_numeric(self, eps, gamma, p):
        e = np.array([[0.0, eps], [-eps, 0.0]])
        g = np.array([[0.0, gamma], [gamma, 0.0]])
        prov = MarkovianAnalyticProvider(MarkovianAnalyticModel(e, g))
        prep = SystemPreparation.diagonal([p, 1 - p])
        meas = fourier_mub(2)
        t1, t2, t3 = 0.4, 1.1, 2.3
        p3 = joint_distribution(prov, prep, meas, TimeGrid(0.0, (t1, t2, t3))).as_array()
        p2 = joint_distribution(prov, prep, meas, TimeGrid(0.0, (t1, t3))).as_array()
        for x1 in range(2):
            for x3 in range(2):
                numeric = p2[x1, x3] - p3[x1, :, x3].sum()
                closed = markov_qubit_violation_closed(eps, gamma, x3, x1, t3, t2, t1)
                assert abs(numeric - closed) < 1e-12

    def test_vanishes_for_real_dephasing(self):
        assert markov_qubit_violation_closed(0.0, 0.7, 1, 0, 2.0, 1.0, 0.5) == 0.0

    def test_time_translation_invariance(self):
        a = markov_qubit_violation_closed(0.8, 0.5, 0, 0, 2.0, 1.5, 1.0)
        b = markov_qubit_violation_closed(0.8, 0.5, 0, 0, 3.0, 2.5, 2.0)
        assert abs(a - b) < 1e-15

    def test_decay_envelope(self):
        # shifting t3 by a full rotation period leaves the sines untouched
        # and scales the envelope by exp(-gamma * period / 2)
        eps, gamma = 0.8, 0.5
        period = 2 * np.pi / eps
        a = markov_qubit_violation_closed(eps, gamma, 0, 0, 2.0, 1.0, 0.0)
        b = markov_qubit_violation_closed(eps, gamma, 0, 0, 2.0 + period, 1.0, 0.0)
        assert abs(a - b * np.exp(0.5 * gamma * period)) < 1e-12


class TestDeltaCount:
    @given(d=st.integers(2, 8), h=st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_equals_dimension(self, d, h):
        if h >= d:
            h = h % (d - 1) + 1
        assert delta_count(d, h) == d
        assert delta_count(d, -h) == d


class TestThetaSweep:
    def test_argmax_location(self, zx_provider):
        thetas = np.linspace(0.0, np.pi / 2, 721)
        _, deficits, argmax = theta_sweep(zx_provider, 0.0, thetas, 1.6, 0.8)
        star = 0.5 * np.arctan(np.sqrt(2.0))
        assert min(abs(argmax - star), abs(argmax - (np.pi / 2 - star))) < 0.01
        assert np.max(np.abs(deficits)) > 1e-3

    def test_matches_per_angle_closed_form(self, zx_provider):
        thetas = np.linspace(0.0, np.pi / 2, 37)
        for x2 in range(2):
            _, deficits, _ = theta_sweep(zx_provider, 0.3, thetas, 1.6, 0.8, t0=0.1, x2=x2)
            for th, deficit in zip(thetas, deficits):
                closed = qubit_two_time_deficit_closed(zx_provider, 0.3, th, x2, 1.6, 0.8, 0.1)
                assert abs(deficit - closed) <= 1e-15

    def test_bracket_evaluated_once_per_sweep(self, zx_model):
        calls = []

        class CountingProvider(ExactDephasingProvider):
            def tensor_pairs(self, pairs, durations):
                calls.append(pairs)
                return super().tensor_pairs(pairs, durations)

        theta_sweep(CountingProvider(zx_model), 0.0, np.linspace(0.0, np.pi / 2, 181), 1.6, 0.8)
        assert len(calls) == 4

    def test_endpoints_vanish(self, zx_provider):
        thetas = [0.0, np.pi / 4, np.pi / 2]
        _, deficits, _ = theta_sweep(zx_provider, 0.0, thetas, 1.6, 0.8)
        assert abs(deficits[0]) < 1e-14
        assert abs(deficits[2]) < 1e-14


INF, NAN = float("inf"), float("nan")
# each formed inf - inf or sin(inf), a RuntimeWarning, or returned NaN deficits, before any check
NON_FINITE_CALLS = {
    "markovianity-inf-times": lambda p: models.markovianity_deficit_detail(p, [INF] * 3, 2),
    "triviality-inf-times": lambda p: models.triviality_check(p, [INF, INF]),
    "semigroup-inf-times": lambda p: models.semigroup_deficit(p, 0.0, INF, INF),
    "theta-sweep-nan-angle": lambda p: theta_sweep(p, 0.5, [0.1, NAN], 1.6, 0.8),
    "theta-sweep-inf-angle": lambda p: theta_sweep(p, 0.5, [0.1, INF], 1.6, 0.8),
}


@pytest.mark.parametrize("call", NON_FINITE_CALLS.values(), ids=NON_FINITE_CALLS.keys())
def test_non_finite_times_and_angles_rejected_first(zx_provider, call):
    with pytest.raises(ValidationError, match="finite"):
        call(zx_provider)


# each returned a NaN or a value for an input outside the closed form's domain, or warned in sin/exp;
# the closed-* calls reach the library through the one-angle reference over theta_sweep
BAD_CLOSED_FORM_CALLS = {
    "closed-nan-angle": lambda p: qubit_two_time_deficit_closed(p, 0.2, NAN, 0, 1.6, 0.8),
    "closed-inf-angle": lambda p: qubit_two_time_deficit_closed(p, 0.2, INF, 0, 1.6, 0.8),
    "closed-p-2": lambda p: qubit_two_time_deficit_closed(p, 2.0, 0.6, 0, 1.6, 0.8),
    "closed-x2-5": lambda p: qubit_two_time_deficit_closed(p, 0.2, 0.6, 5, 1.6, 0.8),
    "theta-sweep-nan-p": lambda p: theta_sweep(p, NAN, [0.1, 0.6], 1.6, 0.8),
    "theta-sweep-p-2": lambda p: theta_sweep(p, 2.0, [0.1, 0.6], 1.6, 0.8),
    "theta-sweep-x2-5": lambda p: theta_sweep(p, 0.2, [0.1, 0.6], 1.6, 0.8, x2=5),
    "markov-inf-time": lambda p: markov_qubit_violation_closed(0.8, 0.5, 0, 0, INF, 1.0, 0.5),
    "markov-nan-epsilon": lambda p: markov_qubit_violation_closed(NAN, 0.5, 0, 0, 2.0, 1.0, 0.5),
    "markov-x3-5": lambda p: markov_qubit_violation_closed(0.8, 0.5, 5, 0, 2.0, 1.0, 0.5),
    "markov-x1-negative": lambda p: markov_qubit_violation_closed(0.8, 0.5, 0, -1, 2.0, 1.0, 0.5),
}


@pytest.mark.parametrize("call", BAD_CLOSED_FORM_CALLS.values(), ids=BAD_CLOSED_FORM_CALLS.keys())
def test_closed_forms_reject_inputs_outside_their_domain(zx_provider, call):
    with pytest.raises(ValidationError):
        call(zx_provider)


def test_closed_form_checks_precede_arithmetic(zx_model):
    calls = []

    class CountingProvider(ExactDephasingProvider):
        def tensor_pairs(self, pairs, durations):
            calls.append(pairs)
            return super().tensor_pairs(pairs, durations)

    provider = CountingProvider(zx_model)
    for call in BAD_CLOSED_FORM_CALLS.values():
        with pytest.raises(ValidationError):
            call(provider)
    assert calls == []


class TestWitnessSearch:
    @pytest.mark.parametrize(
        "t0, horizon, match",
        [
            (0.0, INF, "finite"),  # warned in np.linspace
            (NAN, 3.0, "finite"),
            (0.0, NAN, "finite"),
            (3.0, 1.0, "horizon"),  # raised "pool starts before t0"
            (1.0, 1.0, "horizon"),  # searched a grid of one time
        ],
    )
    def test_t0_and_horizon_checked_first(self, zx_provider, monkeypatch, t0, horizon, match):
        monkeypatch.setattr(np, "linspace", None)  # the check precedes the grid
        with pytest.raises(ValidationError, match=match):
            search_nonclassicality_witness(zx_provider, SystemPreparation.diagonal([1.0, 0.0]), fourier_mub(2), t0, horizon)

    @pytest.mark.parametrize("points", [0, -1])
    def test_points_per_interval_below_one_rejected(self, zx_provider, points):
        # -1 raised numpy's ValueError from linspace; 0 skipped the grid sweep silently
        with pytest.raises(ValidationError, match="points_per_interval"):
            search_nonclassicality_witness(
                zx_provider, SystemPreparation.diagonal([1.0, 0.0]), fourier_mub(2), 0.0, 3.0, points_per_interval=points
            )

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"order": 3.5}, "order must be an integer, got 3.5"),  # raised TypeError in numpy
            ({"position": 1.5}, "position must be an integer, got 1.5"),  # raised IndexError
            ({"points_per_interval": NAN}, "points_per_interval must be an integer, got nan"),  # TypeError
            ({"points_per_interval": 2.0}, "points_per_interval must be an integer, got 2.0"),
            ({"random_draws": 2.5}, "random_draws must be an integer, got 2.5"),  # TypeError
            ({"random_draws": -1}, "random_draws must be >= 0, got -1"),  # ran as 0
            ({"threshold": NAN}, "threshold must be finite, got nan"),  # returned None
            ({"threshold": INF}, "threshold must be finite, got inf"),  # returned None
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),  # TypeError after the grid report
            ({"seed": -1}, "seed must be >= 0, got -1"),  # ValueError after the grid report
        ],
        ids=[
            "float-order",
            "float-position",
            "nan-points",
            "float-points",
            "float-draws",
            "negative-draws",
            "nan-threshold",
            "inf-threshold",
            "float-seed",
            "negative-seed",
        ],
    )
    def test_bad_counts_rejected_before_any_propagator(self, zx_provider, monkeypatch, kwargs, match):
        def forbidden(*args):
            raise AssertionError("no propagator before the input checks")

        monkeypatch.setattr(models, "spectral_expm", forbidden)
        with pytest.raises(ValidationError, match=f"^search_nonclassicality_witness: {match}"):
            search_nonclassicality_witness(
                zx_provider, SystemPreparation.diagonal([1.0, 0.0]), fourier_mub(2), 0.0, 3.0, **kwargs
            )
        assert zx_provider._eig is None

    def test_finds_violation_on_noncommuting_model(self):
        prov = ExactDephasingProvider(get_preset("qubit-zx"))
        rec = search_nonclassicality_witness(
            prov,
            SystemPreparation.diagonal([1.0, 0.0]),
            fourier_mub(2),
            t0=0.0,
            horizon=np.pi,
        )
        assert rec is not None
        assert rec.deficit > 1e-3
        assert rec.order == 3 and rec.position == 2

    @pytest.mark.parametrize("points, on_grid", [(5, True), (2, False)], ids=["grid", "random-draw"])
    def test_times_are_floats_on_both_paths(self, zx_provider, points, on_grid):
        # a random draw that won gave np.float64 times, a grid record Python floats
        prep = SystemPreparation.diagonal([1.0, 0.0])
        rec = search_nonclassicality_witness(zx_provider, prep, fourier_mub(2), 0.0, 3.0, points_per_interval=points)
        assert all(type(t) is float for t in rec.times)
        grid = np.linspace(0.0, 3.0, 2 * points + 1)[1:].tolist()
        rng = np.random.default_rng(0)
        draws = [tuple(sorted(3.0 * rng.random(3))) for _ in range(50)]
        assert set(rec.times) <= set(grid) if on_grid else rec.times in draws  # the drawn values, bit for bit

    def test_none_on_classical_model(self):
        rec = search_nonclassicality_witness(
            real_dephasing_provider(),
            SystemPreparation.diagonal([0.3, 0.7]),
            fourier_mub(2),
            t0=0.0,
            horizon=2.0,
            points_per_interval=2,
            random_draws=5,
        )
        assert rec is None

    def test_deterministic_given_seed(self):
        prov = ExactDephasingProvider(get_preset("qubit-zx"))
        args = dict(
            prep=SystemPreparation.diagonal([1.0, 0.0]),
            measurement=fourier_mub(2),
            t0=0.0,
            horizon=np.pi,
            seed=7,
        )
        a = search_nonclassicality_witness(prov, **args)
        b = search_nonclassicality_witness(prov, **args)
        assert a == b
