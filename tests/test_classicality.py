import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_exact_model
from dephaser import classicality
from dephaser.classicality import (
    classicality_report,
    delta_count,
    kolmogorov_deficit,
    markov_qubit_violation_closed,
    qubit_two_time_deficit_closed,
    qubit_two_time_deficit_simplified,
    search_nonclassicality_witness,
    theta_sweep,
)
from dephaser.errors import ShapeError, SizeCapError, ValidationError
from dephaser.measurements import ProjectiveMeasurement, dephasing_basis, fourier_mub, qubit_basis
from dephaser.models import (
    ExactDephasingProvider,
    MarkovianAnalyticModel,
    MarkovianAnalyticProvider,
)
from dephaser.presets import get_preset
from dephaser.statistics import SystemPreparation, TimeGrid, joint_distribution

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
        assert len(d["records"]) == len(report.records)

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
        # four-dimensional environment blocks: step products of 4×12 and 12×4
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
        "pool, max_order",
        [((1.0,), 21), (tuple(0.1 * k for k in range(1, 31)), 6)],
        ids=["largest-state", "stored-tables"],
    )
    def test_cap_checked_before_any_propagator(self, zx_provider, pool, max_order):
        # a pool of 1 time at order 21: one state of 2^20·d²·D² = 2^24 entries;
        # 30 times at order 6: C(35, 6)·2^6 ~ 10^8 stored table entries
        with pytest.raises(SizeCapError):
            classicality_report(zx_provider, SystemPreparation.maximally_mixed(2), fourier_mub(2), pool, max_order)
        assert zx_provider._prop_cache == {}

    def test_dimension_mismatch_rejected(self, zx_provider):
        with pytest.raises(ShapeError):
            classicality_report(zx_provider, SystemPreparation.maximally_mixed(3), fourier_mub(2), (1.0,), 2)


class TestReportChecks:
    """The report's whole-array checks and its chunked levels."""

    @pytest.mark.parametrize("factor", [1.0 + 1e-6, float("nan")], ids=["unnormalised", "nan"])
    def test_bad_tables_rejected(self, zx_model, factor):
        class ScalingProvider(ExactDephasingProvider):
            def step(self, state, dt):
                return factor * super().step(state, dt)

        with pytest.raises(ValidationError):
            classicality_report(
                ScalingProvider(zx_model), SystemPreparation.diagonal([1.0, 0.0]), fourier_mub(2), (0.5, 1.2), 3
            )

    @pytest.mark.parametrize(
        "pool, max_order",
        [((1.0,), 21), (tuple(0.1 * k for k in range(1, 31)), 6)],
        ids=["largest-state", "stored-tables"],
    )
    def test_cap_checked_before_any_eigendecomposition(self, zx_provider, pool, max_order):
        # the level walk builds its propagators without the per-duration cache
        with pytest.raises(SizeCapError):
            classicality_report(zx_provider, SystemPreparation.maximally_mixed(2), fourier_mub(2), pool, max_order)
        assert zx_provider._eig is None

    def test_chunked_levels_match_unchunked(self, zx_model, monkeypatch):
        steps = []

        class CountingProvider(ExactDephasingProvider):
            def step(self, state, dt):
                steps.append(np.shape(dt))
                return super().step(state, dt)

        prep, meas, pool = SystemPreparation.diagonal([0.8, 0.2]), fourier_mub(2), (0.3, 0.9, 1.4, 2.2)
        whole = classicality_report(CountingProvider(zx_model), prep, meas, pool, 4)
        assert len(steps) == 4
        # largest state 2^3·16 = 128 entries, stored tables 768: both fit, but
        # each level in flight may hold only 800 // 4 = 200 state entries
        monkeypatch.setattr(classicality, "TERM_CAP", 800)
        steps.clear()
        chunked = classicality_report(CountingProvider(zx_model), prep, meas, pool, 4)
        assert len(steps) > 4
        assert chunked == whole


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

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            delta_count(3, 0)
        with pytest.raises(ValidationError):
            delta_count(3, 3)


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


class TestWitnessSearch:
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
