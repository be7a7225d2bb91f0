import errno
import glob
import itertools
import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from dephaser import classicality as cl
from dephaser import cli, config, linalg, models, statistics
from dephaser.cli import main
from dephaser.config import ANALYSES, ConfigError, load_config, parse_config
from dephaser.errors import SizeCapError
from dephaser.measurements import fourier_mub
from dephaser.models import ExactDephasingProvider, MarkovianAnalyticProvider
from dephaser.presets import PRESETS, get_preset
import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def classicality_config(**overrides):
    doc = {
        "version": 1,
        "model": {"kind": "exact", "preset": "qubit-zx"},
        "preparation": {"kind": "diagonal", "weights": [1.0, 0.0]},
        "measurement": {"kind": "mub"},
        "grid": {"t0": 0.0, "times": [0.8, 1.6, 2.4]},
        "analysis": {"kind": "classicality", "max_order": 3, "tolerance": 1e-9},
    }
    doc.update(overrides)
    return doc


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path, classicality_config()))
        assert cfg.provider.d == 2
        assert cfg.grid.times == (0.8, 1.6, 2.4)

    def test_version_required(self):
        with pytest.raises(ConfigError):
            parse_config(classicality_config(version=2))

    def test_boolean_version_refused(self):
        # JSON true used to pass as version 1, since True == 1
        with pytest.raises(ConfigError, match="config.version"):
            parse_config(classicality_config(version=True))

    def test_unknown_analysis_kind(self):
        with pytest.raises(ConfigError):
            parse_config(classicality_config(analysis={"kind": "bogus"}))

    def test_tolerance_defaults_to_the_verdict_default(self):
        doc = classicality_config()
        del doc["analysis"]["tolerance"]
        assert parse_config(doc).analysis["tolerance"] == cl.DEFAULT_TOL

    def test_markovian_inline_model(self):
        doc = classicality_config(
            model={
                "kind": "markovian",
                "eps": [[0.0, 0.8], [-0.8, 0.0]],
                "gamma": [[0.0, 0.5], [0.5, 0.0]],
            }
        )
        cfg = parse_config(doc)
        assert isinstance(cfg.provider, MarkovianAnalyticProvider)

    def test_exact_inline_model(self):
        z = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
        x = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
        env = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        doc = classicality_config(model={"kind": "exact", "blocks": [z, x], "env_state": env})
        cfg = parse_config(doc)
        assert isinstance(cfg.provider, ExactDephasingProvider)
        assert cfg.provider.d == 2

    def test_markovianity_needs_exact_model(self):
        doc = classicality_config(
            model={"kind": "markovian", "preset": "markov-real-qudit"},
            measurement=None,
            analysis={"kind": "markovianity"},
        )
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_measurement_required_for_classicality(self):
        with pytest.raises(ConfigError):
            parse_config(classicality_config(measurement=None))

    def test_dimension_mismatch_in_weights(self):
        with pytest.raises(ConfigError):
            parse_config(classicality_config(preparation={"kind": "diagonal", "weights": [1.0]}))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(p))


# one malformed value per document; each used to escape as a traceback
MALFORMED = {
    "times": {"grid": {"t0": 0.0, "times": ["a"]}},
    "max_order": {"analysis": {"kind": "classicality", "max_order": "three"}},
    "theta": {"measurement": {"kind": "qubit", "theta": "a"}},
    "preset": {"model": {"kind": "exact", "preset": "no-such-preset"}},
    "kind": {"analysis": {"kind": ["classicality"]}},
    "block": {
        "model": {
            "kind": "exact",
            "blocks": [[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]] * 2,
            "env_state": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        }
    },
}


class TestMalformedValues:
    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("field", sorted(MALFORMED))
    def test_exits_2_with_one_json_object(self, tmp_path, capsys, field, command):
        path = write_config(tmp_path, classicality_config(**MALFORMED[field]))
        extra = ["--out", str(tmp_path / "o")] if command == "run" else []
        assert main([command, path] + extra) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigError"

    def test_numeric_fields_coerced(self):
        # a stray "seed" key is ignored, like any analysis key the code does not read
        doc = classicality_config(
            grid={"t0": "0", "times": [0.8, "1.6"]},
            analysis={"kind": "classicality", "max_order": 3.0, "tolerance": "1e-9", "seed": "4"},
        )
        cfg = parse_config(doc)
        assert cfg.grid.times == (0.8, 1.6)
        assert (cfg.analysis["max_order"], cfg.analysis["tolerance"]) == (3, 1e-9)
        assert type(cfg.analysis["max_order"]) is int

    @pytest.mark.parametrize("analysis", [{"max_order": 2.5}, {"max_order": True}, {"tolerance": "nan"}])
    def test_non_integral_or_non_finite_rejected(self, analysis):
        with pytest.raises(ConfigError):
            parse_config(classicality_config(analysis={"kind": "classicality", **analysis}))


# one non-finite value per document (JSON NaN/Infinity); each passed validate
# and its run wrote numpy RuntimeWarning lines to stderr
NAN, INF = float("nan"), float("inf")
NON_FINITE = {
    "theta": {"measurement": {"kind": "qubit", "theta": INF}},
    "phi": {"measurement": {"kind": "qubit", "phi": NAN}},
    "eps": {"model": {"kind": "markovian", "eps": [[0.0, NAN], [NAN, 0.0]], "gamma": [[0.0, 0.5], [0.5, 0.0]]}},
    "gamma": {"model": {"kind": "markovian", "eps": [[0.0, 0.8], [-0.8, 0.0]], "gamma": [[0.0, INF], [INF, 0.0]]}},
    "vectors": {"measurement": {"kind": "explicit", "vectors": [[[NAN, 0.0], [0.0, 0.0]], [[0.0, 0.0], [NAN, 0.0]]]}},
    # an infinite imaginary part warned in 1j * inf, an int too large for a double escaped as OverflowError
    "block-inf": {
        "model": {
            "kind": "exact",
            "blocks": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, INF]]]] * 2,
            "env_state": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        }
    },
    "vector-huge-int": {"preparation": {"kind": "pure", "vector": [[10**400, 0.0], [0.0, 0.0]]}},
    "weights-huge-int": {"preparation": {"kind": "diagonal", "weights": [10**400, 0.0]}},
}


# each entry of a config's phases and weights is read as every other config number
ARRAY_ENTRIES = {
    "boolean-phase": (
        {"measurement": {"kind": "mub", "phases": [0, True]}},
        "measurement.phases[1]: expected a finite number, got True",
    ),
    "boolean-weight": (
        {"preparation": {"kind": "diagonal", "weights": [True, False]}},
        "preparation.weights[0]: expected a finite number, got True",
    ),
    "phases-not-a-list": ({"measurement": {"kind": "mub", "phases": 5}}, "measurement.phases: expected a list, got 5"),
    "weights-not-a-list": ({"preparation": {"kind": "diagonal", "weights": 5}}, "preparation.weights: expected a list, got 5"),
    "nested-weights": (
        {"preparation": {"kind": "diagonal", "weights": [[1.0, 0.0]]}},
        "preparation.weights[0]: expected a finite number, got [1.0, 0.0]",
    ),
}


class TestConfigArrayEntries:
    @pytest.mark.parametrize("name", sorted(ARRAY_ENTRIES))
    def test_exact_message(self, tmp_path, capsys, name):
        overrides, message = ARRAY_ENTRIES[name]
        assert main(["validate", write_config(tmp_path, classicality_config(**overrides))]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "ConfigError", "message": message}

    def test_numeric_strings_read_as_numbers(self):
        # as for every other config number
        doc = classicality_config(
            measurement={"kind": "mub", "phases": ["0", "0.5"]}, preparation={"kind": "diagonal", "weights": ["1", "0"]}
        )
        cfg = parse_config(doc)
        assert cfg.measurement.bases.tolist() == fourier_mub(2, (0.0, 0.5)).bases.tolist()
        assert cfg.preparation.density.tolist() == [[1.0, 0.0], [0.0, 0.0]]


class TestNonFiniteValues:
    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("field", sorted(NON_FINITE))
    def test_exits_2_with_one_line_and_no_warning(self, tmp_path, capsys, field, command):
        path = write_config(tmp_path, classicality_config(**NON_FINITE[field]))
        extra = ["--out", str(tmp_path / "o")] if command == "run" else []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, path] + extra) == 2
        assert caught == []
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigError"
        assert not (tmp_path / "o" / "report.json").exists()


# analytic generators whose phi(t) is not PSD for d = 3, each with its least eigenvalue on
# sum-zero vectors; the first passed validate, and its classicality run exited 2 only after
# computing, its ncgd run 0
_EPS = [[0.0, 0.7, 0.7], [-0.7, 0.0, 0.7], [-0.7, -0.7, 0.0]]
NON_CP = {
    "eps-0.7-gamma-0.5": ({"eps": _EPS, "gamma": [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]}, "-1.541e-01"),
    "gamma01-2": ({"eps": [[0.0] * 3] * 3, "gamma": [[0.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}, "-3.333e-01"),
}


_OMEGA = np.array([0.3e6, 1.7e6, -2.2e6])


def _analytic_config(model, analysis):
    return classicality_config(
        model={"kind": "markovian", **model},
        preparation={"kind": "maximally-mixed"},
        grid={"t0": 0.0, "times": [0.4, 0.9, 1.3, 2.0]},
        analysis={"kind": analysis, "max_order": 3},
    )


class TestCompletePositivity:
    @pytest.mark.parametrize("analysis", ["classicality", "ncgd"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("name", sorted(NON_CP))
    def test_non_cp_generator_exits_2(self, tmp_path, capsys, name, command, analysis):
        model, low = NON_CP[name]
        path = write_config(tmp_path, _analytic_config(model, analysis))
        extra = ["--out", str(tmp_path / "o")] if command == "run" else []
        assert main([command, path] + extra) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "ConfigError" and f"eigenvalue {low} < 0" in error["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_presets_accepted(self, preset):
        kind = "markovian" if isinstance(get_preset(preset), models.MarkovianAnalyticModel) else "exact"
        doc = classicality_config(model={"kind": kind, "preset": preset}, preparation={"kind": "maximally-mixed"})
        assert parse_config(doc).provider.d == get_preset(preset).d

    @pytest.mark.parametrize(
        "model",
        [
            # every d = 2 generator with gamma >= 0 is CP: its one sum-zero eigenvalue is gamma_01 / 2
            {"eps": [[0.0, 40.0], [-40.0, 0.0]], "gamma": [[0.0, 0.0], [0.0, 0.0]]},
            {"eps": [[0.0, -0.3], [0.3, 0.0]], "gamma": [[0.0, 2.5], [2.5, 0.0]]},
            # energy differences eps_jl = w_j - w_l sit on the boundary, 0, read within roundoff
            {"eps": np.subtract.outer(_OMEGA, _OMEGA).tolist(), "gamma": [[0.0] * 3] * 3},
        ],
        ids=["d2-unitary", "d2-decaying", "d3-energy-differences"],
    )
    def test_cp_generators_accepted(self, tmp_path, capsys, model):
        path = write_config(tmp_path, _analytic_config(model, "classicality"))
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out.strip() == "ok"


# phases t·|H| beyond config.PHASE_BOUND, where exp(-i·t·w) is noise; the first validated and
# ran with exit 0
HUGE_PHASES = {
    "oracle-check-qubit-zx": classicality_config(grid={"t0": 0.0, "times": [1e15, 2e15]}, analysis={"kind": "oracle-check"}),
    "t0-counts": classicality_config(grid={"t0": -2e9, "times": [0.8, 1.6]}),
    "analytic-eps": _analytic_config({"eps": [[0.0, 1e12], [-1e12, 0.0]], "gamma": [[0.0, 0.0], [0.0, 0.0]]}, "ncgd"),
    "analytic-gamma": _analytic_config({"eps": [[0.0, 0.0], [0.0, 0.0]], "gamma": [[0.0, 2e9], [2e9, 0.0]]}, "ncgd"),
    "exact-blocks": classicality_config(
        model={"kind": "exact", "blocks": [[[[1e9, 0.0]]], [[[-1e9, 0.0]]]], "env_state": [[[1.0, 0.0]]]}
    ),
    "just-above-bound": classicality_config(grid={"t0": 0.0, "times": [0.5, 1e9 * (1 + 2**-40)]}),
}


class TestHugePhases:
    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("name", sorted(HUGE_PHASES))
    def test_exits_2_before_computing(self, tmp_path, capsys, monkeypatch, name, command):
        def computed(*args):
            raise Computed

        monkeypatch.setattr(models, "spectral_expm", computed)
        monkeypatch.setattr(models, "hermitian_eigh", computed)
        path = write_config(tmp_path, HUGE_PHASES[name])
        extra = ["--out", str(tmp_path / "o")] if command == "run" else []
        assert main([command, path] + extra) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "ValidationError" and "phase" in error["message"]
        assert not (tmp_path / "o").exists()

    def test_bound_admitted(self, tmp_path, capsys):
        # qubit-zx has |H| = 1: a largest time of PHASE_BOUND sits on the bound
        doc = classicality_config(grid={"t0": 0.0, "times": [0.5, config.PHASE_BOUND]}, analysis={"kind": "oracle-check"})
        assert main(["validate", write_config(tmp_path, doc)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    @pytest.mark.parametrize(
        "preset, bound", [("qubit-zx", 1.0), ("scalar-phases", 1.0), ("commuting-diag", 2.0), ("markov-real-qudit", 0.5)]
    )
    def test_frequency_bound(self, preset, bound):
        kind = "markovian" if isinstance(get_preset(preset), models.MarkovianAnalyticModel) else "exact"
        doc = classicality_config(model={"kind": kind, "preset": preset}, preparation={"kind": "maximally-mixed"})
        provider = parse_config(doc).provider
        assert config._frequency_bound(provider) == bound

    def test_library_stays_permissive(self, zx_provider):
        grid = statistics.TimeGrid(0.0, (1e15, 2e15))
        prep = statistics.SystemPreparation.diagonal([1.0, 0.0])
        assert statistics.joint_distribution(zx_provider, prep, fourier_mub(2), grid).table.shape == (4,)


class TestValidateCommand:
    def test_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, classicality_config())
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_invalid_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, classicality_config(version=99))
        assert main(["validate", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"


class TestPresetsCommand:
    def test_lists_all(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("qubit-zx", "scalar-phases", "commuting-diag", "markov-real-qudit"):
            assert name in out


class TestRunCommand:
    def test_classicality_outputs(self, tmp_path):
        path = write_config(tmp_path, classicality_config())
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["analysis"] == "classicality"
        # unbiased bases are 2-time consistent here; the violation is 3-time
        assert report["verdicts"]["2"] is True
        assert report["verdicts"]["3"] is False
        lines = (out / "deficits.csv").read_text().splitlines()
        assert lines[0].startswith("order,position,")
        assert len(lines) == 1 + sum(len(o["tuples"]) * (o["order"] - 1) for o in report["orders"])

    def test_markovianity_run(self, tmp_path):
        doc = classicality_config(
            model={"kind": "exact", "preset": "scalar-phases"},
            measurement=None,
            analysis={"kind": "markovianity", "max_order": 3},
        )
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["factorization_deficit"] < 1e-12
        assert report["trivial_dephasing"] is True

    def test_ncgd_run(self, tmp_path):
        doc = classicality_config(analysis={"kind": "ncgd"})
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["max_ncgd_deficit"] > 1e-3
        assert (out / "deficits.csv").exists()

    def test_ncgd_repeated_time_matches_reference(self, tmp_path):
        times = [0.4, 1.1, 1.1, 2.3, 3.0]
        doc = classicality_config(grid={"t0": 0.0, "times": times}, analysis={"kind": "ncgd"})
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 0
        rows = np.loadtxt(out / "deficits.csv", delimiter=",", skiprows=1)
        provider, meas = ExactDephasingProvider(get_preset("qubit-zx")), fourier_mub(2)
        expected = [
            [*triple, reference.ncgd_deficit(provider, meas, *triple), reference.sandwich_identity_deficit(provider, meas, triple[2], triple[0])]
            for triple in itertools.combinations(times, 3)
        ]
        assert rows.shape == (10, 5)
        assert np.max(np.abs(rows - np.array(expected))) < 1e-12

    def test_markovianity_semigroup_over_every_triple(self, tmp_path):
        times = [0.3, 0.9, 0.9, 1.6, 2.2, 3.1]
        doc = classicality_config(grid={"t0": 0.0, "times": times}, analysis={"kind": "markovianity", "max_order": 2})
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 0
        provider = ExactDephasingProvider(get_preset("qubit-zx"))
        expected = max(models.semigroup_deficit(provider, *triple) for triple in itertools.combinations(times, 3))
        report = json.loads((out / "report.json").read_text())
        assert expected > 1e-3 and abs(report["semigroup_deficit"] - expected) < 1e-15
        assert report["trivial_dephasing"] is False

    def test_theta_sweep_run(self, tmp_path):
        doc = classicality_config(
            measurement=None,
            analysis={"kind": "theta-sweep", "theta_points": 61},
        )
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["max_abs_deficit"] > 1e-3
        lines = (out / "deficits.csv").read_text().splitlines()
        assert len(lines) == 62

    @pytest.mark.parametrize(
        "points, code, error",
        [(0, 2, "ConfigError"), (-1, 2, "ConfigError"), (config.THETA_POINTS_CAP + 1, 3, "SizeCapError")],
        ids=["zero", "negative", "cap-plus-one"],
    )
    def test_theta_points_out_of_range(self, tmp_path, capsys, monkeypatch, points, code, error):
        # each used to exit 1 with a traceback (or, far above the cap, not return)
        def forbidden(*args):
            raise AssertionError("no eigendecomposition or propagator before the check")

        monkeypatch.setattr(models, "hermitian_eigh", forbidden)
        monkeypatch.setattr(models, "spectral_expm", forbidden)
        doc = classicality_config(measurement=None, analysis={"kind": "theta-sweep", "theta_points": points})
        assert main(["run", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]) == code
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == error
        assert not (tmp_path / "o" / "deficits.csv").exists()

    def test_oracle_check_run(self, tmp_path):
        doc = classicality_config(analysis={"kind": "oracle-check"})
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["max_abs_difference"] < 1e-12
        dist = (out / "distribution_3.csv").read_text().splitlines()
        assert dist[0] == "x_1,x_2,x_3,probability"
        assert len(dist) == 9
        total = sum(float(line.rsplit(",", 1)[1]) for line in dist[1:])
        assert abs(total - 1.0) < 1e-9

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, classicality_config(version=None))
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_cap_exceeded_exits_3(self, tmp_path, capsys):
        doc = classicality_config(
            grid={"t0": 0.0, "times": [float(k) for k in range(1, 14)]},
            analysis={"kind": "oracle-check"},
        )
        path = write_config(tmp_path, doc)
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "SizeCapError"

    def test_oracle_caps_checked_before_any_propagator(self, tmp_path, capsys, monkeypatch):
        def forbidden(*args):
            raise AssertionError("no eigendecomposition or propagator before the oracle's caps")

        for module in (models, statistics, linalg):
            for name in ("spectral_expm", "hermitian_eigh", "hermitian_expm"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        # 14 times: 2 + 4 + ... + 2^14 = 32766 outcome branches, over ORACLE_BRANCH_CAP
        doc = classicality_config(grid={"t0": 0.0, "times": [float(k) for k in range(1, 15)]}, analysis={"kind": "oracle-check"})
        assert main(["run", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "SizeCapError"
        assert not (tmp_path / "o" / "report.json").exists()

    def test_markovianity_factors_the_environment_once(self, tmp_path, monkeypatch):
        calls = []
        real = models._env_factor

        def counting(env):
            calls.append(env)
            return real(env)

        monkeypatch.setattr(models, "_env_factor", counting)
        config = os.path.join(ROOT, "configs", "markovianity_scalar_phases.json")
        assert main(["run", config, "--out", str(tmp_path / "o")]) == 0
        # the walk, the semigroup read and the triviality read share the provider's (B, s)
        assert len(calls) == 1

    def test_validation_during_run_exits_2(self, tmp_path, capsys):
        # theta-sweep on a qutrit model is an analysis-input validation error
        doc = classicality_config(
            model={"kind": "markovian", "preset": "markov-real-qudit"},
            preparation={"kind": "maximally-mixed"},
            measurement=None,
            analysis={"kind": "theta-sweep"},
        )
        path = write_config(tmp_path, doc)
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_overflowing_times_exit_2(self, tmp_path, capsys):
        # the phase 1e308·w of commuting-diag overflows: no NaN deficit may be reported
        doc = classicality_config(
            model={"kind": "exact", "preset": "commuting-diag"},
            grid={"t0": 0.0, "times": [1.0, 1e308]},
            analysis={"kind": "classicality", "max_order": 2},
        )
        path = write_config(tmp_path, doc)
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "ValidationError"
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o" / "report.json").exists()

    def test_overflowing_oracle_check_one_stderr_line(self, tmp_path):
        # in a fresh interpreter with default warning filters, so a numpy
        # RuntimeWarning would reach stderr ahead of the JSON object
        doc = classicality_config(
            model={"kind": "exact", "preset": "commuting-diag"},
            grid={"t0": 0.0, "times": [1.0, 2.0, 1e308]},
            analysis={"kind": "oracle-check"},
        )
        path = write_config(tmp_path, doc)
        env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"), "PYTHONWARNINGS": "default"}
        proc = subprocess.run(
            [sys.executable, "-m", "dephaser.cli", "run", path, "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ValidationError"
        assert not (tmp_path / "o" / "report.json").exists()

    def test_overflowing_markovianity_exits_2(self, tmp_path, capsys):
        # NaN dephasing matrices used to give "semigroup_deficit": NaN and exit 0
        doc = classicality_config(
            model={"kind": "exact", "preset": "commuting-diag"},
            measurement=None,
            grid={"t0": 0.0, "times": [1.0, 2.0, 1e308]},
            analysis={"kind": "markovianity", "max_order": 2},
        )
        path = write_config(tmp_path, doc)
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ValidationError"
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize("analysis", [{"kind": "classicality", "max_order": 2}, {"kind": "theta-sweep"}])
    def test_overflowing_analytic_phases_exit_2(self, tmp_path, capsys, analysis):
        # the phase 1e308·eps overflows; numpy warnings fail the test suite
        doc = classicality_config(
            model={"kind": "markovian", "eps": [[0.0, 2.0], [-2.0, 0.0]], "gamma": [[0.0, 0.0], [0.0, 0.0]]},
            preparation={"kind": "diagonal", "weights": [0.3, 0.7]},
            grid={"t0": 0.0, "times": [1.0, 1e308]},
            analysis=analysis,
        )
        path = write_config(tmp_path, doc)
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"
        assert not (tmp_path / "o" / "report.json").exists()

    def test_markovianity_exponentiates_each_duration_once(self, tmp_path, monkeypatch):
        calls, spectra = [], []
        real, real_eigh = models.spectral_expm, models.hermitian_eigh

        def counting(w, v, tau):
            calls.append(np.asarray(tau).ravel().copy())
            return real(w, v, tau)

        def counting_eigh(h):
            spectra.append(h)
            return real_eigh(h)

        monkeypatch.setattr(models, "spectral_expm", counting)
        monkeypatch.setattr(models, "hermitian_eigh", counting_eigh)
        config = os.path.join(ROOT, "configs", "markovianity_scalar_phases.json")
        assert main(["run", config, "--out", str(tmp_path / "o")]) == 0
        # the factorization walk and the table of the semigroup and triviality
        # checks share one batched exponentiation over the distinct durations
        # and one eigendecomposition of the stacked blocks
        times = [0.3, 0.8, 1.4, 2.1, 2.9]
        durations = sorted({t2 - t1 for t1, t2 in itertools.combinations(times, 2)})
        assert len(calls) == 1
        assert sorted(calls[0]) == durations
        model = get_preset("scalar-phases")
        assert len(spectra) == 1 and np.array_equal(spectra[0], np.stack(model.blocks))
        # against the per-selection reference (scalar phases factorize)
        provider = ExactDephasingProvider(get_preset("scalar-phases"))
        reference = 0.0
        for n in range(2, 5):
            for sel in itertools.combinations(times, n + 1):
                steps = [t2 - t1 for t1, t2 in zip(sel, sel[1:])]
                for pairs in itertools.product(itertools.product(range(provider.d), repeat=2), repeat=n):
                    factored = np.prod([provider.tensor_pairs([p], [dt]) for p, dt in zip(pairs, steps)])
                    reference = max(reference, abs(provider.tensor_pairs(pairs, steps) - factored))
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert abs(report["factorization_deficit"] - reference) < 1e-12
        assert report["tuples"] == 10 * 16 + 5 * 64 + 1 * 256

    @pytest.mark.parametrize(
        "overrides",
        [
            {"analysis": {"kind": "classicality", "max_order": 1_000_000}},
            {
                "model": {"kind": "exact", "preset": "qubit-zx"},
                "grid": {"t0": 0.0, "times": [0.05 * (k + 1) for k in range(60)]},
                "analysis": {"kind": "markovianity", "max_order": 30},
            },
        ],
        ids=["classicality-order-1e6", "markovianity-60-times-order-30"],
    )
    def test_cap_refused_promptly(self, tmp_path, capsys, overrides):
        path = write_config(tmp_path, classicality_config(**overrides))
        start = time.perf_counter()
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 3
        assert time.perf_counter() - start < 2.0
        assert json.loads(capsys.readouterr().err)["error"] == "SizeCapError"

    def test_ncgd_triple_cap_checked_before_any_propagator(self, tmp_path, capsys, monkeypatch):
        def forbidden(*args):
            raise AssertionError("no eigendecomposition or propagator before the cap check")

        monkeypatch.setattr(models, "hermitian_eigh", forbidden)
        monkeypatch.setattr(models, "spectral_expm", forbidden)
        # 100 times: C(100, 3) = 161700 triples, over NCGD_TRIPLE_CAP
        doc = classicality_config(grid={"t0": 0.0, "times": [0.05 * (k + 1) for k in range(100)]}, analysis={"kind": "ncgd"})
        path = write_config(tmp_path, doc)
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "SizeCapError"
        assert not (tmp_path / "o" / "report.json").exists()

    def test_linalg_error_exits_4(self, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        path = write_config(tmp_path, classicality_config())
        monkeypatch.setattr(np.linalg, "eigh", failing)
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "LinAlgError", "message": "Eigenvalues did not converge"}
        assert not (tmp_path / "o" / "report.json").exists()

    def test_non_finite_report_value_exits_4(self, tmp_path, capsys, monkeypatch):
        # report.json is strict JSON: NaN has no form there, so the run fails instead
        monkeypatch.setitem(cli._RUNNERS, "classicality", lambda cfg: ({"analysis": "x", "value": float("nan")}, {}))
        out = tmp_path / "o"
        assert main(["run", write_config(tmp_path, classicality_config()), "--out", str(out)]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "DephaserError"
        assert os.listdir(out) == []

    @pytest.mark.parametrize("value", [2**53 + 1, 10**30, 10**400], ids=["2^53+1", "1e30", "1e400"])
    @pytest.mark.parametrize("kind, field", [("classicality", "max_order"), ("theta-sweep", "theta_points")])
    def test_huge_integer_hits_the_cap_at_validate(self, tmp_path, capsys, monkeypatch, kind, field, value):
        # each used to exit 2 with "expected an integer": the int differs from its float; it is
        # read exactly, and both commands refuse it at the size estimate
        def forbidden(*args):
            raise AssertionError("no eigendecomposition or propagator before the cap check")

        monkeypatch.setattr(models, "hermitian_eigh", forbidden)
        monkeypatch.setattr(models, "spectral_expm", forbidden)
        doc = classicality_config(analysis={"kind": kind, field: value})
        if kind == "theta-sweep":
            doc.update(measurement=None, grid={"t0": 0.0, "times": [0.8, 1.6]})
        with pytest.raises(SizeCapError):
            parse_config(doc)
        path = write_config(tmp_path, doc)
        assert main(["validate", path]) == 3
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2 and lines[0] == lines[1] and json.loads(lines[0])["error"] == "SizeCapError"
        if kind == "theta-sweep" and value < 2**1000:
            assert f"theta-sweep: {value} angles" in lines[0]

    @pytest.mark.parametrize(
        "overrides, field, codes",
        [
            (
                {
                    "measurement": None,
                    "grid": {"t0": 0.0, "times": [0.8, 1.6]},
                    "analysis": {"kind": "theta-sweep", "theta_points": 10**400},
                },
                "theta-sweep",
                (3, 3),
            ),
            ({"analysis": {"kind": "classicality", "max_order": -(10**4000)}}, "analysis.max_order", (2, 2)),
            ({"grid": {"t0": 0.0, "times": [0.8, 10**400]}}, "grid.times[1]", (2, 2)),
            ({"version": 10**4000}, "config.version", (2, 2)),
        ],
        ids=["theta_points-1e400", "max_order-minus-1e4000", "grid-time-1e400", "version-1e4000"],
    )
    def test_huge_number_in_a_short_message(self, tmp_path, capsys, overrides, field, codes):
        # each message repeated the number in full: 480, 4092, 486 and 4073 bytes
        path = write_config(tmp_path, classicality_config(**overrides))
        assert (main(["validate", path]), main(["run", path, "--out", str(tmp_path / "o")])) == codes
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == sum(code != 0 for code in codes)
        for line in lines:
            # the line and its newline
            assert field in json.loads(line)["message"] and len(line.encode()) + 1 <= 300

    @pytest.mark.parametrize(
        "text, error",
        [('{"version": ' + "9" * 5000 + "}", "digits"), ('{"version": 1}'.encode() + b"\xff", "utf-8"), ("[" * 10**5, "recursion")],
        ids=["int-past-the-digit-limit", "not-utf-8", "nested-past-the-recursion-limit"],
    )
    def test_unreadable_json_exits_2(self, tmp_path, capsys, text, error):
        # each escaped json.load's JSONDecodeError handler as a traceback
        path = tmp_path / "config.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["validate", str(path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "ConfigError"
        assert error in json.loads(lines[0])["message"]

    def test_markovianity_reports_only_the_orders_walked(self, tmp_path):
        # 5 times allow selections of at most 5 times, orders 2..4, whatever max_order
        with open(os.path.join(ROOT, "configs", "markovianity_scalar_phases.json")) as fh:
            doc = json.load(fh)
        doc["analysis"]["max_order"] = 1_000_000
        path = write_config(tmp_path, doc)
        start = time.perf_counter()
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 0
        assert time.perf_counter() - start < 1.0
        report = tmp_path / "o" / "report.json"
        assert report.stat().st_size < 1000
        assert json.loads(report.read_text())["orders"] == [2, 3, 4]

    def test_negative_tolerance_exits_2(self, tmp_path, capsys):
        analysis = {"kind": "classicality", "max_order": 3, "tolerance": -1}
        path = write_config(tmp_path, classicality_config(analysis=analysis))
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "analysis.tolerance" in err["message"]
        assert not (tmp_path / "o" / "report.json").exists()
        # zero stays a valid tolerance
        path = write_config(tmp_path, classicality_config(analysis={**analysis, "tolerance": 0}))
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 0

    def test_threads_flag_removed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", write_config(tmp_path, classicality_config()), "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_seed_flag_removed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", write_config(tmp_path, classicality_config()), "--seed", "41"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_parser_reused_without_carrying_arguments(self, tmp_path):
        # the parser is built once per process; each call parses afresh
        path = write_config(tmp_path, classicality_config())
        parser = cli._parser()
        assert main(["run", path, "--out", str(tmp_path / "a")]) == 0
        assert main(["run", path, "--out", str(tmp_path / "b")]) == 0
        assert cli._parser() is parser
        assert (tmp_path / "a" / "report.json").read_bytes() == (tmp_path / "b" / "report.json").read_bytes()

    def test_commands_looked_up_per_call(self, monkeypatch):
        # a function set on the module after the parser was built still runs
        cli._parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_presets", lambda args: seen.append(args.command) or 0)
        assert main(["presets"]) == 0
        assert seen == ["presets"]


SHIPPED_CONFIGS = sorted(glob.glob(os.path.join(ROOT, "configs", "*.json")))


def _no_analysis(monkeypatch):
    """Make any analysis runner fail the test if it is called."""
    for kind in cli._RUNNERS:
        monkeypatch.setitem(cli._RUNNERS, kind, lambda cfg: pytest.fail("an analysis ran"))


class TestOutputDirectory:
    """An ``--out`` that cannot be used exits 2 with one JSON object before any analysis runs."""

    @pytest.mark.parametrize("where", ["a-file", "under-a-file"])
    def test_file_in_the_way_exits_2(self, tmp_path, capsys, monkeypatch, where):
        (tmp_path / "taken").write_text("keep")
        out = tmp_path / "taken" if where == "a-file" else tmp_path / "taken" / "sub"
        path = write_config(tmp_path, classicality_config())
        _no_analysis(monkeypatch)
        assert main(["run", path, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        reason = "File exists" if where == "a-file" else "Not a directory"
        assert len(lines) == 1 and json.loads(lines[0]) == {
            "error": "ValidationError",
            "message": f"--out {str(out)!r}: cannot create the output directory: {reason}",
        }
        assert (tmp_path / "taken").read_text() == "keep"

    def test_unwritable_directory_exits_2(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "o"
        out.mkdir()
        path = write_config(tmp_path, classicality_config())
        _no_analysis(monkeypatch)
        # a directory the process may not write to (root may write anywhere, so access is stubbed)
        monkeypatch.setattr(cli.os, "access", lambda p, mode: not (os.path.samefile(p, out) and mode & os.W_OK))
        assert main(["run", path, "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValidationError",
            "message": f"--out {str(out)!r}: the output directory is not writable",
        }

    def test_config_fault_reported_first(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("keep")
        path = write_config(tmp_path, classicality_config(version=2))
        assert main(["run", path, "--out", str(tmp_path / "taken")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def _temporaries(directory) -> list:
    return [name for name in os.listdir(directory) if name.startswith(".tmp-")]


class TestOutputFiles:
    """A run's outputs are written whole (each a temporary created exclusively with mode
    0600) and renamed over the old ones only when every one is written, report.json last;
    an OSError while writing exits 4 with one JSON object."""

    def test_mode_0600_and_no_temporary_left(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", write_config(tmp_path, classicality_config()), "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["deficits.csv", "report.json"]
        for name in os.listdir(out):
            assert os.stat(out / name).st_mode & 0o777 == 0o600

    def test_existing_outputs_replaced_whole(self, tmp_path):
        path = write_config(tmp_path, classicality_config())
        fresh, out = tmp_path / "fresh", tmp_path / "o"
        assert main(["run", path, "--out", str(fresh)]) == 0
        out.mkdir()
        for name in ("report.json", "deficits.csv"):
            (out / name).write_bytes(b"x" * 10 * len((fresh / name).read_bytes()))
        assert main(["run", path, "--out", str(out)]) == 0
        for name in ("report.json", "deficits.csv"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()
        assert _temporaries(out) == []

    def test_clashing_temporary_name_drawn_again(self, tmp_path, monkeypatch):
        tried, real_open = [], os.open

        def clashing(name, *args):
            tried.append(os.path.basename(name))
            if len(tried) == 1:
                raise FileExistsError(errno.EEXIST, "File exists", name)
            return real_open(name, *args)

        monkeypatch.setattr(os, "open", clashing)
        cli._write_outputs(str(tmp_path), {"report.json": "{}\n"})
        monkeypatch.undo()
        assert (tmp_path / "report.json").read_text() == "{}\n"
        assert len(tried) == 2 and tried[0] != tried[1]
        assert all(name.startswith(".tmp-") and name.endswith("report.json") for name in tried)
        assert _temporaries(tmp_path) == []

    def test_no_free_temporary_name_exits_4(self, tmp_path, capsys, monkeypatch):
        tried = []

        def taken(name, *args):
            tried.append(name)
            raise FileExistsError(errno.EEXIST, "File exists", name)

        monkeypatch.setattr(os, "TMP_MAX", 3)
        monkeypatch.setattr(os, "open", taken)
        code = main(["run", write_config(tmp_path, classicality_config()), "--out", str(tmp_path / "o")])
        monkeypatch.undo()
        assert code == 4 and len(tried) == 3  # drawn TMP_MAX times, then given up
        assert json.loads(capsys.readouterr().err)["error"] == "FileExistsError"
        assert os.listdir(tmp_path / "o") == []

    def _rerun_failing(self, tmp_path, capsys, monkeypatch, call, failing_call):
        """Run a config into a directory that holds an earlier run's outputs, the
        ``failing_call``-th call of ``os.<call>`` raising ENOSPC; returns the outputs
        before and after the failed run."""
        out = tmp_path / "o"
        assert main(["run", write_config(tmp_path, classicality_config(), "old.json"), "--out", str(out)]) == 0
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        # a new config, so that a replaced output would differ from the old one
        path = write_config(tmp_path, classicality_config(grid={"t0": 0.0, "times": [0.5, 1.5, 2.5]}))
        capsys.readouterr()
        real, calls = getattr(os, call), []

        def failing(*args):
            calls.append(args)
            if len(calls) == failing_call:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(*args)

        monkeypatch.setattr(os, call, failing)
        code = main(["run", path, "--out", str(out)])
        monkeypatch.undo()
        assert code == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0]) == {"error": "OSError", "message": "[Errno 28] No space left on device"}
        assert _temporaries(out) == []
        return before, {name: (out / name).read_bytes() for name in os.listdir(out)}

    # deficits.csv is written (and renamed) first, report.json second
    @pytest.mark.parametrize("call, failing_call", [("write", 1), ("write", 2), ("replace", 1)])
    def test_write_failure_exits_4_leaving_no_partial_output(self, tmp_path, capsys, monkeypatch, call, failing_call):
        before, after = self._rerun_failing(tmp_path, capsys, monkeypatch, call, failing_call)
        # every file is the previous run's, whole
        assert after == before

    def test_failed_last_rename_leaves_the_old_report(self, tmp_path, capsys, monkeypatch):
        # the state README documents: the outputs renamed before the failure are new, report.json is old
        before, after = self._rerun_failing(tmp_path, capsys, monkeypatch, "replace", 2)
        assert sorted(after) == ["deficits.csv", "report.json"]
        assert after["report.json"] == before["report.json"] and after["deficits.csv"] != before["deficits.csv"]

    def test_failed_report_writes_no_output(self, tmp_path, capsys, monkeypatch):
        # the run has a CSV to write when report.json fails on a value with no strict JSON form
        def runner(cfg):
            csv = cli._csv(["x"], [np.array([1.0])])
            return {"analysis": "classicality", "max_deficit": float("nan")}, {"deficits.csv": csv}

        monkeypatch.setitem(cli._RUNNERS, "classicality", runner)
        out = tmp_path / "o"
        assert main(["run", write_config(tmp_path, classicality_config()), "--out", str(out)]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "DephaserError"
        assert os.listdir(out) == []

    def test_non_finite_report_opens_no_file(self, tmp_path, capsys, monkeypatch):
        # report.json is serialized before any output is opened, so its failure writes no temporary file
        real_to_dict, real_open, opened = cl.ClassicalityReport.to_dict, os.open, []

        def nan_report(self):
            return {**real_to_dict(self), "max_deficit": float("nan")}

        monkeypatch.setattr(cl.ClassicalityReport, "to_dict", nan_report)
        monkeypatch.setattr(os, "open", lambda *args: opened.append(args) or real_open(*args))
        code = main(["run", write_config(tmp_path, classicality_config()), "--out", str(tmp_path / "o")])
        monkeypatch.undo()
        lines = capsys.readouterr().err.splitlines()
        assert code == 4 and len(lines) == 1 and json.loads(lines[0])["error"] == "DephaserError"
        assert opened == [] and os.listdir(tmp_path / "o") == []

    def test_output_name_taken_by_a_directory_exits_4(self, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "deficits.csv").mkdir(parents=True)
        assert main(["run", write_config(tmp_path, classicality_config()), "--out", str(out)]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "IsADirectoryError"
        assert sorted(os.listdir(out)) == ["deficits.csv"] and os.listdir(out / "deficits.csv") == []


class TestThetaSweep:
    """The qubit theta sweep end to end: the closed-form 2-time deficit per angle."""

    def run(self, tmp_path, **overrides):
        doc = classicality_config(
            measurement=None, grid={"t0": 0.0, "times": [0.8, 1.6]}, analysis={"kind": "theta-sweep"}
        )
        doc.update(overrides)
        out = tmp_path / "o"
        return main(["run", write_config(tmp_path, doc), "--out", str(out)]), out

    def test_vanishes_at_compatible_and_unbiased_angles(self, tmp_path):
        code, out = self.run(tmp_path, analysis={"kind": "theta-sweep", "theta_points": 7})
        assert code == 0
        table = np.loadtxt(out / "deficits.csv", delimiter=",", skiprows=1)
        assert table.shape == (7, 2)
        # zero in the dephasing basis (0, pi/2) and the unbiased one (pi/4), odd about pi/4
        assert np.max(np.abs(table[[0, 3, 6], 1])) < 1e-12
        assert table[:, 1] == pytest.approx(-table[::-1, 1], abs=1e-12)

    def test_shipped_argmax_near_reference(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", os.path.join(ROOT, "configs", "theta_sweep_qubit_zx.json"), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert abs(report["argmax_theta"] - 0.5 * np.arctan(np.sqrt(2.0))) <= np.pi / 360

    def test_coherent_preparation_exits_2(self, tmp_path, capsys):
        code, out = self.run(tmp_path, preparation={"kind": "pure", "vector": [[0.6, 0.0], [0.8, 0.0]]})
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ConfigError", "message": "theta-sweep requires a diagonal preparation"}
        assert not (out / "deficits.csv").exists()

    def test_diagonal_pure_preparation_runs(self, tmp_path):
        # a basis vector is a diagonal preparation, whatever kind builds it
        code, out = self.run(tmp_path, preparation={"kind": "pure", "vector": [[0.0, 0.0], [1.0, 0.0]]})
        assert code == 0
        assert json.loads((out / "report.json").read_text())["p"] == 0.0


class TestShippedConfigs:
    @pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=[os.path.basename(c)[:-5] for c in SHIPPED_CONFIGS])
    def test_runs(self, tmp_path, config):
        assert main(["run", config, "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        with open(config) as fh:
            assert report["analysis"] == json.load(fh)["analysis"]["kind"]
        if report["analysis"] == "oracle-check":
            assert report["max_abs_difference"] <= 1e-10

    def test_all_seven_found(self):
        assert len(SHIPPED_CONFIGS) == 7

    def test_valid_configs_build_no_error_text(self, monkeypatch):
        # a message that quotes a config value is built only when its check fails
        def raising(value):
            raise AssertionError(f"error text built for the valid value {value!r}")

        monkeypatch.setattr(config, "_shown", raising)
        for path in SHIPPED_CONFIGS:
            load_config(path)

    def test_ncgd_exact_matches_reference_composition(self, tmp_path):
        # many triples on an exact model, against the d²×d² composition on sampled rows
        config = os.path.join(ROOT, "configs", "ncgd_exact_qubit_zx.json")
        assert main(["run", config, "--out", str(tmp_path / "o")]) == 0
        rows = np.loadtxt(tmp_path / "o" / "deficits.csv", delimiter=",", skiprows=1)
        with open(config) as fh:
            times = sorted(json.load(fh)["grid"]["times"])
        assert 20 <= len(times) <= 30
        assert np.array_equal(rows[:, :3], list(itertools.combinations(times, 3)))
        provider, meas = ExactDephasingProvider(get_preset("qubit-zx")), fourier_mub(2)
        for t1, t2, t3, ncgd, sandwich in rows[np.random.default_rng(0).choice(len(rows), 40, replace=False)]:
            assert abs(ncgd - reference.ncgd_deficit(provider, meas, t1, t2, t3)) < 1e-12
            assert abs(sandwich - reference.sandwich_identity_deficit(provider, meas, t3, t1)) < 1e-12
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["triples"] == len(rows)
        assert report["max_ncgd_deficit"] == rows[:, 3].max() and report["max_sandwich_deficit"] == rows[:, 4].max()

    def test_ncgd_exact_exponentiates_once(self, tmp_path, monkeypatch):
        # the sandwich read's outer pairs are a subset of the NCGD read's durations
        calls = []
        real = models.spectral_expm

        def counting(w, v, tau):
            calls.append(np.asarray(tau).size)
            return real(w, v, tau)

        monkeypatch.setattr(models, "spectral_expm", counting)
        assert main(["run", os.path.join(ROOT, "configs", "ncgd_exact_qubit_zx.json"), "--out", str(tmp_path / "o")]) == 0
        assert calls == [74]

    def test_theta_sweep_exponentiates_once(self, tmp_path, monkeypatch):
        # its two intervals have one duration, 0.8, cached by the provider
        calls = []
        real = models.spectral_expm

        def counting(w, v, tau):
            calls.append(np.asarray(tau).ravel().copy())
            return real(w, v, tau)

        monkeypatch.setattr(models, "spectral_expm", counting)
        assert main(["run", os.path.join(ROOT, "configs", "theta_sweep_qubit_zx.json"), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1 and np.array_equal(calls[0], [0.8])


# each validated with exit 0, and its run exited 2 before computing anything
_ENV = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
_SIGMA_Z = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]


def _exact_model(second_block):
    return classicality_config(model={"kind": "exact", "blocks": [_SIGMA_Z, second_block], "env_state": _ENV})


def _markovian_model(eps, gamma):
    return classicality_config(model={"kind": "markovian", "eps": eps, "gamma": gamma})


_OFF = [[0.0, 1.0], [1.0, 0.0]]
#: a fault in block H_1 or in one rule of the analytic model, and the message that names it
MODEL_FAULTS = {
    "block-1-nan": (
        _exact_model([[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]),
        "model.blocks[1]: entries must be finite",
    ),
    "block-1-not-hermitian": (
        _exact_model([[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]),
        "model: block H_1: not Hermitian, max |M - M†| = 1.000e+00 > 1e-12",
    ),
    "block-1-wrong-shape": (
        _exact_model([[[1.0, 0.0] if r == c else [0.0, 0.0] for c in range(3)] for r in range(3)]),
        "model: DephasingModel: block H_1 has shape (3, 3), expected (2, 2)",
    ),
    "block-1-huge-anti-hermitian": (
        _exact_model(reference.HUGE_ANTI_HERMITIAN),
        "model: block H_1: not Hermitian, max |M - M†| = inf > 1e-12",
    ),
    "markovian-mismatched": (
        _markovian_model([[0.0, 0.0], [0.0, 0.0]], [[0.0] * 3] * 3),
        "model: MarkovianAnalyticModel: eps/gamma must be square and matching, got (2, 2) vs (3, 3)",
    ),
    "markovian-nan": (
        _markovian_model([[0.0, float("nan")], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]),
        "model: MarkovianAnalyticModel: eps and gamma must be finite",
    ),
    "markovian-eps-diagonal": (
        _markovian_model([[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]),
        "model: MarkovianAnalyticModel: diagonals of eps and gamma must vanish",
    ),
    "markovian-gamma-diagonal": (
        _markovian_model([[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.5]]),
        "model: MarkovianAnalyticModel: diagonals of eps and gamma must vanish",
    ),
    "markovian-eps-symmetric": (
        _markovian_model(_OFF, [[0.0, 0.0], [0.0, 0.0]]),
        "model: MarkovianAnalyticModel: eps must be antisymmetric",
    ),
    # eps + epsᵀ past the double range
    "markovian-eps-huge-symmetric": (
        _markovian_model([[0.0, 1e308], [1e308, 0.0]], [[0.0, 0.0], [0.0, 0.0]]),
        "model: MarkovianAnalyticModel: eps must be antisymmetric",
    ),
    "markovian-gamma-asymmetric": (
        _markovian_model([[0.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [2.0, 0.0]]),
        "model: MarkovianAnalyticModel: gamma must be symmetric",
    ),
    "markovian-gamma-negative": (
        _markovian_model([[0.0, 0.0], [0.0, 0.0]], [[0.0, -1.0], [-1.0, 0.0]]),
        "model: MarkovianAnalyticModel: gamma must be entrywise nonnegative",
    ),
}

PROBES = {
    "theta-sweep-on-a-qutrit": classicality_config(
        model={"kind": "markovian", "preset": "markov-real-qudit"},
        preparation={"kind": "maximally-mixed"},
        measurement=None,
        analysis={"kind": "theta-sweep"},
    ),
    "ncgd-on-2-times": classicality_config(grid={"t0": 0.0, "times": [0.8, 1.6]}, analysis={"kind": "ncgd"}),
    "classicality-order-1": classicality_config(analysis={"kind": "classicality", "max_order": 1}),
    "markovianity-order-0": classicality_config(measurement=None, analysis={"kind": "markovianity", "max_order": 0}),
    # check_density admits the roundoff-sized negative population, and theta_sweep refused it as p
    "theta-sweep-negative-population": classicality_config(
        preparation={"kind": "diagonal", "weights": [-5e-11, 1.00000000005]},
        measurement=None,
        grid={"t0": 0.0, "times": [0.8, 1.6]},
        analysis={"kind": "theta-sweep"},
    ),
    # the same roundoff on the other side: rho_00 just above 1
    "theta-sweep-population-above-one": classicality_config(
        preparation={"kind": "diagonal", "weights": [1.00000000005, -5e-11]},
        measurement=None,
        grid={"t0": 0.0, "times": [0.8, 1.6]},
        analysis={"kind": "theta-sweep"},
    ),
    # finite entries whose Hermiticity or trace check overflowed: numpy warned before the
    # refusal, a traceback under warnings-as-error
    "preparation-huge-anti-hermitian": classicality_config(
        preparation={"kind": "explicit", "matrix": reference.HUGE_ANTI_HERMITIAN}
    ),
    "preparation-huge-trace": classicality_config(preparation={"kind": "explicit", "matrix": reference.HUGE_DIAGONAL}),
    "block-huge-anti-hermitian": classicality_config(
        model={"kind": "exact", "blocks": [reference.HUGE_ANTI_HERMITIAN, _ENV], "env_state": _ENV}
    ),
    # JSON booleans read as 1.0 and 0.0: both ran, with a phase of 1.0 and as diag(1, 0)
    "mub-boolean-phases": classicality_config(measurement={"kind": "mub", "phases": [0, True]}),
    "diagonal-boolean-weights": classicality_config(preparation={"kind": "diagonal", "weights": [True, False]}),
    **{name: doc for name, (doc, _) in MODEL_FAULTS.items()},
}


class TestModelFaults:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"version": 2}, "config.version: expected 1, got 2"),
            ({"grid": {"times": ["a"]}}, "grid.times[0]: expected a finite number, got 'a'"),
            ({"grid": {"times": [2.0, 1.0]}}, "grid: TimeGrid: (t0, times) must not decrease, got 2.0 then 1.0"),
            ({"analysis": {"kind": "nope"}}, "analysis.kind: expected one of ('classicality', 'markovianity', 'ncgd', 'theta-sweep', 'oracle-check'), got 'nope'"),
            ({"analysis": {"kind": "classicality", "max_order": "three"}}, "analysis.max_order: expected an integer >= 2, got 'three'"),
            ({"analysis": {"kind": "ncgd"}}, "grid.times: analysis.kind 'ncgd' needs at least 3 times"),
        ],
        ids=["version", "grid-value", "grid-order", "analysis-kind", "analysis-number", "grid-too-short"],
    )
    def test_model_independent_fields_checked_before_any_model(self, tmp_path, capsys, monkeypatch, overrides, message):
        # the model is both broken and never built: the other field's fault is the one reported
        monkeypatch.setattr(config, "_build_model", lambda node: pytest.fail("a model was built"))
        doc = {**MODEL_FAULTS["block-1-not-hermitian"][0], "grid": {"times": [0.8, 1.6]}, **overrides}
        path = write_config(tmp_path, doc)
        for command in (["validate", path], ["run", path, "--out", str(tmp_path / "o")]):
            assert main(command) == 2
            assert json.loads(capsys.readouterr().err) == {"error": "ConfigError", "message": message}

    @pytest.mark.parametrize("name", sorted(MODEL_FAULTS))
    def test_exact_message_unwarned(self, tmp_path, capsys, name):
        doc, message = MODEL_FAULTS[name]
        path = write_config(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", path]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "ConfigError", "message": message}


class TestHugeFiniteEntries:
    @pytest.mark.parametrize(
        "matrix, message",
        [
            (reference.HUGE_ANTI_HERMITIAN, "preparation: SystemPreparation: not Hermitian, max |M - M†| = inf > 1e-12"),
            (reference.HUGE_DIAGONAL, "preparation: SystemPreparation: trace = inf, expected 1 within 1e-12"),
        ],
        ids=["anti-hermitian", "trace"],
    )
    def test_message_names_the_section_once(self, tmp_path, capsys, matrix, message):
        # read "preparation: preparation: ..." with the trace as np.float64(inf)
        path = write_config(tmp_path, classicality_config(preparation={"kind": "explicit", "matrix": matrix}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["validate", path]) == 2
        assert caught == []
        assert json.loads(capsys.readouterr().err) == {"error": "ConfigError", "message": message}


def _agreement_cases():
    """The probes, and every shipped config with each analysis kind swapped in."""
    cases = dict(PROBES)
    for config in SHIPPED_CONFIGS:
        with open(config) as fh:
            doc = json.load(fh)
        for kind in ANALYSES:
            cases[f"{os.path.basename(config)[:-5]}-as-{kind}"] = {**doc, "analysis": {**doc["analysis"], "kind": kind}}
    return cases


AGREEMENT_CASES = _agreement_cases()


class Computed(Exception):
    """Raised where a run builds its first eigendecomposition or propagator."""


class TestValidateAgreesWithRun:
    def test_one_runner_per_analysis_kind(self):
        assert list(cli._RUNNERS) == list(ANALYSES)

    @pytest.mark.parametrize("name", sorted(AGREEMENT_CASES))
    def test_validate_rejects_what_run_rejects_before_computing(self, tmp_path, capsys, monkeypatch, name):
        def computed(*args):
            raise Computed

        monkeypatch.setattr(models, "spectral_expm", computed)
        monkeypatch.setattr(models, "hermitian_eigh", computed)
        path = write_config(tmp_path, AGREEMENT_CASES[name])
        try:
            run = main(["run", path, "--out", str(tmp_path / "o")])
        except Computed:
            run = None
        run_err = capsys.readouterr().err
        validate = main(["validate", path])
        validate_err = capsys.readouterr().err
        if run in (2, 3):
            # refused at validation, or at the size estimate: validate reads the same line
            assert len(run_err.splitlines()) == 1
            assert validate == run and validate_err == run_err
        else:
            # reached a propagator, or ran to the end on an analytic model
            assert run in (None, 0) and validate == 0
        assert run == 2 or name not in PROBES

    @pytest.mark.parametrize("max_order", [1000, 10**12])
    def test_single_outcome_order_refused_at_once(self, tmp_path, capsys, max_order):
        # d = 1: one outcome, so each table is one entry and only the order bound refuses the
        # config; validate said ok at 10^6, and took 4 s to refuse 10^12
        doc = classicality_config(
            model={"kind": "exact", "blocks": [[[[0.5, 0]]]], "env_state": [[[1, 0]]]},
            preparation={"kind": "pure", "vector": [[1, 0]]},
            measurement={"kind": "explicit", "vectors": [[[1, 0]]]},
            grid={"t0": 0.0, "times": [1.0]},
            analysis={"kind": "classicality", "max_order": max_order},
        )
        path, out = write_config(tmp_path, doc), tmp_path / "o"
        errors = []
        for command in (["validate", path], ["run", path, "--out", str(out)]):
            began = time.perf_counter()
            assert main(command) == 3
            assert time.perf_counter() - began < 1.0
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and len(errors[0].splitlines()) == 1
        message = f"classicality_report: {max_order} orders exceed cap 22"
        assert json.loads(errors[0]) == {"error": "SizeCapError", "message": message}
        assert not out.exists()


_QUBIT_ZX = ExactDephasingProvider(get_preset("qubit-zx"))
_MIXED = statistics.SystemPreparation.maximally_mixed(2)

#: one over-cap row per analysis kind (a config, refused by validate and run alike) and per capped
#: library call (a call, raising); every cap passes errors._capped, so each message is one short line
OVER_CAP = {
    # 20 pool times to order 12: at least 12849408 stored table entries
    "classicality": classicality_config(
        grid={"t0": 0.0, "times": [0.1 * (k + 1) for k in range(20)]}, analysis={"kind": "classicality", "max_order": 12}
    ),
    "markovianity": classicality_config(
        measurement=None,
        grid={"t0": 0.0, "times": [0.05 * (k + 1) for k in range(60)]},
        analysis={"kind": "markovianity", "max_order": 30},
    ),
    "ncgd": classicality_config(grid={"t0": 0.0, "times": [0.05 * (k + 1) for k in range(100)]}, analysis={"kind": "ncgd"}),
    "theta-sweep": classicality_config(
        measurement=None, grid={"t0": 0.0, "times": [0.8, 1.6]}, analysis={"kind": "theta-sweep", "theta_points": 10**6}
    ),
    # 14 times: 2 + 4 + ... + 2^14 outcome branches
    "oracle-check": classicality_config(grid={"t0": 0.0, "times": [float(k) for k in range(1, 15)]}, analysis={"kind": "oracle-check"}),
    # 2^24 tensor entries
    "tensor-array-exact": lambda: _QUBIT_ZX.tensor_array([0.1] * 12),
    # 3^16 tensor entries
    "tensor-array-analytic": lambda: MarkovianAnalyticProvider(get_preset("markov-real-qudit")).tensor_array([0.1] * 8),
    "kron": lambda: linalg.kron(np.eye(65), np.eye(64)),
    "joint-distribution": lambda: statistics.joint_distribution(
        _QUBIT_ZX, _MIXED, fourier_mub(2), statistics.TimeGrid(0.0, [0.1 * (k + 1) for k in range(24)])
    ),
    "oracle-distribution": lambda: statistics.oracle_distribution(
        _QUBIT_ZX.model, _MIXED, fourier_mub(2), statistics.TimeGrid(0.0, [float(k) for k in range(1, 15)])
    ),
    "classicality-report": lambda: cl.classicality_report(_QUBIT_ZX, _MIXED, fourier_mub(2), [0.1 * (k + 1) for k in range(20)], 12),
    "markovianity-deficit": lambda: models.markovianity_deficit_detail(_QUBIT_ZX, [0.05 * (k + 1) for k in range(60)], 30),
}


class TestSizeRule:
    def test_one_config_row_per_analysis_kind(self):
        assert [name for name, row in OVER_CAP.items() if isinstance(row, dict)] == list(ANALYSES)

    @pytest.mark.parametrize("name", OVER_CAP)
    def test_over_cap_refused_before_any_propagator(self, tmp_path, capsys, monkeypatch, name):
        def computed(*args):
            raise Computed

        monkeypatch.setattr(models, "spectral_expm", computed)
        monkeypatch.setattr(models, "hermitian_eigh", computed)
        row = OVER_CAP[name]
        if isinstance(row, dict):
            path = write_config(tmp_path, row)
            assert main(["validate", path]) == 3
            assert main(["run", path, "--out", str(tmp_path / "o")]) == 3
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 2 and lines[0] == lines[1]
            error = json.loads(lines[0])
            assert error["error"] == "SizeCapError" and len(lines[0].encode()) + 1 <= 300
            assert not (tmp_path / "o").exists()
            message = error["message"]
        else:
            with pytest.raises(SizeCapError) as caught:
                row()
            message = str(caught.value)
        assert " exceed cap " in message and len(message.encode()) <= 300 and "\n" not in message


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, classicality_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", path, "--out", str(out1)]) == 0
        assert main(["run", path, "--out", str(out2)]) == 0
        for name in ("report.json", "deficits.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_oracle_distribution_deterministic(self, tmp_path):
        doc = classicality_config(analysis={"kind": "oracle-check"})
        path = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", path, "--out", str(out1)]) == 0
        assert main(["run", path, "--out", str(out2)]) == 0
        assert (out1 / "distribution_3.csv").read_bytes() == (out2 / "distribution_3.csv").read_bytes()
