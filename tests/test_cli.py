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
from dephaser import cli, linalg, models, statistics
from dephaser.cli import main
from dephaser.config import ConfigError, load_config, parse_config
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
        assert cfg.d == 2
        assert cfg.grid.times == (0.8, 1.6, 2.4)

    def test_version_required(self):
        with pytest.raises(ConfigError):
            parse_config(classicality_config(version=2))

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
        assert cfg.d == 2

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
}


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
        assert parse_config(doc).d == get_preset(preset).d

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
        assert len(lines) == 1 + len(report["records"])

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
        [(0, 2, "ConfigError"), (-1, 2, "ConfigError"), (cli.THETA_POINTS_CAP + 1, 3, "SizeCapError")],
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
        assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"

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
        assert json.loads(lines[0]) == {"error": "ValidationError", "message": "theta-sweep requires a diagonal preparation"}
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

    def test_all_six_found(self):
        assert len(SHIPPED_CONFIGS) == 6

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
