import itertools
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from dephaser import cli, models
from dephaser.cli import main
from dephaser.config import ConfigError, load_config, parse_config
from dephaser.models import ExactDephasingProvider
from dephaser.presets import get_preset

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
        assert cfg.analysis["seed"] == 0

    def test_version_required(self):
        with pytest.raises(ConfigError):
            parse_config(classicality_config(version=2))

    def test_unknown_analysis_kind(self):
        with pytest.raises(ConfigError):
            parse_config(classicality_config(analysis={"kind": "bogus"}))

    def test_markovian_inline_model(self):
        doc = classicality_config(
            model={
                "kind": "markovian",
                "eps": [[0.0, 0.8], [-0.8, 0.0]],
                "gamma": [[0.0, 0.5], [0.5, 0.0]],
            }
        )
        cfg = parse_config(doc)
        assert cfg.exact_model is None
        assert cfg.provider.is_markovian_by_construction

    def test_exact_inline_model(self):
        z = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
        x = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
        env = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        doc = classicality_config(model={"kind": "exact", "blocks": [z, x], "env_state": env})
        cfg = parse_config(doc)
        assert cfg.exact_model is not None
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
        doc = classicality_config(
            grid={"t0": "0", "times": [0.8, "1.6"]},
            analysis={"kind": "classicality", "max_order": 3.0, "tolerance": "1e-9", "seed": "4"},
        )
        cfg = parse_config(doc)
        assert cfg.grid.times == (0.8, 1.6)
        assert (cfg.analysis["max_order"], cfg.analysis["tolerance"], cfg.analysis["seed"]) == (3, 1e-9, 4)
        assert type(cfg.analysis["max_order"]) is int

    @pytest.mark.parametrize("analysis", [{"max_order": 2.5}, {"seed": True}, {"tolerance": "nan"}])
    def test_non_integral_or_non_finite_rejected(self, analysis):
        with pytest.raises(ConfigError):
            parse_config(classicality_config(analysis={"kind": "classicality", **analysis}))


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
        calls = []
        real = models.spectral_expm

        def counting(w, v, tau):
            calls.append(np.asarray(tau).ravel().copy())
            return real(w, v, tau)

        monkeypatch.setattr(models, "spectral_expm", counting)
        config = os.path.join(ROOT, "configs", "markovianity_scalar_phases.json")
        assert main(["run", config, "--out", str(tmp_path / "o")]) == 0
        # the factorization walk and the table of the semigroup and triviality
        # checks: one batched exponentiation each, over the distinct durations
        times = [0.3, 0.8, 1.4, 2.1, 2.9]
        durations = sorted({t2 - t1 for t1, t2 in itertools.combinations(times, 2)})
        assert len(calls) == 2
        assert all(sorted(c) == durations for c in calls)
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
        assert (report["exhaustive"], report["tuples"]) == (True, 10 * 16 + 5 * 64 + 1 * 256)

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

    def test_seed_override_recorded(self, tmp_path):
        path = write_config(tmp_path, classicality_config())
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out), "--seed", "41"]) == 0
        assert json.loads((out / "report.json").read_text())["seed"] == 41

    def test_parser_reused_without_carrying_arguments(self, tmp_path):
        # the parser is built once per process; each call parses afresh
        path = write_config(tmp_path, classicality_config())
        parser = cli._parser()
        assert main(["run", path, "--out", str(tmp_path / "a"), "--seed", "41"]) == 0
        assert main(["run", path, "--out", str(tmp_path / "b")]) == 0
        assert cli._parser() is parser
        assert json.loads((tmp_path / "b" / "report.json").read_text())["seed"] == 0

    def test_commands_looked_up_per_call(self, monkeypatch):
        # a function set on the module after the parser was built still runs
        cli._parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_presets", lambda args: seen.append(args.command) or 0)
        assert main(["presets"]) == 0
        assert seen == ["presets"]


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, classicality_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", path, "--out", str(out1), "--seed", "3"]) == 0
        assert main(["run", path, "--out", str(out2), "--seed", "3"]) == 0
        for name in ("report.json", "deficits.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_oracle_distribution_deterministic(self, tmp_path):
        doc = classicality_config(analysis={"kind": "oracle-check"})
        path = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", path, "--out", str(out1)]) == 0
        assert main(["run", path, "--out", str(out2)]) == 0
        assert (out1 / "distribution_3.csv").read_bytes() == (out2 / "distribution_3.csv").read_bytes()
