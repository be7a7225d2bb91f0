"""Every script under ``scripts/`` runs end to end on small arguments.

Each script's ``main`` parses ``sys.argv``; it is loaded from its path, run
with a short argument list, and its printed output checked.
"""

import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, args, monkeypatch, capsys):
    path = os.path.join(ROOT, "scripts", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"script_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [path] + args)
    module.main()
    return capsys.readouterr().out.splitlines()


def test_markov_violation_scan(monkeypatch, capsys):
    # the analytic provider's effect readout against the closed form, end to end
    lines = run_script("markov_violation_scan", ["--steps", "3"], monkeypatch, capsys)
    rows = [[float(x) for x in line.split()] for line in lines[2:]]
    assert len(rows) == 9
    assert max(row[3] for row in rows) <= 1e-12
    # the mismatch vanishes exactly where eps = 0
    assert all((row[2] > 1e-3) == (row[0] > 0) for row in rows)


def test_find_witness(monkeypatch, capsys):
    lines = run_script("find_witness", ["--points", "2"], monkeypatch, capsys)
    assert lines[0] == "order 3, marginalized position 2"
    assert float(lines[-1].split()[-1]) >= 1e-3

