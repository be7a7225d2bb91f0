"""The ``dephaser run`` writers against the standard-library and row-wise references.

``cli._json`` must give the bytes of ``json.dumps(..., indent=2, sort_keys=True)``,
and ``cli._csv`` those of the row-wise ``.17g`` writer in ``reference``.
"""

import glob
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dephaser import classicality as cl
from dephaser import cli
from dephaser import statistics
from dephaser.config import load_config
from dephaser.errors import DephaserError
import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED_CONFIGS = sorted(glob.glob(os.path.join(ROOT, "configs", "*.json")))

# floats whose text or memo handling is special: signed zeros, subnormals, the repr
# switch to exponent form at 1e16 and 1e-5, and the extremes
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 9999999999999998.0, 1e-5, 1e-4,
                  0.1, -1.5, 1.7976931348623157e308, 1e22, 123456789.0]
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL_FLOATS)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**300), 10**300)
    | finite
    | finite.map(np.float64)
    | st.text()
    | st.sampled_from(['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "日本", "\U0001f600", "\ud800", ""])
)


@st.composite
def repeated(draw, values):
    """A list that draws its items from a few values, so that they repeat."""
    pool = draw(st.lists(values, min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool), max_size=12))


payloads = st.recursive(
    scalars | repeated(finite),
    lambda inner: st.lists(inner, max_size=6)
    | st.lists(inner, max_size=6).map(tuple)
    | st.dictionaries(st.text(max_size=8), inner, max_size=6),
    max_leaves=40,
)


def reference_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


class TestJson:
    @given(payloads)
    @settings(max_examples=100, deadline=None)
    def test_matches_the_standard_library(self, payload):
        assert cli._json(payload, "\n", cli._FloatText()) == reference_json(payload)

    @given(st.lists(st.sampled_from([0.0, -0.0, 1.5, -1.5]), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_signed_zeros_keep_their_sign(self, values):
        # 0.0 == -0.0, so a memo keyed by value would give both one text
        assert cli._json(values, "\n", cli._FloatText()) == reference_json(values)

    def test_memo_formats_each_nonzero_value_once(self):
        memo = cli._FloatText()
        cli._json({"a": [0.5, 0.5, -0.0, 0.0], "b": 0.5}, "\n", memo)
        assert memo == {0.5: "0.5"}

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
    def test_non_finite_raises(self, value):
        with pytest.raises(DephaserError, match="non-finite"):
            cli._json({"records": [{"deficit": value}]}, "\n", cli._FloatText())

    @pytest.mark.parametrize(
        "value", [np.int64(3), {1, 2}, object(), b"bytes", {1: "int key"}, {"a": 1, 2: "mixed keys"}],
        ids=["np.int64", "set", "object", "bytes", "int-key", "mixed-keys"],
    )
    def test_unsupported_raises_type_error(self, value):
        with pytest.raises(TypeError):
            cli._json([value], "\n", cli._FloatText())


float_items = st.floats() | st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e16])


@st.composite
def tables(draw):
    """Equal-length int and float columns; a float column draws from a few values, so they repeat."""
    n = draw(st.integers(0, 30))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            columns.append(np.array(draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)), dtype=np.int64))
        else:
            pool = draw(st.lists(float_items, min_size=1, max_size=5))
            columns.append(np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)), dtype=np.float64))
    return columns


class TestCsv:
    @given(columns=tables())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_row_reference(self, columns):
        header = [f"c{k}" for k in range(len(columns))]
        rows = zip(*(c.tolist() for c in columns))
        assert cli._csv(header, columns) == reference.csv_text(header, rows)

    def test_signed_zeros_and_nan_apart(self):
        assert cli._csv(["x"], [np.array([0.0, -0.0, np.nan, 0.0, -np.inf])]) == "x\n0\n-0\nnan\n0\n-inf\n"

    def test_classicality_columns_match_the_records(self):
        # at order 4 the tuples of orders 2 and 3 are padded with NaN
        cfg = load_config(os.path.join(ROOT, "configs", "classicality_qubit_zx.json"))
        cfg.analysis["max_order"] = 4
        _, outputs = cli._run_classicality(cfg)
        a = cfg.analysis
        report = cl.classicality_report(
            cfg.provider, cfg.preparation, cfg.measurement, cfg.grid.times, 4, a["tolerance"], t0=cfg.grid.t0
        )
        header = ["order", "position", "t_1", "t_2", "t_3", "t_4", "deficit"]
        assert outputs == {"deficits.csv": reference.csv_text(header, reference.classicality_rows(report))}

    def test_pool_text_keeps_the_sign_of_zero(self, tmp_path):
        # a pool time of -0.0 writes "-0", and at order 3 the order-2 tuples are padded with nan
        doc = {**reference.TEST_12, "grid": {"t0": -1.0, "times": [-0.0, 0.5, 1.25]}}
        cfg = _run(tmp_path, doc)
        report = _report(cfg)
        assert math.copysign(1.0, report.pool[0]) == -1.0
        header = ["order", "position", "t_1", "t_2", "t_3", "deficit"]
        rows = reference.csv_text(header, reference.classicality_rows(report))
        assert (tmp_path / "out" / "deficits.csv").read_bytes() == rows.encode()
        assert "\n2,1,-0,-0,nan," in (tmp_path / "out" / "deficits.csv").read_text()

    def test_distribution_columns_match_ndindex(self):
        cfg = load_config(os.path.join(ROOT, "configs", "oracle_check_qubit_zx.json"))
        dist = statistics.joint_distribution(cfg.provider, cfg.preparation, cfg.measurement, cfg.grid)
        _, outputs = cli._run_oracle_check(cfg)
        header = [f"x_{k + 1}" for k in range(dist.n)] + ["probability"]
        assert outputs == {f"distribution_{dist.n}.csv": reference.csv_text(header, reference.distribution_rows(dist))}


# an analytic qubit to order 4 on a pool of four times
ANALYTIC_ORDER_4 = {
    "version": 1,
    "model": {"kind": "markovian", "eps": [[0.0, 0.8], [-0.8, 0.0]], "gamma": [[0.0, 0.5], [0.5, 0.0]]},
    "preparation": {"kind": "diagonal", "weights": [0.7, 0.3]},
    "measurement": {"kind": "mub"},
    "grid": {"t0": 0.0, "times": [0.3, 0.9, 1.4, 2.2]},
    "analysis": {"kind": "classicality", "max_order": 4},
}

#: keys that later analyses add to report.json; until one is computed it is absent, never null
RESERVED_KEYS = {"every_order", "first_violating_order", "span_dimensions", "certificate", "manifest", "health"}


def _run(tmp_path, doc):
    """``dephaser run`` of the config ``doc`` into ``tmp_path/out``; returns the parsed config."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    return load_config(str(path))


def _report(cfg):
    a = cfg.analysis
    return cl.classicality_report(
        cfg.provider, cfg.preparation, cfg.measurement, cfg.grid.times, a["max_order"], a["tolerance"], t0=cfg.grid.t0
    )


def _keys(node):
    """Every key of every object in a parsed JSON document."""
    if isinstance(node, dict):
        return set(node).union(*map(_keys, node.values()))
    if isinstance(node, list):
        return set().union(*map(_keys, node))
    return set()


class TestReportLayout:
    @pytest.mark.parametrize("doc", [reference.TEST_12, ANALYTIC_ORDER_4], ids=["test_12", "analytic-order-4"])
    def test_orders_decode_to_the_records(self, tmp_path, doc):
        cfg = _run(tmp_path, doc)
        written = json.loads((tmp_path / "out" / "report.json").read_text())
        pool = written["grid_pool"]
        decoded = [
            cl.DeficitRecord(o["order"], position, tuple(pool[i] for i in indices), deficit)
            for o in written["orders"]
            for indices, row in zip(o["tuples"], o["deficits"], strict=True)
            for position, deficit in enumerate(row, 1)
        ]
        records = list(_report(cfg).records)
        assert [o["order"] for o in written["orders"]] == list(range(2, doc["analysis"]["max_order"] + 1))
        assert all(len(t) == o["order"] for o in written["orders"] for t in o["tuples"])
        assert all(len(d) == o["order"] - 1 for o in written["orders"] for d in o["deficits"])
        assert decoded == records
        # equal as doubles, bit for bit: a float's repr reads back to the same double
        for got, want in zip(decoded, records):
            assert [x.hex() for x in (*got.times, got.deficit)] == [x.hex() for x in (*want.times, want.deficit)]

    @pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=[os.path.basename(c)[:-5] for c in SHIPPED_CONFIGS])
    def test_schema_2_and_no_reserved_key(self, tmp_path, config):
        assert cli.main(["run", config, "--out", str(tmp_path)]) == 0
        written = json.loads((tmp_path / "report.json").read_text())
        assert written["schema"] == cli.REPORT_SCHEMA == 2
        assert not _keys(written) & RESERVED_KEYS
        assert "records" not in written


def _reference_csv(header, columns):
    """``cli._csv``'s call, built through the row reference."""
    return reference.csv_text(header, zip(*(np.asarray(c).tolist() for c in columns)))


@pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=[os.path.basename(c)[:-5] for c in SHIPPED_CONFIGS])
def test_shipped_configs_match_the_reference_writers(tmp_path, monkeypatch, config):
    assert cli.main(["run", config, "--out", str(tmp_path / "new")]) == 0
    monkeypatch.setattr(cli, "_json", lambda payload, indent, memo: reference.json_text(payload))
    monkeypatch.setattr(cli, "_csv", _reference_csv)
    assert cli.main(["run", config, "--out", str(tmp_path / "ref")]) == 0
    names = sorted(os.listdir(tmp_path / "ref"))
    assert sorted(os.listdir(tmp_path / "new")) == names and "report.json" in names
    for name in names:
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name
