"""The output files of each shipped config and of test_12's config, byte for byte.

``tests/golden/<name>/`` holds every file that ``dephaser run`` writes for the
config ``<name>``: ``configs/<name>.json``, or ``reference.TEST_12`` for
``test_12``.  Unlike ``test_12``, which compares two reruns of one tree, these
files pin the bytes across commits.  A change that alters a golden file says
why in CHANGES.md and rewrites the set with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import glob
import json
import os
import shutil
import sys
import tempfile

import pytest

from dephaser import cli
import reference

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
CONFIGS = {
    os.path.basename(path)[:-5]: path for path in sorted(glob.glob(os.path.join(os.path.dirname(HERE), "configs", "*.json")))
}
NAMES = [*CONFIGS, "test_12"]


def _run(name, scratch, out) -> int:
    """``dephaser run`` of golden ``name`` into ``out``; ``test_12``'s config is written into ``scratch``."""
    config = CONFIGS.get(name)
    if config is None:
        config = os.path.join(scratch, "test_12.json")
        with open(config, "w") as fh:
            json.dump(reference.TEST_12, fh)
    return cli.main(["run", config, "--out", out])


def test_one_golden_per_config():
    assert sorted(os.listdir(GOLDEN)) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_outputs_match_the_golden_files(tmp_path, name):
    out = tmp_path / "out"
    assert _run(name, str(tmp_path), str(out)) == 0
    names = sorted(os.listdir(os.path.join(GOLDEN, name)))
    assert sorted(os.listdir(out)) == names
    for file in names:
        with open(os.path.join(GOLDEN, name, file), "rb") as fh:
            assert (out / file).read_bytes() == fh.read(), f"{name}/{file}"


if __name__ == "__main__":
    # rewrite the golden set from this tree's outputs
    with tempfile.TemporaryDirectory() as scratch:
        for name in NAMES:
            shutil.rmtree(os.path.join(GOLDEN, name), ignore_errors=True)
            if _run(name, scratch, os.path.join(GOLDEN, name)) != 0:
                sys.exit(f"{name}: run failed")
