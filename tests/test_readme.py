"""Every fenced ``python`` block of ``README.md`` runs as written.

The library tour names functions of the package; a block that imports or
calls a name the package no longer binds fails here.  Each block runs in a
fresh namespace.
"""

import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "README.md")) as fh:
    BLOCKS = re.findall(r"^```python\n(.*?)^```", fh.read(), re.MULTILINE | re.DOTALL)


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block-{k}" for k in range(len(BLOCKS))])
def test_block_runs(block):
    exec(compile(block, "README.md", "exec"), {"__name__": "readme_example"})
