"""The README's Python examples run, and every exported name resolves.

A name retired from the package then cannot linger in the documented
examples or in ``qclock.__all__``.
"""

import re
from pathlib import Path

import pytest

import qclock

README = Path(__file__).resolve().parents[1] / "README.md"
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize(
    "source", PYTHON_BLOCKS, ids=[f"block{i}" for i in range(1, len(PYTHON_BLOCKS) + 1)]
)
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {})


def test_every_exported_name_resolves():
    assert len(set(qclock.__all__)) == len(qclock.__all__)
    missing = [name for name in qclock.__all__ if not hasattr(qclock, name)]
    assert missing == []
