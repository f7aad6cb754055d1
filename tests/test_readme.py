"""The README's Python examples and qclock commands run, and every exported
name resolves.

A name retired from the package then cannot linger in the documented
examples or in ``qclock.__all__``, nor a flag in the documented commands.
"""

import re
import shlex
import shutil
from pathlib import Path

import pytest

import qclock
from qclock.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
# Each qclock line of the shell blocks, its continuation lines joined, as argv.
CLI_COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    for line in block.replace("\\\n", " ").splitlines()
    if line.startswith("qclock ")
]


def test_readme_has_python_examples():
    assert len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize(
    "source", PYTHON_BLOCKS, ids=[f"block{i}" for i in range(1, len(PYTHON_BLOCKS) + 1)]
)
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {})


def test_readme_shows_every_subcommand():
    subcommands = {"probs", "fisher", "estimate", "sweep", "compare", "recurrence"}
    assert {argv[0] for argv in CLI_COMMANDS} == subcommands


@pytest.mark.parametrize(
    "argv", CLI_COMMANDS, ids=[f"cmd{i}-{argv[0]}" for i, argv in enumerate(CLI_COMMANDS, 1)]
)
def test_readme_cli_command_exits_zero(argv, tmp_path, monkeypatch, capsys):
    # In a directory of its own, beside a copy of the shipped configs that
    # the sweep example names, so its output files land there.
    shutil.copytree(README.parent / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0, capsys.readouterr().err


def test_every_exported_name_resolves():
    assert len(set(qclock.__all__)) == len(qclock.__all__)
    missing = [name for name in qclock.__all__ if not hasattr(qclock, name)]
    assert missing == []
