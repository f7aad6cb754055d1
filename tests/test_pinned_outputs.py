"""The outputs that every change must leave as they are, pinned by sha256.

Regenerated through ``qclock.cli.main`` twice in one temporary directory, so
the second pass writes over the first pass's files:

* the data files of both shipped sweeps (``configs/``);
* the stdout of ``qclock compare --budget 200 --t-grid 0.3:5.9:15 --trials
  2000``;
* an Omega/omega = 2.6, n = 32 numeric sweep, sampled (15 x 500) and with
  ``curve = mean`` (``tests/pinned/numeric.cfg``).

Run manifests are left out, as they hold timestamps. ``tests/pinned/``
keeps the pinned bytes of each output and their sha256 in ``SHA256SUMS``;
a declared output change updates both in the same diff. The pins were
recorded with numpy 2.4.6 on Python 3.11.7. Byte pins hold on the numpy
they were recorded with, so on numpy 2 the regenerated bytes must hash to
the pins. An older numpy (the 1.24 floor) may round the closed forms' asin
and atan loops differently (the scalar and batch forms agree to 1e-12), so
every cell is also compared as a parsed value, which is all that the floor
checks: text and integers exactly, floats to FLOOR_TOLERANCE, relative or
absolute.
"""

import contextlib
import hashlib
import io
import math
import os
from pathlib import Path

import numpy as np
import pytest

from qclock.cli import main

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).resolve().parent / "pinned"
PINS = dict(
    reversed(line.split()) for line in (PINNED / "SHA256SUMS").read_text().splitlines()
)
COMPARE_ARGV = ["compare", "--budget", "200", "--t-grid", "0.3:5.9:15", "--trials", "2000"]
BYTE_PINNED = np.lib.NumpyVersion(np.__version__) >= "2.0.0"
# A printed cell has 12 significant digits, so a last-ulp difference in the
# value behind it moves it by about 1e-12 relative at most.
FLOOR_TOLERANCE = 1e-9


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_pinned(work: Path) -> dict[str, bytes]:
    # One pass of every pinned command in work: the outputs by file name, as
    # bytes; the compare table is its stdout.
    here = os.getcwd()
    os.chdir(work)
    try:
        for config in (
            ROOT / "configs" / "two_qubit_combined.cfg",
            ROOT / "configs" / "one_qubit_saturation.cfg",
            PINNED / "numeric.cfg",
        ):
            assert main(["sweep", str(config)]) == 0
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(COMPARE_ARGV) == 0
    finally:
        os.chdir(here)
    outputs = {path.name: path.read_bytes() for path in work.glob("*.csv")}
    outputs["compare_budget200.csv"] = stdout.getvalue().encode()
    return outputs


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    # Every pinned output by file name, as the bytes of two passes in one
    # directory: the second writes over the first pass's files.
    work = tmp_path_factory.mktemp("pinned")
    passes = [_run_pinned(work) for _ in range(2)]
    return {name: [outputs[name] for outputs in passes] for name in passes[0]}


def test_every_output_is_pinned_and_every_pin_has_its_bytes(regenerated):
    assert sorted(regenerated) == sorted(PINS)
    for name, pin in PINS.items():
        assert _sha256((PINNED / name).read_bytes()) == pin, name


def _cells_match(got: str, want: str) -> bool:
    if got == want:
        return True
    if want.lstrip("-").isdigit() or not got or not want:
        return False
    try:
        return math.isclose(
            float(got), float(want), rel_tol=FLOOR_TOLERANCE, abs_tol=FLOOR_TOLERANCE
        )
    except ValueError:
        return False


@pytest.mark.parametrize("name", sorted(PINS))
def test_output_matches_its_pin(regenerated, name):
    # The value comparison runs on every numpy, the byte pin on numpy 2; both
    # hold for the fresh pass and the rewrite pass.
    want = (PINNED / name).read_text().splitlines()
    for got in regenerated[name]:
        if BYTE_PINNED:
            assert _sha256(got) == PINS[name], name
        lines = got.decode().splitlines()
        assert len(lines) == len(want) and lines[0] == want[0], name
        for got_line, want_line in zip(lines[1:], want[1:]):
            got_cells, want_cells = got_line.split(","), want_line.split(",")
            assert len(got_cells) == len(want_cells), (name, got_line)
            assert all(map(_cells_match, got_cells, want_cells)), (name, got_line, want_line)


def test_floor_comparison_accepts_rounding_and_rejects_a_change():
    # The value comparison that the floor job relies on.
    assert _cells_match("0.209456612641", "0.209456612642")
    assert _cells_match("nan", "nan") and not _cells_match("nan", "0.1")
    assert not _cells_match("0.2094566", "0.2094567")
    assert not _cells_match("6544", "6545") and not _cells_match("6545.0000000001", "6545")
