"""Count tallies: validation, derived fields, numpy integers."""

import dataclasses

import numpy as np
import pytest

from qclock import (
    EstimatorKind,
    GhzClock,
    GhzCounts,
    OneQubitClock,
    OneQubitCounts,
    TwoQubitClock,
    TwoQubitCounts,
    apply_estimator,
    sample_counts,
)
from qclock.counts import _positive_integer
from qclock.montecarlo import ConfigError


def test_one_qubit_counts_fields():
    counts = OneQubitCounts(n=10, k_minus=3)
    assert counts.k_plus == 7
    with pytest.raises(ValueError):
        OneQubitCounts(n=5, k_minus=6)
    with pytest.raises(ValueError):
        OneQubitCounts(n=-1, k_minus=0)
    with pytest.raises(ValueError):
        OneQubitCounts(n=5.0, k_minus=1)  # floats are not tallies
    with pytest.raises(ValueError):
        OneQubitCounts(n=True, k_minus=0)


def test_two_qubit_counts_fields():
    counts = TwoQubitCounts(fast_minus=1, fast_plus=2, slow_minus=3, slow_plus=4)
    assert counts.n == 10
    with pytest.raises(ValueError):
        TwoQubitCounts(fast_minus=-1, fast_plus=0, slow_minus=0, slow_plus=0)


def test_ghz_counts_fields():
    counts = GhzCounts(n=8, k_odd=5)
    assert counts.k_even == 3
    with pytest.raises(ValueError):
        GhzCounts(n=4, k_odd=5)


def test_counts_are_hashable():
    # Exact enumeration keys dictionaries with tallies.
    table = {OneQubitCounts(4, 1): 0.5, OneQubitCounts(4, 3): 0.5}
    assert table[OneQubitCounts(4, 1)] == 0.5


@pytest.mark.parametrize(
    "model, kind",
    [
        (OneQubitClock(omega=1.0, chi=0.7), EstimatorKind.CLOSED_FORM),
        (TwoQubitClock(omega=0.5, Omega=1.0), EstimatorKind.COMBINED),
        (TwoQubitClock(omega=0.5, Omega=1.3), EstimatorKind.NUMERIC),
        (GhzClock(omega=0.9, n_entangled=3), EstimatorKind.CLOSED_FORM),
    ],
    ids=repr,
)
def test_sampled_rows_round_trip(model, kind):
    # A sampled row holds numpy integers: its count vector stores Python ints,
    # equals and hashes like the vector built from ints, and gives the same
    # estimate.
    rows = sample_counts(model, 10, 0.6 * model.window_top, np.random.default_rng(5), 20)
    for row in rows:
        counts = model.counts_type.from_tallies(row)
        plain = model.counts_type.from_tallies(row.tolist())
        assert counts == plain and hash(counts) == hash(plain)
        assert counts.tallies == tuple(row.tolist())
        assert all(type(getattr(counts, f.name)) is int for f in dataclasses.fields(counts))
        assert apply_estimator(model, counts, kind) == apply_estimator(model, plain, kind)


def test_numpy_tallies_are_validated():
    assert OneQubitCounts(np.uint8(10), np.int32(3)) == OneQubitCounts(10, 3)
    for n, k in ((np.bool_(True), 0), (4, np.bool_(False)), (np.int64(-1), 0), (4, np.float64(1))):
        with pytest.raises(ValueError):
            OneQubitCounts(n, k)
    with pytest.raises(ValueError):
        GhzCounts(np.int64(4), np.int64(5))
    with pytest.raises(ValueError):
        TwoQubitCounts(np.int64(1), np.int64(-2), 0, 0)


def test_positive_integer_returns_an_int_or_raises_the_callers_error():
    assert _positive_integer(np.int64(3), "trials") == 3
    assert type(_positive_integer(np.uint8(3), "trials")) is int
    for value in (0, -1, 2.5, True, np.bool_(True), "3"):
        with pytest.raises(ValueError, match=f"^trials must be a positive integer, got {value!r}$"):
            _positive_integer(value, "trials")
        with pytest.raises(ConfigError):
            _positive_integer(value, "trials", ConfigError)
    # An upper bound, where one is given, keeps the lower bound's message.
    assert _positive_integer(2**63 - 1, "n_probes", top=2**63 - 1) == 2**63 - 1
    with pytest.raises(ConfigError, match=r"^n_probes must be at most 7, got 8$"):
        _positive_integer(8, "n_probes", ConfigError, 7)
    with pytest.raises(ConfigError, match=r"^n_probes must be at most 7, got "):
        _positive_integer(np.uint64(8), "n_probes", ConfigError, 7)
    with pytest.raises(ValueError, match="^n_probes must be a positive integer, got 0$"):
        _positive_integer(0, "n_probes", top=7)
