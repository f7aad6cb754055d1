"""Count tallies: the one Tallies rule, its builders, numpy integers."""

import copy
import pickle

import numpy as np
import pytest

from qclock import (
    EstimatorKind,
    GhzClock,
    GhzCounts,
    OneQubitClock,
    OneQubitCounts,
    Tallies,
    TwoQubitClock,
    TwoQubitCounts,
    apply_estimator,
    sample_counts,
)
from qclock.counts import _positive_integer
from qclock.montecarlo import ConfigError


def test_one_qubit_counts_fields():
    counts = OneQubitCounts(n=10, k_minus=3)
    assert counts == (3, 7) and type(counts) is Tallies
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
    assert counts == (1, 2, 3, 4) and sum(counts) == 10
    with pytest.raises(ValueError):
        TwoQubitCounts(fast_minus=-1, fast_plus=0, slow_minus=0, slow_plus=0)


def test_ghz_counts_fields():
    counts = GhzCounts(n=8, k_odd=5)
    assert counts == (5, 3)
    with pytest.raises(ValueError):
        GhzCounts(n=4, k_odd=5)


def test_counts_are_hashable():
    # Exact enumeration keys dictionaries with tallies.
    table = {OneQubitCounts(4, 1): 0.5, OneQubitCounts(4, 3): 0.5}
    assert table[OneQubitCounts(4, 1)] == 0.5


def test_tallies_are_plain_tuples_to_compare_hash_and_copy():
    counts = Tallies([3, 0, 2, 9])
    assert counts == (3, 0, 2, 9) and hash(counts) == hash((3, 0, 2, 9))
    assert {(3, 0, 2, 9): "plain"}[counts] == "plain"
    for copied in (pickle.loads(pickle.dumps(counts)), copy.deepcopy(counts), copy.copy(counts)):
        assert type(copied) is Tallies and copied == counts
    assert not hasattr(counts, "__dict__")
    # Counts carry no design: builders of two designs with the same values
    # give equal Tallies.
    assert OneQubitCounts(4, 2) == GhzCounts(4, 2) == Tallies((2, 2))


def test_tallies_rule():
    # Integers only, none negative; a numpy integer is stored as a Python int.
    counts = Tallies((np.uint8(3), np.int64(2**62), np.uint64(2**64 - 1), 0))
    assert counts == (3, 2**62, 2**64 - 1, 0)
    assert all(type(k) is int for k in counts)
    assert Tallies(np.array([4, 1])) == (4, 1)
    bad = (True, np.bool_(False), 1.0, np.float64(2), "3", None, -1, np.int64(-2))
    for value in bad:
        with pytest.raises(ValueError, match="^a tally must be"):
            Tallies((1, value))


def test_builders_check_n_and_k_as_python_ints():
    # An np.uint64 n less an np.int64 k is a float in numpy 2: the builders
    # convert both first, so the tallies stay exact ints.
    counts = OneQubitCounts(np.uint64(2**60 + 1), np.int64(2**60))
    assert counts == (2**60, 1) and all(type(k) is int for k in counts)
    assert GhzCounts(np.uint64(9), np.int64(4)) == (4, 5)
    assert all(type(k) is int for k in TwoQubitCounts(np.int32(1), np.uint16(2), 3, np.int8(4)))
    for builder in (OneQubitCounts, GhzCounts):
        for n, k in ((True, 0), (5.0, 1), (4, 2.0), (-1, 0), (4, -1), (4, 5), (4, False)):
            with pytest.raises(ValueError):
                builder(n, k)


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
        counts = Tallies(row)
        plain = Tallies(row.tolist())
        assert counts == plain and hash(counts) == hash(plain)
        assert counts == tuple(row.tolist())
        assert all(type(k) is int for k in counts)
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
