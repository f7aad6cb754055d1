"""Measurement count tallies consumed by the estimators.

A count vector is a ``Tallies``: non-negative Python ints, checked once when
built, in its clock's class order (clocks.py): one-qubit (k_minus, k_plus);
two-qubit (fast_minus, fast_plus, slow_minus, slow_plus), the fast pair the
first-qubit |1> sector; GHZ (k_odd, k_even), k_odd the copies with an odd
number of '-' outcomes. It equals and hashes like the plain tuple, so the
clock, not the counts, says what each tally counts. A Monte-Carlo cell
stores its trials as rows of an integer array in the same order.
"""

from __future__ import annotations

import math
import numbers


def is_integer(value) -> bool:
    """Whether value is a Python or numpy integer; a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _positive_integer(value, name: str, error: type[Exception] = ValueError, top=math.inf) -> int:
    # value as an int, or the caller's exception unless it is an integer in [1, top].
    if not is_integer(value) or value < 1:
        raise error(f"{name} must be a positive integer, got {value!r}")
    if value > top:
        raise error(f"{name} must be at most {top}, got {value!r}")
    return int(value)


def _tally(value, name: str) -> int:
    # value as a Python int, so that sums, gcds and divisions stay exact past
    # 2**53, or ValueError unless it is a non-negative integer.
    if type(value) is not int:
        if not is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


class Tallies(tuple):
    """A count vector: non-negative Python ints in its clock's class order."""

    __slots__ = ()

    def __new__(cls, tallies):
        return super().__new__(cls, [_tally(k, "a tally") for k in tallies])


def _pair(n, k, name: str) -> Tallies:
    # The tallies (k, n - k) of n probes, k of them in the pair's first class.
    n, k = _tally(n, "n"), _tally(k, name)
    if k > n:
        raise ValueError(f"{name} = {k} exceeds n = {n}")
    return Tallies((k, n - k))


def OneQubitCounts(n, k_minus) -> Tallies:
    """n single-qubit probes, k_minus of which landed in |->: (k_minus, k_plus)."""
    return _pair(n, k_minus, "k_minus")


def TwoQubitCounts(fast_minus, fast_plus, slow_minus, slow_plus) -> Tallies:
    """The four-projector two-qubit tallies; the coarse estimator reads the slow pair."""
    return Tallies((fast_minus, fast_plus, slow_minus, slow_plus))


def GhzCounts(n, k_odd) -> Tallies:
    """n GHZ copies reduced to parity, k_odd of them odd: (k_odd, k_even)."""
    return _pair(n, k_odd, "k_odd")
