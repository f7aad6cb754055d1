"""Measurement count tallies consumed by the estimators.

Each clock design has its own tally shape. Tallies are plain frozen
dataclasses: checked once when built, they cannot change afterwards.
Each exposes ``tallies``, its counts in a fixed order: one-qubit
(k_minus, k_plus), two-qubit (fast_minus, fast_plus, slow_minus,
slow_plus), GHZ (k_odd, k_even), and ``from_tallies`` builds one back from
them. A Monte-Carlo cell stores its trials as rows of an integer array in
the same order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union


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


def _check_tallies(counts, names: tuple[str, ...]) -> None:
    # Each named field must be a non-negative integer; a numpy one is stored
    # as a Python int.
    for name in names:
        value = getattr(counts, name)
        if type(value) is not int:
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            value = int(value)
            object.__setattr__(counts, name, value)
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")


@dataclass(frozen=True)
class OneQubitCounts:
    """n single-qubit probes, k_minus of which landed in the |-> outcome."""

    n: int
    k_minus: int

    def __post_init__(self):
        _check_tallies(self, ("n", "k_minus"))
        if self.k_minus > self.n:
            raise ValueError(f"k_minus = {self.k_minus} exceeds n = {self.n}")

    @property
    def k_plus(self) -> int:
        return self.n - self.k_minus

    @property
    def tallies(self) -> tuple[int, int]:
        return (self.k_minus, self.k_plus)

    @classmethod
    def from_tallies(cls, tallies) -> "OneQubitCounts":
        k_minus, k_plus = tallies
        return cls(k_minus + k_plus, k_minus)


@dataclass(frozen=True)
class TwoQubitCounts:
    """Outcome tallies of the four-projector two-qubit measurement.

    fast_* count the first-qubit |1> sector, whose pair oscillates at the
    fast frequency; slow_* count the first-qubit |0> sector at the slow
    frequency. The coarse estimator consumes only the slow pair.
    """

    fast_minus: int
    fast_plus: int
    slow_minus: int
    slow_plus: int

    def __post_init__(self):
        _check_tallies(self, ("fast_minus", "fast_plus", "slow_minus", "slow_plus"))

    @property
    def n(self) -> int:
        return self.fast_minus + self.fast_plus + self.slow_minus + self.slow_plus

    @property
    def tallies(self) -> tuple[int, int, int, int]:
        return (self.fast_minus, self.fast_plus, self.slow_minus, self.slow_plus)

    @classmethod
    def from_tallies(cls, tallies) -> "TwoQubitCounts":
        return cls(*tallies)


@dataclass(frozen=True)
class GhzCounts:
    """n GHZ copies measured in the product |+/-> basis, reduced to parity.

    k_odd counts the copies whose outcome string held an odd number of '-'
    signs; only this tally is informative about time.
    """

    n: int
    k_odd: int

    def __post_init__(self):
        _check_tallies(self, ("n", "k_odd"))
        if self.k_odd > self.n:
            raise ValueError(f"k_odd = {self.k_odd} exceeds n = {self.n}")

    @property
    def k_even(self) -> int:
        return self.n - self.k_odd

    @property
    def tallies(self) -> tuple[int, int]:
        return (self.k_odd, self.k_even)

    @classmethod
    def from_tallies(cls, tallies) -> "GhzCounts":
        k_odd, k_even = tallies
        return cls(k_odd + k_even, k_odd)


CountVector = Union[OneQubitCounts, TwoQubitCounts, GhzCounts]

