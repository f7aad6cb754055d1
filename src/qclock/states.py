"""State evolution and checked outcome statistics for qubit registers.

A clock's probe state is a complex amplitude vector over the computational
basis, qubit 0 the most significant bit, and its Hamiltonian is diagonal in
that basis, so time evolution is exact phase multiplication, never a matrix
exponential (``evolve``). ``OutcomeDistribution`` holds the outcome
probabilities of one readout at one time and checks them on construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Absolute tolerance on each probability and on their total.
ATOL = 1e-12


def evolve(amplitudes: np.ndarray, energies: np.ndarray, t: float) -> np.ndarray:
    """Amplitudes after time t: amplitude k picks up the phase exp(-i E_k t)."""
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    if np.shape(amplitudes) != np.shape(energies):
        raise ValueError("amplitudes and energies differ in shape")
    return np.exp(-1j * energies * float(t)) * amplitudes


@dataclass(frozen=True)
class OutcomeDistribution:
    """Outcome probabilities of one measurement at one time."""

    t: float
    probs: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError(f"time must be finite, got {self.t!r}")
        total = 0.0
        for label, p in self.probs.items():
            # Written so that NaN fails it too.
            if not -ATOL <= p <= 1.0 + ATOL:
                raise ValueError(f"probability of outcome {label!r} out of [0, 1]: {p!r}")
            total += p
        if abs(total - 1.0) > ATOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.probs)

    def __getitem__(self, label: str) -> float:
        return self.probs[label]
