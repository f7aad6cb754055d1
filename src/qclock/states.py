"""Small dense linear algebra for qubit registers.

States are complex amplitude vectors over a labeled computational basis,
Hamiltonians are diagonal in that basis (so time evolution is exact phase
multiplication, never a matrix exponential), and measurements are complete
sets of mutually orthogonal projectors. Every object is an immutable value
with read-only arrays, so clock probes are shared values, one per structure
(clocks.py); operations return new objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Absolute tolerance for normalization and completeness checks.
ATOL = 1e-12


def bit_labels(dim: int) -> tuple[str, ...]:
    """Computational-basis bit strings '00', '01', ... for a 2**q space."""
    n_qubits = (dim - 1).bit_length()
    return tuple(format(i, f"0{n_qubits}b") for i in range(dim))


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_dim(dim: int) -> None:
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"dimension {dim} is not a power of two >= 2")


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over a labeled basis.

    Parameters
    ----------
    amplitudes : array-like of complex, shape (dim,)
        Must be normalized: sum |a_i|^2 = 1 within 1e-12.
    basis_labels : tuple of str, optional
        One label per basis vector; defaults to bit strings.
    """

    amplitudes: np.ndarray
    basis_labels: tuple[str, ...] = ()

    def __post_init__(self):
        amps = _frozen_array(self.amplitudes, complex)
        if amps.ndim != 1:
            raise ValueError("amplitudes must be a one-dimensional vector")
        _check_dim(amps.shape[0])
        object.__setattr__(self, "amplitudes", amps)
        labels = self.basis_labels or bit_labels(amps.shape[0])
        labels = tuple(labels)
        if len(labels) != amps.shape[0]:
            raise ValueError("one basis label required per amplitude")
        object.__setattr__(self, "basis_labels", labels)
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > ATOL:
            raise ValueError(f"state is not normalized: sum |a|^2 = {norm!r}")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        if other.dim != self.dim:
            raise ValueError("dimension mismatch between states")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "PureState") -> float:
        """|<self|other>|^2, invariant under global phases."""
        return abs(self.overlap(other)) ** 2

    def density_matrix(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True, eq=False)
class DiagonalHamiltonian:
    """Hamiltonian diagonal in the computational basis."""

    energies: np.ndarray
    basis_labels: tuple[str, ...] = ()

    def __post_init__(self):
        energies = _frozen_array(self.energies, float)
        if energies.ndim != 1:
            raise ValueError("energies must be a one-dimensional vector")
        _check_dim(energies.shape[0])
        object.__setattr__(self, "energies", energies)
        labels = self.basis_labels or bit_labels(energies.shape[0])
        labels = tuple(labels)
        if len(labels) != energies.shape[0]:
            raise ValueError("one basis label required per energy")
        object.__setattr__(self, "basis_labels", labels)

    @property
    def dim(self) -> int:
        return self.energies.shape[0]

    def matrix(self) -> np.ndarray:
        return np.diag(self.energies).astype(complex)


def evolve(state: PureState, hamiltonian: DiagonalHamiltonian, t: float) -> PureState:
    """Evolve a state for time t: amplitudes pick up phases exp(-i E_k t)."""
    if state.dim != hamiltonian.dim:
        raise ValueError("state and Hamiltonian dimensions differ")
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    phases = np.exp(-1j * hamiltonian.energies * float(t))
    return PureState(phases * state.amplitudes, state.basis_labels)


@dataclass(frozen=True, eq=False)
class ProjectiveMeasurement:
    """Complete set of orthogonal projectors with outcome labels.

    Each outcome is (label, vectors) where `vectors` is an (r, dim) array of
    orthonormal rows spanning that projector's range. Across all outcomes the
    rows must form an orthonormal basis of the whole space (projectors are
    mutually orthogonal and sum to the identity within 1e-12).
    """

    outcomes: tuple[tuple[str, np.ndarray], ...]
    # The rows of all outcomes stacked in order, and the outcome of each row,
    # so Born probabilities take one product and one weighted count.
    _rows: np.ndarray = field(init=False, repr=False)
    _row_outcome: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        blocks = [np.atleast_2d(vectors) for _, vectors in self.outcomes]
        stacked = _frozen_array(np.concatenate(blocks), complex)
        dim = stacked.shape[1]
        _check_dim(dim)
        if stacked.shape[0] != dim:
            raise ValueError(
                f"projector ranks sum to {stacked.shape[0]}, expected {dim} "
                "(measurement must be complete)"
            )
        gram = stacked @ stacked.conj().T
        if np.abs(gram - np.eye(dim)).max() > ATOL:
            raise ValueError("projectors are not an orthogonal resolution of identity")
        # Each outcome keeps its rows as a read-only view of the stack.
        ranks = [len(block) for block in blocks]
        ends = np.cumsum(ranks)
        outcomes = tuple(
            (str(label), stacked[end - rank : end])
            for (label, _), rank, end in zip(self.outcomes, ranks, ends)
        )
        row_outcome = np.repeat(np.arange(len(ranks)), ranks)
        row_outcome.setflags(write=False)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "_rows", stacked)
        object.__setattr__(self, "_row_outcome", row_outcome)

    @property
    def dim(self) -> int:
        return self.outcomes[0][1].shape[1]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.outcomes)

    def probabilities(self, state: PureState) -> dict[str, float]:
        """Born probabilities of each outcome on the given state."""
        if state.dim != self.dim:
            raise ValueError("state and measurement dimensions differ")
        # |<v|a>|^2 = |v . conj(a)|^2, so the stack needs no conjugated copy.
        amps = self._rows @ state.amplitudes.conj()
        weights = np.bincount(
            self._row_outcome, amps.real**2 + amps.imag**2, minlength=len(self.outcomes)
        )
        return dict(zip(self.labels, weights.tolist()))


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
