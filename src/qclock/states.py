"""Small dense linear algebra for qubit registers.

States are complex amplitude vectors over a labeled computational basis,
Hamiltonians are diagonal in that basis (so time evolution is exact phase
multiplication, never a matrix exponential), and measurements are complete
sets of mutually orthogonal projectors. Every object is an immutable value;
operations return new objects and are safe to share across threads.
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

    def __post_init__(self):
        frozen = []
        for label, vectors in self.outcomes:
            arr = _frozen_array(np.atleast_2d(vectors), complex)
            frozen.append((str(label), arr))
        object.__setattr__(self, "outcomes", tuple(frozen))

        dim = frozen[0][1].shape[1]
        _check_dim(dim)
        stacked = np.vstack([vectors for _, vectors in frozen])
        if stacked.shape[0] != dim:
            raise ValueError(
                f"projector ranks sum to {stacked.shape[0]}, expected {dim} "
                "(measurement must be complete)"
            )
        gram = stacked @ stacked.conj().T
        if np.max(np.abs(gram - np.eye(dim))) > ATOL:
            raise ValueError("projectors are not an orthogonal resolution of identity")

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
        probs = {}
        for label, vectors in self.outcomes:
            amps = vectors.conj() @ state.amplitudes
            probs[label] = float(np.sum(np.abs(amps) ** 2))
        return probs


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
