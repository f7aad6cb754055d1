"""Evolution and outcome statistics against dense oracles.

The evolution oracle is a scaling-and-squaring Taylor matrix exponential,
independent of the phase shortcut used by evolve(). The Born rule of
``evolved_distribution``, one local readout per qubit, is checked against
projection onto the rows of their dense tensor product.
"""

from functools import reduce

import numpy as np
import pytest

from qclock import OutcomeDistribution, evolve, evolved_distribution


def expm_oracle(matrix: np.ndarray) -> np.ndarray:
    """Dense matrix exponential by scaling and squaring a Taylor sum."""
    norm = np.linalg.norm(matrix, ord=np.inf)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300)))) + 1)
    scaled = matrix / (2.0**squarings)
    result = np.eye(matrix.shape[0], dtype=complex)
    term = np.eye(matrix.shape[0], dtype=complex)
    for k in range(1, 30):
        term = term @ scaled / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


def random_readout(rng: np.random.Generator) -> np.ndarray:
    # Haar-ish random 2 x 2 unitary, one outcome per row.
    gauss = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(gauss)
    return q.conj().T


class FixedProbe:
    """A stand-in clock: one probe, outcomes labelled by their index."""

    def __init__(self, amplitudes, energies, readouts):
        self._probe = (amplitudes, energies, tuple(readouts))
        self.outcome_labels = tuple(f"m{j}" for j in range(len(amplitudes)))

    def probe(self):
        return self._probe


def test_evolve_matches_matrix_exponential_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        dim = int(rng.choice((2, 4, 8)))
        energies = rng.normal(scale=3.0, size=dim)
        t = float(rng.uniform(-8.0, 8.0))
        state = random_state(rng, dim)
        propagator = expm_oracle(-1j * np.diag(energies).astype(complex) * t)
        expected = propagator @ state
        got = evolve(state, energies, t)
        assert np.max(np.abs(got - expected)) < 1e-12


def test_evolve_preserves_norm_and_composes():
    rng = np.random.default_rng(12)
    state = random_state(rng, 4)
    energies = rng.normal(size=4)
    once = evolve(evolve(state, energies, 0.7), energies, 1.9)
    twice = evolve(state, energies, 2.6)
    assert np.max(np.abs(once - twice)) < 1e-12
    assert abs(float(np.sum(np.abs(once) ** 2)) - 1.0) < 1e-12


def test_evolve_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        evolve(np.array([1.0, 0.0]), np.array([0.0, 1.0, 2.0, 3.0]), 1.0)
    with pytest.raises(ValueError):
        evolve(np.array([1.0]), np.array([0.0, 1.0]), 1.0)


def test_pure_state_validation():
    # A probe state that is not a normalized vector over 2^q basis states
    # fails at the call.
    identity = np.eye(2)
    for amplitudes, energies, readouts in (
        ([1.0, 1.0], [0.0, 1.0], [identity]),  # not normalized
        ([[1.0], [0.0]], [0.0, 1.0], [identity]),  # not a vector
        ([1.0, 0.0, 0.0], [0.0, 1.0, 2.0], [identity]),  # dim 3: qubit registers only
    ):
        probe = FixedProbe(np.array(amplitudes), np.array(energies), readouts)
        with pytest.raises(ValueError):
            evolved_distribution(probe, 0.3)


def test_measurement_completeness_enforced():
    # A readout that is not orthogonal fails at the call: two parallel
    # outcomes, or one outcome on a qubit, do not total one.
    state = np.array([0.6, 0.8])
    energies = np.zeros(2)
    for readout in ([[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]]):
        with pytest.raises(ValueError, match="sum to"):
            evolved_distribution(FixedProbe(state, energies, [np.array(readout)]), 0.3)


def test_born_probabilities_sum_to_one_and_match_projection():
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        dim = 2**n
        readouts = [random_readout(rng) for _ in range(n)]
        state = random_state(rng, dim)
        energies = rng.normal(size=dim)
        t = float(rng.uniform(-3.0, 3.0))
        probs = evolved_distribution(FixedProbe(state, energies, readouts), t)
        assert abs(sum(probs.probs.values()) - 1.0) < 1e-12
        evolved = evolve(state, energies, t)
        for label, row in zip(probs.labels, reduce(np.kron, readouts)):
            expected = abs(np.vdot(row, evolved)) ** 2
            assert abs(probs[label] - expected) < 1e-12


def test_outcome_distribution_validation():
    dist = OutcomeDistribution(0.5, {"+": 0.25, "-": 0.75})
    assert dist.labels == ("+", "-")
    assert dist["-"] == 0.75
    with pytest.raises(ValueError):
        OutcomeDistribution(0.0, {"+": 0.5, "-": 0.6})
    with pytest.raises(ValueError):
        OutcomeDistribution(0.0, {"+": 1.2, "-": -0.2})
    for t in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            OutcomeDistribution(t, {"+": 0.25, "-": 0.75})
    with pytest.raises(ValueError):
        OutcomeDistribution(0.0, {"+": float("nan"), "-": 0.75})
    with pytest.raises(ValueError):
        OutcomeDistribution(0.0, {"+": float("nan"), "-": float("nan")})


def test_evolve_rejects_non_finite_time():
    state = np.full(2, 2.0**-0.5)
    energies = np.array([-0.5, 0.5])
    for t in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            evolve(state, energies, t)
