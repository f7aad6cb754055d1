"""State, Hamiltonian, and measurement primitives against a dense oracle.

The evolution oracle is a scaling-and-squaring Taylor matrix exponential,
independent of the phase shortcut used by evolve().
"""

import numpy as np
import pytest

from qclock import (
    DiagonalHamiltonian,
    OutcomeDistribution,
    ProjectiveMeasurement,
    PureState,
    bit_labels,
    evolve,
)


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


def random_state(rng: np.random.Generator, dim: int) -> PureState:
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(amps / np.linalg.norm(amps))


def random_measurement(rng: np.random.Generator, dim: int) -> ProjectiveMeasurement:
    # Haar-ish random orthonormal basis, one rank-1 projector per row.
    gauss = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(gauss)
    return ProjectiveMeasurement(
        tuple((f"m{j}", q[:, j].conj()) for j in range(dim))
    )


def test_evolve_matches_matrix_exponential_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        dim = int(rng.choice((2, 4, 8)))
        energies = rng.normal(scale=3.0, size=dim)
        t = float(rng.uniform(-8.0, 8.0))
        state = random_state(rng, dim)
        ham = DiagonalHamiltonian(energies)
        propagator = expm_oracle(-1j * ham.matrix() * t)
        expected = propagator @ state.amplitudes
        got = evolve(state, ham, t).amplitudes
        assert np.max(np.abs(got - expected)) < 1e-12


def test_evolve_preserves_norm_and_composes():
    rng = np.random.default_rng(12)
    state = random_state(rng, 4)
    ham = DiagonalHamiltonian(rng.normal(size=4))
    once = evolve(evolve(state, ham, 0.7), ham, 1.9)
    twice = evolve(state, ham, 2.6)
    assert np.max(np.abs(once.amplitudes - twice.amplitudes)) < 1e-12
    assert abs(float(np.sum(np.abs(once.amplitudes) ** 2)) - 1.0) < 1e-12


def test_evolve_rejects_dimension_mismatch():
    state = PureState([1.0, 0.0])
    ham = DiagonalHamiltonian([0.0, 1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        evolve(state, ham, 1.0)


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState([1.0, 1.0])  # not normalized
    with pytest.raises(ValueError):
        PureState([[1.0], [0.0]])  # not a vector
    with pytest.raises(ValueError):
        PureState([1.0, 0.0], basis_labels=("only-one",))
    with pytest.raises(ValueError):
        PureState([1.0, 0.0, 0.0])  # qubit registers only: dim 3 rejected


def test_pure_state_overlap_fidelity_density():
    rng = np.random.default_rng(13)
    a = random_state(rng, 4)
    b = random_state(rng, 4)
    assert abs(a.fidelity(b) - abs(a.overlap(b)) ** 2) < 1e-12
    assert abs(a.fidelity(a) - 1.0) < 1e-12
    rho = a.density_matrix()
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.max(np.abs(rho @ rho - rho)) < 1e-12  # pure state projector


def test_bit_labels_enumerate_basis():
    assert bit_labels(2) == ("0", "1")
    assert bit_labels(4) == ("00", "01", "10", "11")


def test_diagonal_hamiltonian_matrix():
    ham = DiagonalHamiltonian([-0.5, 0.5])
    assert np.array_equal(ham.matrix(), np.diag([-0.5 + 0j, 0.5 + 0j]))
    with pytest.raises(ValueError):
        DiagonalHamiltonian([[0.0, 1.0]])


def test_measurement_completeness_enforced():
    # Two parallel (non-orthogonal) projectors must be rejected.
    v = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError):
        ProjectiveMeasurement((("a", v), ("b", v)))
    # A single rank-1 outcome on a 2-dim space is incomplete.
    with pytest.raises(ValueError):
        ProjectiveMeasurement((("a", v),))


def test_born_probabilities_sum_to_one_and_match_projection():
    rng = np.random.default_rng(14)
    for _ in range(50):
        dim = int(rng.choice((2, 4, 8)))
        meas = random_measurement(rng, dim)
        state = random_state(rng, dim)
        probs = meas.probabilities(state)
        assert abs(sum(probs.values()) - 1.0) < 1e-12
        for label, vectors in meas.outcomes:
            expected = float(np.sum(np.abs(vectors.conj() @ state.amplitudes) ** 2))
            assert abs(probs[label] - expected) < 1e-12


def test_multi_rank_projectors_supported():
    # Rank-2 + rank-1 + rank-1 resolution of a 4-dim space.
    rng = np.random.default_rng(15)
    gauss = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(gauss)
    meas = ProjectiveMeasurement(
        (
            ("pair", q[:, :2].conj().T),
            ("x", q[:, 2].conj()),
            ("y", q[:, 3].conj()),
        )
    )
    state = random_state(rng, 4)
    probs = meas.probabilities(state)
    assert abs(sum(probs.values()) - 1.0) < 1e-12
    assert meas.labels == ("pair", "x", "y")


@pytest.mark.parametrize("position", [0, 1, 3])
def test_empty_outcome_has_probability_zero(position):
    # A rank-0 outcome, first, in the middle or last, gets probability 0
    # and leaves the other outcomes' probabilities as without it.
    rng = np.random.default_rng(16)
    gauss = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(gauss)
    outcomes = [("pair", q[:, :2].conj().T), ("x", q[:, 2].conj()), ("y", q[:, 3].conj())]
    state = random_state(rng, 4)
    expected = ProjectiveMeasurement(tuple(outcomes)).probabilities(state)
    outcomes.insert(position, ("empty", np.empty((0, 4), dtype=complex)))
    meas = ProjectiveMeasurement(tuple(outcomes))
    probs = meas.probabilities(state)
    assert probs["empty"] == 0.0
    for label, p in expected.items():
        assert abs(probs[label] - p) < 1e-15
    assert abs(sum(probs.values()) - 1.0) < 1e-12
    assert meas.outcomes[position][1].shape == (0, 4)


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
    state = PureState(np.full(2, 2.0**-0.5))
    hamiltonian = DiagonalHamiltonian(np.array([-0.5, 0.5]))
    for t in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            evolve(state, hamiltonian, t)
