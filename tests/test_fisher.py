"""Fisher information: analytic forms, finite differences, quantum bound.

The finite-difference classical_fisher is itself the oracle for the
analytic one-qubit form; the quantum value is cross-checked against the
general spectral formula and against arbitrary random readout bases.
"""

import math

import numpy as np
import pytest

from qclock import (
    DegenerateTimeError,
    FisherKind,
    GhzClock,
    OneQubitClock,
    TwoQubitClock,
    classical_fisher,
    crb,
    evolve,
    fisher_one_qubit_analytic,
    quantum_fisher,
)
from qclock.fisher import PROB_FLOOR


def _qfi_spectral(rho: np.ndarray, generator: np.ndarray) -> float:
    # The general route, F_Q(rho, H) from the eigendecomposition of rho:
    # 2 sum_{k,l} (lam_k - lam_l)^2 / (lam_k + lam_l) |<k|H|l>|^2, skipping
    # pairs with lam_k + lam_l ~ 0.
    lam, vecs = np.linalg.eigh(rho)
    h_in_eig = vecs.conj().T @ generator @ vecs
    total = 0.0
    dim = lam.size
    for k in range(dim):
        for l in range(dim):
            weight = lam[k] + lam[l]
            if weight < PROB_FLOOR:
                continue
            diff = lam[k] - lam[l]
            total += 2.0 * diff * diff / weight * abs(h_in_eig[k, l]) ** 2
    return total


def _qfi_pure(state, energies: np.ndarray) -> float:
    # The first-principles route: 4 Var(H) over the probe state's |a|^2.
    weights = np.abs(state.amplitudes) ** 2
    mean = float(np.dot(weights, energies))
    second = float(np.dot(weights, energies * energies))
    return 4.0 * (second - mean * mean)


def test_one_qubit_chi_one_fisher_is_constant():
    for omega in (0.5, 1.0, 2.0):
        model = OneQubitClock(omega=omega)
        for t in (0.3, 1.0, 2.4, 5.1):
            report = classical_fisher(model, t)
            assert report.kind is FisherKind.CLASSICAL
            assert report.value == pytest.approx(omega**2, rel=1e-9)


def test_two_qubit_fisher_is_constant():
    model = TwoQubitClock(omega=0.5, Omega=1.0)
    expected = 0.5 * (0.5**2 + 1.0**2)
    for t in (0.4, 1.3, 2.0, 4.7):
        assert classical_fisher(model, t).value == pytest.approx(expected, rel=1e-8)


def test_ghz_fisher_scales_with_square_of_register():
    for n in (2, 3):
        model = GhzClock(omega=1.0, n_entangled=n)
        for t in (0.3, 0.6, 1.1):
            assert classical_fisher(model, t).value == pytest.approx(n**2, rel=1e-8)


def test_analytic_matches_finite_differences():
    # Grids avoid sin(omega t) = 0 where the finite-difference form loses
    # the removable singularity.
    rng = np.random.default_rng(31)
    for _ in range(200):
        chi = float(rng.uniform(0.05, 1.0))
        omega = float(rng.uniform(0.3, 2.5))
        t = float(rng.uniform(0.2, 5.8))
        if min(abs(math.sin(omega * t)), abs(math.sin(omega * t / 2))) < 0.05:
            continue
        analytic = fisher_one_qubit_analytic(chi, omega, t).value
        numeric = classical_fisher(OneQubitClock(omega=omega, chi=chi), t).value
        assert numeric == pytest.approx(analytic, rel=1e-5)


def test_analytic_edge_cases():
    assert fisher_one_qubit_analytic(0.0, 1.0, 1.0).value == 0.0
    assert fisher_one_qubit_analytic(1.0, 2.0, 0.77).value == pytest.approx(4.0)
    # Removable singularity at omega t = 2 pi k has limit chi omega^2.
    for k in (0, 1, 3):
        at_limit = fisher_one_qubit_analytic(0.36, 1.0, 2.0 * math.pi * k)
        assert at_limit.value == pytest.approx(0.36, abs=1e-12)
    # And the formula approaches that limit continuously.
    near = fisher_one_qubit_analytic(0.36, 1.0, 2.0 * math.pi + 1e-5).value
    assert near == pytest.approx(0.36, rel=1e-4)


def test_fisher_maximized_at_full_visibility():
    omega, t = 1.0, 1.3
    best = fisher_one_qubit_analytic(1.0, omega, t).value
    for chi in np.linspace(0.0, 1.0, 100):
        assert fisher_one_qubit_analytic(float(chi), omega, t).value <= best + 1e-12


def test_quantum_fisher_values():
    # Pure-state QFI is 4 Var(H), independent of t.
    assert quantum_fisher(OneQubitClock(omega=1.0), 0.9).value == pytest.approx(1.0)
    # Partial visibility caps the extractable information at chi omega^2.
    assert quantum_fisher(OneQubitClock(omega=2.0, chi=0.36), 0.0).value == pytest.approx(1.44)
    two = quantum_fisher(TwoQubitClock(omega=0.5, Omega=1.0), 1.7)
    assert two.value == pytest.approx(0.625)
    assert two.kind is FisherKind.QUANTUM
    for n in (2, 3, 5):
        ghz = quantum_fisher(GhzClock(omega=1.0, n_entangled=n), 0.4)
        assert ghz.value == pytest.approx(float(n * n))


def test_quantum_fisher_closed_forms_match_energy_variance():
    models = [OneQubitClock(omega=w, chi=chi) for chi in (0.0, 0.36, 1.0) for w in (0.4, 1.0, 2.3)]
    models += [TwoQubitClock(omega=w, Omega=r * w) for r in (2.0, 2.6) for w in (0.4, 1.0, 2.3)]
    models += [GhzClock(omega=w, n_entangled=n) for n in range(2, 7) for w in (0.4, 1.0, 2.3)]
    for model in models:
        expected = _qfi_pure(model.initial_state(), model.hamiltonian().energies)
        value = quantum_fisher(model, 0.7).value
        assert abs(value - expected) <= 1e-12 * abs(expected), model
        with pytest.raises(ValueError, match="finite"):
            quantum_fisher(model, float("nan"))


def test_quantum_fisher_constant_in_time():
    rng = np.random.default_rng(32)
    model = TwoQubitClock(omega=0.7, Omega=1.9)
    baseline = quantum_fisher(model, 0.0).value
    for _ in range(20):
        t = float(rng.uniform(0.0, 12.0))
        assert quantum_fisher(model, t).value == pytest.approx(baseline, abs=1e-12)


def test_readout_saturates_quantum_bound():
    # Each clock's designed readout extracts the full quantum information.
    models = (
        OneQubitClock(omega=1.0),
        TwoQubitClock(omega=0.5, Omega=1.0),
        GhzClock(omega=1.0, n_entangled=3),
    )
    for model in models:
        cfi = classical_fisher(model, 1.1).value
        qfi = quantum_fisher(model, 1.1).value
        assert cfi == pytest.approx(qfi, rel=1e-7)


def test_quantum_bounds_classical_over_random_bases():
    # 100 random orthonormal readout bases on the evolved one-qubit state:
    # no measurement beats the quantum Fisher information.
    rng = np.random.default_rng(33)
    step = 1e-6
    for _ in range(100):
        chi = float(rng.uniform(0.1, 1.0))
        omega = float(rng.uniform(0.3, 2.0))
        t = float(rng.uniform(0.1, 6.0))
        model = OneQubitClock(omega=omega, chi=chi)
        qfi = quantum_fisher(model, t).value

        gauss = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        basis, _ = np.linalg.qr(gauss)

        def probs(at: float) -> np.ndarray:
            state = evolve(model.initial_state(), model.hamiltonian(), at)
            amps = basis.conj().T @ state.amplitudes
            return np.abs(amps) ** 2

        p = probs(t)
        dp = (probs(t + step) - probs(t - step)) / (2.0 * step)
        keep = p > 1e-9
        cfi = float(np.sum(dp[keep] ** 2 / p[keep]))
        assert cfi <= qfi * (1.0 + 1e-5) + 1e-9


def test_qfi_pure_matches_spectral_formula():
    rng = np.random.default_rng(34)
    for _ in range(50):
        dim = int(rng.choice((2, 4, 8)))
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        amps = amps / np.linalg.norm(amps)
        from qclock import PureState

        state = PureState(amps)
        energies = rng.normal(scale=2.0, size=dim)
        pure = _qfi_pure(state, energies)
        spectral = _qfi_spectral(state.density_matrix(), np.diag(energies).astype(complex))
        assert spectral == pytest.approx(pure, abs=1e-8)


def test_degenerate_time_flagging():
    # Vanishing probability with a non-vanishing derivative: divergence.
    report = classical_fisher(OneQubitClock(omega=1.0), 1e-7)
    assert report.degenerate
    assert math.isinf(report.value)
    with pytest.raises(DegenerateTimeError):
        report.crb(100)
    # Exactly at t=0 the finite differences see no information at all.
    at_zero = classical_fisher(OneQubitClock(omega=1.0), 0.0)
    assert at_zero.value == 0.0
    with pytest.raises(DegenerateTimeError):
        at_zero.crb(100)


def test_crb_values():
    assert crb(OneQubitClock(omega=1.0), math.pi / 2, 100) == pytest.approx(0.1, rel=1e-9)
    assert crb(TwoQubitClock(omega=0.5, Omega=1.0), 2.0, 100) == pytest.approx(
        1.0 / math.sqrt(100 * 0.625), rel=1e-8
    )
    assert crb(GhzClock(omega=1.0, n_entangled=2), 0.5, 100) == pytest.approx(0.05, rel=1e-8)


def test_rejects_non_finite_time():
    for model in (OneQubitClock(omega=1.0), TwoQubitClock(omega=0.5, Omega=1.3)):
        for t in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                classical_fisher(model, t)
            with pytest.raises(ValueError, match="finite"):
                quantum_fisher(model, t)
            with pytest.raises(ValueError):
                crb(model, t, 10)


def test_analytic_rejects_non_finite_time():
    for t in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            fisher_one_qubit_analytic(0.5, 1.0, t)


def test_crb_validates_probe_count():
    report = classical_fisher(OneQubitClock(omega=1.0), 1.0)
    with pytest.raises(ValueError):
        report.crb(0)
    with pytest.raises(ValueError):
        report.crb(2.5)
    for n in (True, np.bool_(True), np.int64(0)):
        with pytest.raises(ValueError):
            report.crb(n)
    assert report.crb(np.int64(7)) == report.crb(7)
