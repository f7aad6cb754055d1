"""Fisher information: closed forms, finite differences, quantum bound.

Central differences of the class probabilities are the oracle for every
design's closed-form ``cfi``, and the paper's full-angle one-qubit formula
a second one; the quantum value is cross-checked against the general
spectral formula and against arbitrary random readout bases.
"""

import math

import numpy as np
import pytest

from qclock import (
    DegenerateTimeError,
    GhzClock,
    OneQubitClock,
    TwoQubitClock,
    classical_fisher,
    crb,
    evolve,
    fisher_one_qubit_analytic,
    quantum_fisher,
)
from qclock.clocks import WINDOW_RTOL


def _fd_fisher(model, t: float, step: float = 1e-6) -> float:
    # sum_x P_x'^2 / P_x with P_x' from central differences of the class
    # probabilities, each class counted once per outcome it holds. Interior
    # times only: every class probability must stay well above zero.
    classes = model.class_probs(np.array([t - step, t, t + step]))
    total = 0.0
    for m, (minus, p, plus) in zip(model.class_sizes, (q.tolist() for q in classes)):
        dp = (plus - minus) / (2.0 * step)
        total += m * (dp * dp / p)
    return total


def _fisher_full_angle(chi: float, omega: float, t: float) -> float:
    # The paper's one-qubit form, with removable singularities at omega t = 2 pi k.
    s, c = math.sin(omega * t), math.cos(omega * t)
    denom = 2.0 * chi * (1.0 - chi) * (1.0 - c) + chi * chi * s * s
    return chi * chi * omega * omega * s * s / denom


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
            if weight < 1e-12:
                continue
            diff = lam[k] - lam[l]
            total += 2.0 * diff * diff / weight * abs(h_in_eig[k, l]) ** 2
    return total


def _qfi_pure(amplitudes: np.ndarray, energies: np.ndarray) -> float:
    # The first-principles route: 4 Var(H) over the probe state's |a|^2.
    weights = np.abs(amplitudes) ** 2
    mean = float(np.dot(weights, energies))
    second = float(np.dot(weights, energies * energies))
    return 4.0 * (second - mean * mean)


def test_one_qubit_chi_one_fisher_is_constant():
    for omega in (0.5, 1.0, 2.0):
        model = OneQubitClock(omega=omega)
        for t in (0.3, 1.0, 2.4, 5.1):
            assert classical_fisher(model, t).value == pytest.approx(omega**2, rel=1e-9)


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
    # Random one-qubit clocks plus two-qubit (Omega / omega = 2 and 2.6) and
    # GHZ (n = 2..5) models, at interior times where every class
    # probability stays away from zero.
    rng = np.random.default_rng(31)
    models = [
        OneQubitClock(omega=float(rng.uniform(0.3, 2.5)), chi=float(rng.uniform(0.05, 1.0)))
        for _ in range(200)
    ]
    models += [TwoQubitClock(omega=w, Omega=r * w) for r in (2.0, 2.6) for w in (0.4, 1.0, 2.3)]
    models += [GhzClock(omega=w, n_entangled=n) for n in range(2, 6) for w in (0.4, 1.0, 2.3)]
    checked = 0
    for model in models:
        for t in rng.uniform(0.05, 0.95, size=3) * model.window_top:
            t = float(t)
            if min(m * float(p) for m, p in zip(model.class_sizes, model.class_probs(t))) < 0.01:
                continue
            numeric = _fd_fisher(model, t)
            report = classical_fisher(model, t)
            assert not report.degenerate
            assert numeric == pytest.approx(report.value, rel=1e-5), (model, t)
            checked += 1
    assert checked > 400


def test_closed_form_matches_full_angle_form():
    # Away from omega t = 2 pi k, where the full-angle form is 0 / 0.
    rng = np.random.default_rng(35)
    for _ in range(2000):
        chi = float(rng.uniform(0.0, 1.0))
        omega = float(rng.uniform(0.1, 3.0))
        t = float(rng.uniform(0.0, 30.0))
        if abs(math.remainder(omega * t, 2.0 * math.pi)) < 0.05:
            continue
        value = fisher_one_qubit_analytic(chi, omega, t).value
        expected = _fisher_full_angle(chi, omega, t)
        assert abs(value - expected) <= 1e-12 * chi * omega * omega


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
    for n in (2, 3, 5):
        ghz = quantum_fisher(GhzClock(omega=1.0, n_entangled=n), 0.4)
        assert ghz.value == pytest.approx(float(n * n))


def test_quantum_fisher_closed_forms_match_energy_variance():
    models = [OneQubitClock(omega=w, chi=chi) for chi in (0.0, 0.36, 1.0) for w in (0.4, 1.0, 2.3)]
    models += [TwoQubitClock(omega=w, Omega=r * w) for r in (2.0, 2.6) for w in (0.4, 1.0, 2.3)]
    models += [GhzClock(omega=w, n_entangled=n) for n in range(2, 7) for w in (0.4, 1.0, 2.3)]
    for model in models:
        expected = _qfi_pure(*model.probe()[:2])
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
            state = evolve(*model.probe()[:2], at)
            amps = basis.conj().T @ state
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
        energies = rng.normal(scale=2.0, size=dim)
        pure = _qfi_pure(amps, energies)
        spectral = _qfi_spectral(np.outer(amps, amps.conj()), np.diag(energies).astype(complex))
        assert spectral == pytest.approx(pure, abs=1e-8)


def test_degenerate_time_flagging():
    # Near the start the Fisher information is finite and the bound holds.
    report = classical_fisher(OneQubitClock(omega=1.0), 1e-7)
    assert report.value == pytest.approx(1.0, rel=1e-12)
    assert not report.degenerate
    assert report.crb(100) == pytest.approx(0.1, rel=1e-12)
    # At t = 0 the value is still exact, but the estimator is pinned to the
    # window edge: no Cramer-Rao bound.
    at_zero = classical_fisher(OneQubitClock(omega=1.0), 0.0)
    assert at_zero.value == 1.0
    assert at_zero.degenerate
    with pytest.raises(DegenerateTimeError):
        at_zero.crb(100)


def test_overflowed_phase_is_named():
    # omega t = 1e310 overflows to inf; the error names the phase, not cos().
    for call in (
        lambda: classical_fisher(OneQubitClock(omega=1e10), 1e300),
        lambda: fisher_one_qubit_analytic(0.5, 1e10, -1e300),
    ):
        with pytest.raises(ValueError, match="phase omega t overflows"):
            call()
    assert classical_fisher(OneQubitClock(omega=1e-10), 1e300).value >= 0.0


@pytest.mark.parametrize(
    "model, t",
    [
        (OneQubitClock(omega=1e200), 1.0),
        (OneQubitClock(omega=1e200, chi=0.0), 1.0),
        (GhzClock(omega=1e200, n_entangled=3), 1e-200),
        (GhzClock(omega=1e307, n_entangled=16), 1e-310),
        (TwoQubitClock(omega=1e200, Omega=1e200), 1e-200),
        (TwoQubitClock(omega=1.3e154, Omega=1.35e154), 1e-154),
    ],
    ids=["one-qubit", "one-qubit-chi0", "ghz", "ghz-n-omega", "two-qubit", "two-qubit-sum"],
)
def test_overflowed_fisher_information_is_named(model, t):
    # The frequency squared overflows: ** raises OverflowError past about
    # 1.3e154, or n omega overflows to inf; each is named. In the two-qubit
    # sum, halving each square cannot save a term that overflows by itself,
    # even beside a finite term at the top of the range.
    for call in (lambda: model.qfi, lambda: quantum_fisher(model, t), lambda: model.cfi(t),
                 lambda: classical_fisher(model, t)):
        with pytest.raises(ValueError, match="Fisher information overflows"):
            call()


def test_largest_frequencies_keep_finite_fisher_information():
    assert OneQubitClock(omega=1e154).qfi == 1e154**2
    assert TwoQubitClock(omega=1e153, Omega=1e154).qfi == 0.5 * (1e153**2 + 1e154**2)
    # Each square is halved before the sum, so a finite value near the top
    # of the float range does not overflow on the way.
    assert TwoQubitClock(omega=1.3e154, Omega=1.3e154).qfi == 1.3e154**2
    assert GhzClock(omega=1e153, n_entangled=10).qfi == 1e154**2


MODELS = (
    OneQubitClock(omega=1.0),
    OneQubitClock(omega=0.7, chi=0.36),
    TwoQubitClock(omega=0.5, Omega=1.0),
    TwoQubitClock(omega=0.5, Omega=1.3),
    GhzClock(omega=1.0, n_entangled=2),
    GhzClock(omega=0.8, n_entangled=3),
)


@pytest.mark.parametrize("model", MODELS, ids=repr)
def test_window_edges_are_degenerate(model):
    top = model.window_top
    # Within the relative tolerance of a multiple, up to the largest grid end
    # a sweep accepts.
    for t in (0.0, top, 2.0 * top, -top, top * (1.0 + WINDOW_RTOL), 3.0 * top * (1.0 - 0.5e-12)):
        report = classical_fisher(model, t)
        assert report.degenerate, t
        assert report.value == pytest.approx(model.cfi(t), rel=1e-15)
        with pytest.raises(DegenerateTimeError):
            report.crb(10)
    for t in (1e-7, top * (1.0 - 1e-9), top * (1.0 + 1e-11), 1.5 * top):
        report = classical_fisher(model, t)
        assert not report.degenerate, t
        assert report.crb(10) > 0.0


def test_one_qubit_partial_visibility_near_zero():
    # chi omega^2, not zero: the removable 0 / 0 of the full-angle form.
    report = classical_fisher(OneQubitClock(omega=1.0, chi=0.36), 1e-9)
    assert report.value == pytest.approx(0.36, rel=1e-12)
    assert not report.degenerate


def test_each_design_just_after_zero():
    # An outcome is nearly absent, but the Fisher information stays finite.
    for model, expected in (
        (OneQubitClock(omega=1.0), 1.0),
        (TwoQubitClock(omega=0.5, Omega=1.0), 0.625),
        (GhzClock(omega=1.0, n_entangled=2), 4.0),
    ):
        report = classical_fisher(model, 1e-7)
        assert report.value == pytest.approx(expected, rel=1e-12)
        assert not report.degenerate


def test_non_harmonic_pair_at_window_top():
    # The fast sector's '+' outcome is nearly absent at and just inside
    # the top; the value is (omega^2 + Omega^2) / 2 there as everywhere.
    pair = TwoQubitClock(omega=0.5, Omega=1.3)
    for t in (math.pi / 0.5, math.pi / 0.5 * (1.0 - 1e-9)):
        assert classical_fisher(pair, t).value == pytest.approx(0.97, rel=1e-12)


def test_ghz_near_window_top():
    ghz = GhzClock(omega=0.8, n_entangled=2)
    for t in ghz.window_top - np.linspace(0.0, 2e-4, 2000):
        assert abs(classical_fisher(ghz, float(t)).value - 2.56) <= 1e-12


def test_cfi_never_exceeds_qfi():
    rng = np.random.default_rng(36)
    for _ in range(500):
        model = OneQubitClock(omega=float(rng.uniform(0.1, 3.0)), chi=float(rng.uniform(0.0, 1.0)))
        t = float(rng.uniform(-10.0, 10.0))
        assert 0.0 <= model.cfi(t) <= model.qfi * (1.0 + 1e-12)


def test_step_parameter_is_gone():
    with pytest.raises(TypeError):
        classical_fisher(OneQubitClock(omega=1.0), 1.0, step=1e-6)


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
    # Past the largest float n_probes cannot be converted; below it the
    # product n_probes * F can still overflow. Both raise a ValueError that
    # names n_probes, not an OverflowError or a bound of 0.
    for n in (10**400, 2**1024):
        with pytest.raises(ValueError, match=r"^n_probes must be at most 1\.79"):
            report.crb(n)
    assert report.crb(10**300) == 1.0 / math.sqrt(10**300 * report.value)
    huge = classical_fisher(OneQubitClock(omega=1e150), 1e-160)
    assert huge.value > 1e299
    with pytest.raises(ValueError, match=r"^n_probes \* information overflows: 10{10} \* "):
        huge.crb(10**10)
    assert huge.crb(10**8) > 0.0
