"""Fisher information and precision bounds for the clock readouts.

The classical Fisher information of the outcome statistics at time t is

    F(t) = sum_x  (dP_x/dt)^2 / P_x(t),

computed here by central differences on the model's class probabilities.
``fisher_one_qubit_analytic`` carries the closed form for the single-qubit
clock; the quantum Fisher information bounds the classical one over all
readouts and is four times the energy variance of the probe state. The standard
deviation of any unbiased estimator from n independent probes obeys the
Cramer-Rao bound  Delta t >= 1 / sqrt(n F(t)).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .clocks import ClockModel, OneQubitClock, _check_time
from .counts import is_integer

# Central-difference step for dP/dt; probabilities are smooth order-one
# trigonometric functions, so this balances truncation and rounding error.
FD_STEP = 1e-6

# An outcome is treated as absent when its probability is below this and its
# time derivative is negligible too; a vanishing probability with a
# non-vanishing derivative makes F(t) diverge and is flagged instead.
PROB_FLOOR = 1e-12
DERIV_FLOOR = 1e-9


class FisherKind(enum.Enum):
    CLASSICAL = "classical"
    QUANTUM = "quantum"


class DegenerateTimeError(ValueError):
    """The Fisher information diverges or vanishes identically at this time."""


@dataclass(frozen=True)
class FisherReport:
    """Fisher information at a single time, with its provenance."""

    value: float
    kind: FisherKind
    t: float
    degenerate: bool = False

    def crb(self, n_probes: int) -> float:
        """Cramer-Rao lower bound on Delta t from n independent probes."""
        if not is_integer(n_probes) or n_probes < 1:
            raise ValueError(f"n_probes must be a positive integer, got {n_probes!r}")
        if self.degenerate or self.value <= 0.0:
            raise DegenerateTimeError(
                f"no finite Cramer-Rao bound at t = {self.t}: "
                f"Fisher information is {'degenerate' if self.degenerate else 'zero'}"
            )
        return 1.0 / math.sqrt(n_probes * self.value)


def classical_fisher(model: ClockModel, t: float, step: float = FD_STEP) -> FisherReport:
    """Classical Fisher information of the readout statistics at time t.

    Derivatives come from central differences with the given step, taken on
    the class probabilities at (t - step, t, t + step) in one evaluation;
    each class counts once per outcome it holds. Outcomes whose probability
    and derivative both vanish are dropped (they carry no information); an
    outcome with vanishing probability but finite derivative marks a
    divergence and the report is flagged degenerate with value inf.
    """
    t = _check_time(t)
    total = 0.0
    classes = model.class_probs(np.array([t - step, t, t + step]))
    for m, (minus, p, plus) in zip(model.class_sizes, (q.tolist() for q in classes)):
        dp = (plus - minus) / (2.0 * step)
        if p < PROB_FLOOR:
            if abs(dp) < DERIV_FLOOR:
                continue
            return FisherReport(math.inf, FisherKind.CLASSICAL, t, degenerate=True)
        total += m * (dp * dp / p)
    return FisherReport(total, FisherKind.CLASSICAL, t)


def fisher_one_qubit_analytic(chi: float, omega: float, t: float) -> FisherReport:
    """Closed-form classical Fisher information of the one-qubit clock.

        F(t) = chi^2 omega^2 sin^2(omega t)
               / [2 chi (1 - chi) (1 - cos omega t) + chi^2 sin^2(omega t)]

    At chi = 1 this is identically omega^2; at chi = 0 the statistics carry
    no time dependence and F = 0. The formula has removable singularities at
    omega t = 2 pi k, where the exact limit is chi omega^2.
    """
    clock = OneQubitClock(omega=omega, chi=chi)  # validates parameters
    chi, omega, t = clock.chi, clock.omega, _check_time(t)
    if chi == 0.0:
        return FisherReport(0.0, FisherKind.CLASSICAL, t)
    if chi == 1.0:
        return FisherReport(omega * omega, FisherKind.CLASSICAL, t)
    s = math.sin(omega * t)
    c = math.cos(omega * t)
    denom = 2.0 * chi * (1.0 - chi) * (1.0 - c) + chi * chi * s * s
    if denom < PROB_FLOOR:
        # omega t at a multiple of 2 pi: take the exact limit chi omega^2.
        return FisherReport(chi * omega * omega, FisherKind.CLASSICAL, t)
    value = chi * chi * omega * omega * s * s / denom
    return FisherReport(value, FisherKind.CLASSICAL, t)


def quantum_fisher(model: ClockModel, t: float) -> FisherReport:
    """Quantum Fisher information of the evolved probe state at time t.

    For the pure states produced here this is 4 times the energy variance,
    constant in t: evolution under a diagonal Hamiltonian only changes the
    phases of the amplitudes. Each design gives it in closed form (``qfi``).
    """
    return FisherReport(model.qfi, FisherKind.QUANTUM, _check_time(t))


def crb(model: ClockModel, t: float, n_probes: int) -> float:
    """Cramer-Rao bound on Delta t at time t from n independent probes."""
    return classical_fisher(model, t).crb(n_probes)
