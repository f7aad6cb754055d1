"""Fisher information and precision bounds for the clock readouts.

The classical Fisher information of the outcome statistics at time t is

    F(t) = sum_x  (dP_x/dt)^2 / P_x(t),

which each design gives in closed form (``cfi``). The quantum Fisher
information bounds the classical one over all readouts and is four times
the energy variance of the probe state (``qfi``). The standard
deviation of any unbiased estimator from n independent probes obeys the
Cramer-Rao bound  Delta t >= 1 / sqrt(n F(t)), undefined at a whole
multiple of the window top (see ``classical_fisher``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .clocks import WINDOW_RTOL, ClockModel, OneQubitClock, _check_time
from .counts import _positive_integer


class FisherKind(enum.Enum):
    CLASSICAL = "classical"
    QUANTUM = "quantum"


class DegenerateTimeError(ValueError):
    """No Cramer-Rao bound exists at this time: it is a window edge, or the
    Fisher information vanishes there."""


@dataclass(frozen=True)
class FisherReport:
    """Fisher information at a single time, with its provenance.

    value is always the exact, finite Fisher information; degenerate marks a
    window edge, where ``crb`` raises all the same.
    """

    value: float
    kind: FisherKind
    t: float
    degenerate: bool = False

    def crb(self, n_probes: int) -> float:
        """Cramer-Rao lower bound on Delta t from n independent probes."""
        n_probes = _positive_integer(n_probes, "n_probes")
        if self.degenerate or self.value <= 0.0:
            why = "a window edge" if self.degenerate else "zero Fisher information"
            raise DegenerateTimeError(f"no finite Cramer-Rao bound at t = {self.t}: {why}")
        return 1.0 / math.sqrt(n_probes * self.value)


def classical_fisher(model: ClockModel, t: float) -> FisherReport:
    """Classical Fisher information of the readout statistics at time t.

    The value is the model's closed form ``cfi(t)``. The report is flagged
    degenerate exactly where t is a whole multiple of ``window_top``, 0
    included, to the relative tolerance WINDOW_RTOL by which a sweep grid
    may pass the top (beyond |t| = window_top / (2 WINDOW_RTOL) every time
    is that close to a multiple). At 0 and at the top the estimator is
    pinned to its window, so no unbiased estimator exists; at the multiples
    the one-qubit, GHZ and Omega = 2 omega statistics fold, P(t0 + d) =
    P(t0 - d).
    """
    t = _check_time(t)
    # The nearest whole multiple of the top; t / window_top may overflow.
    multiple = abs(t) - math.remainder(abs(t), model.window_top)
    edge = multiple * (1.0 - WINDOW_RTOL) <= abs(t) <= multiple * (1.0 + WINDOW_RTOL)
    return FisherReport(model.cfi(t), FisherKind.CLASSICAL, t, degenerate=edge)


def fisher_one_qubit_analytic(chi: float, omega: float, t: float) -> FisherReport:
    """``OneQubitClock(omega, chi).cfi(t)``, not flagged at window edges.

    The paper's full-angle form chi^2 omega^2 sin^2(omega t) / [2 chi (1 -
    chi)(1 - cos omega t) + chi^2 sin^2(omega t)] has removable singularities
    at omega t = 2 pi k; this half-angle form has none.
    """
    clock = OneQubitClock(omega=omega, chi=chi)  # validates parameters
    t = _check_time(t)
    return FisherReport(clock.cfi(t), FisherKind.CLASSICAL, t)


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
