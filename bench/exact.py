"""Exact estimator moments by enumerating count vectors.

The benchmark's oracles for sampled cells. For a clock, a probe count n, a
grid time t and an estimator, the count space is enumerated with its
probabilities and the estimator is applied to every vector, giving the exact
probability that a trial yields a valid estimate and the exact mean, variance
and fourth central moment of the valid estimates. A sampled cell must then lie
within a few standard errors of these, whatever RNG stream layout produced it.

Model specs are plain tuples, so the benchmark's inputs do not depend on the
code under test: ("one-qubit", omega, chi), ("two-qubit", omega, Omega) and
("ghz", omega, n_entangled).
"""

from __future__ import annotations

import math

import numpy as np


def outcome_probs(spec, t):
    """Outcome probabilities in the tally order of the model's count vector.

    one-qubit: (k_minus, k_plus); two-qubit: (fast_minus, fast_plus,
    slow_minus, slow_plus); ghz: (k_odd, k_even). t may be an array.
    """
    kind, omega, extra = spec
    if kind == "one-qubit":
        p = extra * np.sin(0.5 * omega * t) ** 2
        return (p, 1.0 - p)
    if kind == "two-qubit":
        fast = np.sin(0.5 * extra * t) ** 2
        slow = np.sin(0.5 * omega * t) ** 2
        return (0.5 * fast, 0.5 * (1.0 - fast), 0.5 * slow, 0.5 * (1.0 - slow))
    p_odd = np.sin(0.5 * extra * omega * t) ** 2
    return (p_odd, 1.0 - p_odd)


def window_top(spec) -> float:
    kind, omega, extra = spec
    return math.pi / (extra * omega) if kind == "ghz" else math.pi / omega


def fisher_closed_form(spec, t: float) -> float:
    """Classical Fisher information of the readout, from the paper's closed forms."""
    kind, omega, extra = spec
    if kind == "two-qubit":
        return 0.5 * (omega * omega + extra * extra)
    if kind == "ghz":
        return (extra * omega) ** 2
    chi = extra
    if chi == 1.0:
        return omega * omega
    s, c = math.sin(omega * t), math.cos(omega * t)
    return chi * chi * omega * omega * s * s / (
        2.0 * chi * (1.0 - chi) * (1.0 - c) + chi * chi * s * s
    )


def quantum_fisher_closed_form(spec) -> float:
    """Four times the energy variance of the probe state, constant in t."""
    kind, omega, extra = spec
    if kind == "two-qubit":
        return 0.5 * (omega * omega + extra * extra)
    if kind == "ghz":
        return (extra * omega) ** 2
    return extra * omega * omega


def tallies(n: int, k: int):
    """Every way to split n probes over k outcomes, as tuples."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in tallies(n - first, k - 1):
            yield (first, *rest)


def multinomial_pmf(ks: tuple[int, ...], probs: tuple[float, ...]) -> float:
    """Multinomial probability, in log space so large n cannot overflow."""
    log_p = math.lgamma(sum(ks) + 1)
    for k, p in zip(ks, probs):
        if k:
            if p <= 0.0:
                return 0.0
            log_p += k * math.log(p) - math.lgamma(k + 1)
    return math.exp(log_p)


class Moments:
    """Weighted moments of estimates, accumulated about the true time t."""

    def __init__(self, t: float):
        self.t = t
        self.mass = 0.0
        self.sums = [0.0, 0.0, 0.0, 0.0]
        self.count = 0

    def add(self, weight: float, t_hat: float) -> None:
        d = t_hat - self.t
        self.mass += weight
        self.count += 1
        power = weight
        for i in range(4):
            power *= d
            self.sums[i] += power

    def summary(self) -> dict:
        """mass, mean, var and mu4 (fourth central moment) of the valid estimates."""
        if self.mass == 0.0:
            return {"mass": 0.0, "mean": math.nan, "var": math.nan, "mu4": math.nan, "count": 0}
        m1, m2, m3, m4 = (s / self.mass for s in self.sums)
        var = max(m2 - m1 * m1, 0.0)
        mu4 = max(m4 - 4 * m3 * m1 + 6 * m2 * m1 * m1 - 3 * m1**4, 0.0)
        return {
            "mass": self.mass,
            "mean": self.t + m1,
            "var": var,
            "mu4": mu4,
            "count": self.count,
        }


def count_vector(qc, spec, ks: tuple[int, ...]):
    """The qclock count vector for a tally tuple in outcome_probs order."""
    kind = spec[0]
    if kind == "one-qubit":
        return qc.OneQubitCounts(sum(ks), ks[0])
    if kind == "two-qubit":
        return qc.TwoQubitCounts(*ks)
    return qc.GhzCounts(sum(ks), ks[0])


def make_model(qc, spec):
    kind, omega, extra = spec
    if kind == "one-qubit":
        return qc.OneQubitClock(omega=omega, chi=extra)
    if kind == "two-qubit":
        return qc.TwoQubitClock(omega=omega, Omega=extra)
    return qc.GhzClock(omega=omega, n_entangled=extra)


def chernoff_limit(weights: np.ndarray, values: np.ndarray, n: int, tail: float) -> float:
    """A limit the sum of n independent draws of `values` (with probabilities
    `weights`) exceeds with probability at most `tail`, by the Chernoff bound
    computed from the exact distribution.

    P(sum >= a) <= exp(-(lam a - n log E[exp(lam X)])) for every lam >= 0; the
    tilted mean a(lam) and that exponent both grow with lam, so bisect for the
    lam whose exponent is -log(tail). Unlike a normal approximation, this
    allows for rare large values, such as estimates on the wrong branch.
    """
    log_w = np.log(weights / weights.sum())
    target = -math.log(tail)

    def tilted(lam: float) -> tuple[float, float]:
        e = log_w + lam * values
        top = float(e.max())
        q = np.exp(e - top)
        total = float(q.sum())
        a = n * float(q @ values) / total
        return a, lam * a - n * (top + math.log(total))

    lo, hi = 0.0, 1.0
    while tilted(hi)[1] < target:
        lo, hi = hi, 2.0 * hi
        if hi > 1e12:  # the whole support is this likely: no finite limit helps
            return n * float(values.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if tilted(mid)[1] < target else (lo, mid)
    return tilted(hi)[0]


def estimator_moments(qc, spec, n: int, t: float, estimator: str,
                      trials: int | None = None, tail: float = 1e-9) -> dict:
    """Exact moments of qclock's estimator over the whole count space.

    Count vectors whose estimate raises on degenerate counts or is flagged
    invalid are left out and lower the mass, as a sampled cell drops them.
    With `trials`, also "sum_sq_limit": a limit that the sum of squared
    deviations from the exact mean over `trials` valid estimates exceeds with
    probability at most `tail` (see chernoff_limit).
    """
    model = make_model(qc, spec)
    kind = qc.EstimatorKind(estimator)
    probs = tuple(float(p) for p in outcome_probs(spec, t))
    acc = Moments(float(t))
    weights, estimates = [], []
    for ks in tallies(n, len(probs)):
        weight = multinomial_pmf(ks, probs)
        if weight == 0.0:
            continue
        try:
            report = qc.apply_estimator(model, count_vector(qc, spec, ks), kind)
        except qc.DegenerateCountsError:
            continue
        if report.valid:
            acc.add(weight, report.t_hat)
            weights.append(weight)
            estimates.append(report.t_hat)
    summary = acc.summary()
    if trials is not None and weights:
        deviations = (np.array(estimates) - summary["mean"]) ** 2
        summary["sum_sq_limit"] = chernoff_limit(np.array(weights), deviations, trials, tail)
    return summary
