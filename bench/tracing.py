"""Outside-in tracing of qclock's public functions.

Each traced name is replaced, in every qclock module namespace that binds it,
by a wrapper that records a span: metric name, start, end, parent span and the
id of the request it belongs to. Wrapping where the name is looked up means a
call from montecarlo to ``sample_counts`` is seen without touching qclock's
source. Spans are kept in flat arrays in memory; per-layer statistics are
computed from them when the traced pass ends. A span's self time is its
duration minus the durations of its child spans.

A traced name that no longer exists is reported as absent and its metrics
read zero, so a refactor that deletes a function does not break the run.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (defining module, attribute, metric prefix). Several attributes may feed
# one metric: the three closed-form distributions are one layer.
TRACED = (
    ("qclock.cli", "main", "cli.main"),
    ("qclock.montecarlo", "error_curve", "montecarlo.error_curve"),
    ("qclock.montecarlo", "mean_estimator_curve", "montecarlo.mean_estimator_curve"),
    ("qclock.montecarlo", "compare_resources", "montecarlo.compare_resources"),
    ("qclock.montecarlo", "trial_rng", "montecarlo.trial_rng"),
    ("qclock.montecarlo", "sample_counts", "montecarlo.sample_counts"),
    ("qclock.montecarlo", "apply_estimator", "montecarlo.apply_estimator"),
    ("qclock.estimators", "combined_estimator", "estimators.combined_estimator"),
    ("qclock.estimators", "coarse_estimator", "estimators.coarse_estimator"),
    ("qclock.estimators", "mle_one_qubit", "estimators.mle_one_qubit"),
    ("qclock.estimators", "mle_ghz", "estimators.mle_ghz"),
    ("qclock.estimators", "mle_numeric", "estimators.mle_numeric"),
    ("qclock.estimators", "log_likelihood", "estimators.log_likelihood"),
    ("qclock.counts", "reduce_counts", "counts.reduce_counts"),
    ("qclock.clocks", "one_qubit_distribution", "clocks.distribution"),
    ("qclock.clocks", "two_qubit_distribution", "clocks.distribution"),
    ("qclock.clocks", "ghz_distribution", "clocks.distribution"),
    ("qclock.clocks", "n_probe_count_distribution", "clocks.n_probe_count_distribution"),
    ("qclock.clocks", "recurrence_time", "clocks.recurrence_time"),
    ("qclock.states", "OutcomeDistribution", "states.OutcomeDistribution"),
    ("qclock.states", "evolve", "states.evolve"),
    ("qclock.fisher", "classical_fisher", "fisher.classical_fisher"),
    ("qclock.fisher", "quantum_fisher", "fisher.quantum_fisher"),
)

# Counters taken from a traced call's result: valid estimates among all
# estimator applications, and count vectors produced by enumeration.
RESULT_TALLIES = {
    "montecarlo.apply_estimator": ("montecarlo.valid_estimates", lambda r: int(r.valid)),
    "clocks.n_probe_count_distribution": ("clocks.count_vectors_enumerated", len),
}


class Tracer:
    """Span recorder that installs itself into the qclock module namespaces."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.group = array("i")
        self.start = array("d")
        self.end = array("d")
        self.request = 0
        self.tallies: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, metric: str) -> int:
        if metric not in self._ids:
            self._ids[metric] = len(self.names)
            self.names.append(metric)
        return self._ids[metric]

    def wrap(self, fn, metric: str):
        nid = self._id(metric)
        name, parent, group, start, end = self.name, self.parent, self.group, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        tally = RESULT_TALLIES.get(metric)
        tracer = self

        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            group.append(tracer.request)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if tally is not None:
                key, count = tally
                tracer.tallies[key] = tracer.tallies.get(key, 0) + count(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", metric)
        return traced

    def install(self) -> None:
        """Wrap every traced name in each qclock namespace that binds it.

        Classes are wrapped only in the modules that call them, so
        isinstance checks against the defining module keep working.
        """
        modules = [m for key, m in sorted(sys.modules.items()) if key.split(".")[0] == "qclock"]
        for module_name, attr, metric in TRACED:
            self._id(metric)
            home = sys.modules.get(module_name)
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(original, metric)
            for module in modules:
                if vars(module).get(attr) is not original:
                    continue
                if isinstance(original, type) and module.__name__ in (module_name, "qclock"):
                    continue
                setattr(module, attr, wrapper)
                self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "group": np.frombuffer(self.group, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        """Write the spans as a numpy archive; names index the ``names`` array."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: calls, busy_s (inclusive) and self_s of every
        traced name, and the counters derived from the spans and results."""
        spans = self.arrays()
        names, parent = spans["name"], spans["parent"]
        duration = spans["end"] - spans["start"]
        child = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        size = len(self.names)
        calls = np.bincount(names, minlength=size)
        busy = np.bincount(names, weights=duration, minlength=size)
        own = np.bincount(names, weights=duration - child, minlength=size)
        metrics = {}
        for i, layer in enumerate(self.names):
            metrics[f"{layer}.calls"] = int(calls[i])
            metrics[f"{layer}.busy_s"] = float(busy[i])
            metrics[f"{layer}.self_s"] = float(own[i])
        ll, numeric = self._ids["estimators.log_likelihood"], self._ids["estimators.mle_numeric"]
        inside = nested & (names == ll)
        inside[inside] = names[parent[inside]] == numeric
        metrics["estimators.ll_evals_per_numeric"] = float(inside.sum()) / max(int(calls[numeric]), 1)
        estimates = metrics["montecarlo.apply_estimator.calls"]
        valid = self.tallies.get("montecarlo.valid_estimates", 0)
        metrics["montecarlo.valid_ratio"] = valid / estimates if estimates else 0.0
        enumerated = "clocks.count_vectors_enumerated"
        metrics[enumerated] = self.tallies.get(enumerated, 0)
        metrics["trace.absent_names"] = len(self.absent)
        return metrics
