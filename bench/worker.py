"""One workload in one fresh process: set up, time, trace, check.

Started by run.py, never by hand. Prints ``ready`` once its inputs are built,
so the parent can time set-up from process start; with --setup-only it exits
there. Otherwise it runs the timed passes in the slices the parent asks for on
standard input, printing ``done`` after each (or, with --trace 1, an untraced,
a traced and an untraced pass), checks every answer, and writes its result as
JSON to ``<workdir>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

import workloads
from tracing import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
clock = time.perf_counter

# Share of a run's passes the end-to-end metrics are computed over: the
# fastest ones. On a shared machine other tenants slow a varying share of the
# passes by up to 2x; the fastest passes repeat from run to run, the median
# pass does not.
FAST_SHARE = 0.02


def run_pass(ops, tracer=None):
    """Run every operation once, in order; returns wall time, latencies, results, errors."""
    latencies, results, errors = [], [], {}
    start = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.request = i
        t0 = clock()
        try:
            results.append(op.call())
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append(None)
            errors[i] = f"{op.label}: {exc!r}"
        latencies.append(clock() - t0)
    return clock() - start, latencies, results, errors


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


class Checker:
    """Checks each operation's first answer against its oracle and every later
    answer against the first, so a pass counts as failed where its output
    differs from a checked one."""

    def __init__(self, qc, ops, sweep: bool):
        self.qc, self.ops, self.sweep = qc, ops, sweep
        self.reference = workloads.load_reference() if sweep else None
        self.first: dict[int, str] = {}
        self.answers: dict[int, object] = {}
        self.problems: dict[int, list[str]] = {}
        self.hashes: dict[str, str] = {}

    def answer(self, op, result):
        if not self.sweep:
            return workloads.answer_of(result)
        return {path: path.read_bytes() for path in op.outputs}

    def fingerprint(self, answer) -> str:
        if self.sweep:
            return "".join(hashlib.sha256(data).hexdigest() for data in answer.values())
        return repr(answer)

    def record(self, results, errors) -> set[int]:
        """Take one pass's answers; returns the operations that failed in it."""
        failed = set(errors)
        for i, (op, result) in enumerate(zip(self.ops, results)):
            if i in errors:
                self.problems.setdefault(i, []).append(errors[i])
                continue
            answer = self.answer(op, result)
            mark = self.fingerprint(answer)
            if i not in self.first:
                self.first[i], self.answers[i] = mark, answer
                if self.sweep:
                    for path, data in answer.items():
                        self.hashes[path.name] = hashlib.sha256(data).hexdigest()
            elif mark != self.first[i]:
                self.problems.setdefault(i, []).append(f"{op.label}: output changed between passes")
                failed.add(i)
        return failed

    def verify(self) -> set[int]:
        """Run the oracles on the first answers; returns the failing operations."""
        for i, answer in self.answers.items():
            op = self.ops[i]
            try:
                if self.sweep:
                    found = workloads.check_outputs(op, answer, self.reference)
                else:
                    found = workloads.check_request(self.qc, op.request, answer)
            except Exception as exc:  # malformed output fails its operation
                found = [f"{op.label}: check raised {exc!r}"]
            if found:
                self.problems.setdefault(i, []).extend(found)
        return {i for i in self.answers if i in self.problems}


def timed_run(ops, checker: Checker, slices, sweep: bool) -> dict:
    """Timed passes, in slices whose lengths in seconds arrive one per line on
    `slices`; metrics over the fastest FAST_SHARE of all passes."""
    if not sweep:
        # One untimed pass lets lazy initialisation finish before timing.
        checker.record(*run_pass(ops)[2:])
    passes, failures = [], []
    for line in slices:
        seconds, begin, done = float(line), clock(), 0
        while True:
            duration, latencies, results, errors = run_pass(ops)
            # Compact, so the kept latencies barely add to the measured peak RSS.
            passes.append((duration, array("d", latencies)))
            failures.append(checker.record(results, errors))
            done += 1
            if clock() - begin + 0.5 * (clock() - begin) / done >= seconds:
                break
        print("done", flush=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bad = checker.verify()
    units = sum(op.units for op in ops)
    fastest = sorted(passes, key=lambda p: p[0])[: max(1, round(FAST_SHARE * len(passes)))]
    latencies = [x for _, lat in fastest for x in lat]
    return {
        "attempted": len(passes) * len(ops),
        "failed": sum(len(f | bad) for f in failures),
        "metrics": {
            "throughput": len(fastest) * units / sum(d for d, _ in fastest),
            "req_ms.p50": 1e3 * statistics.median(latencies),
            "req_ms.p99": 1e3 * percentile(latencies, 0.99),
            "peak_rss_mb": rss_mb,
        },
        "info": {"passes": len(passes), "fastest": len(fastest), "requests": len(latencies),
                 "units_per_pass": units, "pass_s": [d for d, _ in passes]},
    }


def traced_run(ops, checker: Checker, spans: str | None) -> dict:
    """An untraced, a traced and an untraced pass; the overhead is the traced
    pass minus the mean of the two untraced ones, which cancels a steady drift
    in machine speed."""
    before, _, results, errors = run_pass(ops)
    failures = [checker.record(results, errors)]
    tracer = Tracer()
    tracer.install()
    try:
        traced, _, results, errors = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    failures.append(checker.record(results, errors))
    after, _, results, errors = run_pass(ops)
    failures.append(checker.record(results, errors))
    plain = 0.5 * (before + after)
    bad = checker.verify()
    if spans:
        tracer.save(spans)
    metrics = tracer.metrics()
    written = [path for op in ops for path in op.outputs]
    written += [Path(f"{op.outputs[0]}.manifest.json") for op in ops if op.outputs]
    metrics["cli.bytes_written"] = sum(path.stat().st_size for path in written if path.is_file())
    metrics["trace.overhead_s"] = traced - plain
    return {
        "attempted": 3 * len(ops),
        "failed": sum(len(f | bad) for f in failures),
        "metrics": metrics,
        "info": {"untraced_s": plain, "traced_s": traced, "spans": len(tracer.name),
                 "absent": tracer.absent},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    import qclock
    import qclock.cli

    if not Path(qclock.__file__).resolve().is_relative_to(SRC):
        print(f"worker: qclock imported from {qclock.__file__}, not {SRC}", file=sys.stderr)
        return 2
    sweep = args.workload.startswith("sweep")
    if sweep:
        ops = workloads.sweep_ops(qclock, args.workload, args.seed, args.workdir)
    else:
        ops = workloads.analysis_ops(qclock, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    checker = Checker(qclock, ops, sweep)
    if args.trace:
        result = traced_run(ops, checker, args.spans)
    else:
        result = timed_run(ops, checker, sys.stdin, sweep)
    result["problems"] = [p for i in sorted(checker.problems) for p in checker.problems[i]][:20]
    result["info"].update({
        "qclock_file": qclock.__file__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "outputs_sha256": checker.hashes,
    })
    (args.workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
