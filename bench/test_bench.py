"""Smoke tests of the benchmark itself.

    python3 -m pytest bench

Kept out of the package's own test suite (pyproject's testpaths), which stays
fast; these start worker processes and take a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_analysis_reports_every_declared_metric(trace, section, tmp_path):
    spans = tmp_path / "spans.npz"
    out = run_bench("--workload", "analysis", "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--spans", str(spans))
    assert out.returncode == 0, out.stderr
    result = last_json(out.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1000
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(m["unit"] == units[name] for name, m in result["metrics"].items())
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["trace.absent_names"] == 0
        assert metrics["clocks.count_vectors_enumerated"] > 0
        assert metrics["estimators.ll_evals_per_numeric"] > 1
        assert metrics["fisher.classical_fisher.calls"] > 0
        with np.load(spans) as saved:
            assert len(saved["start"]) == len(saved["parent"]) > 1000
            assert "fisher.classical_fisher" in list(saved["names"])
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", "analysis", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()


def test_inputs_are_a_function_of_the_seed():
    first, again, other = (workloads.analysis_requests(s) for s in (5, 5, 6))
    assert first == again and first != other
    assert len(first) >= 1000


def test_tracer_reports_missing_names_and_restores_namespaces(monkeypatch):
    import qclock.cli
    import qclock.montecarlo as mc

    monkeypatch.delattr(mc, "trial_rng")
    original = mc.sample_counts
    tracer = Tracer()
    tracer.install()
    try:
        assert mc.sample_counts is not original
        assert qclock.clocks.OutcomeDistribution is not qclock.states.OutcomeDistribution
        qclock.TwoQubitClock(0.5, 1.0).distribution(1.0)
    finally:
        tracer.uninstall()
    assert mc.sample_counts is original
    assert tracer.absent == ["qclock.montecarlo.trial_rng"]
    metrics = tracer.metrics()
    assert metrics["clocks.distribution.calls"] == 1
    assert metrics["states.OutcomeDistribution.calls"] == 1
    assert metrics["clocks.distribution.self_s"] < metrics["clocks.distribution.busy_s"]
    assert metrics["trace.absent_names"] == 1


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    pairs = lambda change: list(zip(parent, change))  # noqa: E731
    faster = [120.0, 121.0, 119.0, 120.5, 119.5]
    slower = [80.0, 81.0, 79.0, 80.5, 79.5]
    same = [100.2, 100.8, 99.1, 100.4, 99.6]
    assert compare.verdict(parent, faster, pairs(faster), True, 0.1) == "gain"
    assert compare.verdict(parent, slower, pairs(slower), True, 0.1) == "regression"
    assert compare.verdict(parent, same, pairs(same), True, 0.1) == "no change"
    noisy = [60.0, 140.0, 100.0, 70.0, 130.0]
    assert compare.verdict(noisy, same, pairs(same), True, 0.1) == "unresolved"


def test_reference_holds_every_in_window_sweep_cell():
    assert set(workloads.reference_cells()) <= set(workloads.load_reference())


def test_pooled_check_catches_a_bias_no_single_cell_shows(tmp_path):
    reference = workloads.load_reference()
    (section,) = workloads.SWEEP_NUMERIC[0][1]
    cells = workloads._section_cells(section)

    def table(shift_in_se: float) -> bytes:
        lines = ["t,mean_estimate,std_error,bias,crb,n_valid"]
        for cell in cells:
            m = reference[workloads.cell_key(cell)]
            mean = m["mean"] + shift_in_se * (m["var"] / cell.trials) ** 0.5
            crb = 1.0 / (cell.n * workloads.exact.fisher_closed_form(cell.spec, cell.t)) ** 0.5
            lines.append(f"{cell.t!r},{mean!r},{m['var'] ** 0.5!r},{mean - cell.t!r},{crb!r},"
                         f"{cell.trials}")
        return "\n".join(lines).encode()

    path = tmp_path / section.out
    op = workloads.Op("sweep", None, outputs=(path,), cells={path: cells})
    assert workloads.check_outputs(op, {path: table(0.5)}, reference) == []
    problems = workloads.check_outputs(op, {path: table(3.0)}, reference)
    assert len(problems) == 1 and "sum of squared" in problems[0]


def test_paired_runs_alternate_which_side_goes_first(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(compare.subprocess, "run",
                        lambda cmd, cwd, **kw: calls.append((cwd.name, Path(cmd[-1]).name)))
    monkeypatch.setattr(compare, "table", lambda parent, change: None)
    parent, change = tmp_path / "parent", tmp_path / "change"
    compare.run_pairs(parent, change, tmp_path / "out", ["analysis"], seeds=4)
    assert calls == [("parent", "parent.jsonl"), ("change", "change.jsonl"),
                     ("change", "change.jsonl"), ("parent", "parent.jsonl")] * 2
