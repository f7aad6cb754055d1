"""Compare two sets of benchmark runs: a parent commit against a change.

    python3 bench/compare.py run PARENT_DIR CHANGE_DIR --out DIR [--workload W] [--seeds 10]
    python3 bench/compare.py table parent.jsonl change.jsonl

``run`` benchmarks two checkouts seed by seed, alternating which side runs
first, so that a drift in machine speed falls on both sides alike; it appends
to DIR/parent.jsonl and DIR/change.jsonl and then prints the table. ``table``
prints it from two files of results appended by ``run.py --record``, from
untraced runs (--trace 0) on several seeds. For every workload and
end-to-end metric it prints both sides' median and quartiles, the ratio
change / parent with the parent's median as its base, and a verdict:

* regression: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
* gain: the change wins at least nine tenths of the runs paired by seed
  (ties count for neither) and the medians differ by more than the
  parent's interquartile range;
* unresolved: neither, and the parent's own spread is wider than the bound,
  unless every change run reads better than every parent run;
* no change: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            higher_is_better: bool, bound: float) -> str:
    sign = 1.0 if higher_is_better else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gained = sign * (c_med - p_med)
    if gained < -bound * abs(p_med):
        return "regression"
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if pairs and wins >= 0.9 * len(pairs) and gained > p_q3 - p_q1:
        return "gain"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (p_q3 - p_q1) > bound * abs(p_med) and not all_better:
        return "unresolved"
    return "no change"


def load(path: str) -> dict[str, dict[int, dict]]:
    """workload -> seed -> metrics of the untraced runs in a --record file."""
    runs: dict[str, dict[int, dict]] = defaultdict(dict)
    for line in Path(path).read_text().splitlines():
        result = json.loads(line)
        record = result["record"]
        if not record["trace"]:
            runs[record["workload"]][record["seed"]] = result["metrics"]
    return runs


def table(parent: str, change: str) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_runs, change_runs = load(parent), load(change)
    print(f"{'metric':14s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} "
          f"{'ratio':>8s}  verdict")
    for workload in sorted(set(parent_runs) & set(change_runs)):
        base, new = parent_runs[workload], change_runs[workload]
        seeds = sorted(set(base) & set(new))
        print(f"{workload}: {len(base)} parent runs, {len(new)} change runs, "
              f"{len(seeds)} paired by seed")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [m[name]["value"] for m in base.values()]
            c = [m[name]["value"] for m in new.values()]
            pairs = [(base[s][name]["value"], new[s][name]["value"]) for s in seeds]
            pq, cq = quartiles(p), quartiles(c)
            ratio = cq[1] / pq[1]
            result = verdict(p, c, pairs, metric["better"] == "higher", metric["bound"])
            print(f"  {name:12s} {pq[1]:14.6g} [{pq[0]:.6g}, {pq[2]:.6g}] "
                  f"{cq[1]:14.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {ratio:8.4f}  {result}"
                  f"  (base {pq[1]:.6g} {metric['unit']})")


def run_pairs(parent: Path, change: Path, out: Path, workloads: list[str], seeds: int) -> None:
    """Each checkout's own bench/run.py, on seeds 1..seeds, alternating sides."""
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out.mkdir(parents=True, exist_ok=True)
    sides = [(parent.resolve(), out.resolve() / "parent.jsonl"),
             (change.resolve(), out.resolve() / "change.jsonl")]
    for seed in range(1, seeds + 1):
        for workload in workloads:
            for checkout, record in sides if seed % 2 else sides[::-1]:
                print(f"seed {seed} {workload}: {checkout}", flush=True)
                subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                                "--seed", str(seed), "--seconds", str(seconds),
                                "--record", str(record)],
                               cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    table(str(sides[0][1]), str(sides[1][1]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run", help="benchmark two checkouts in alternation, then compare")
    run.add_argument("parent", type=Path, help="checkout of the parent commit")
    run.add_argument("change", type=Path, help="checkout of the change")
    run.add_argument("--out", type=Path, required=True,
                     help="directory for parent.jsonl and change.jsonl")
    run.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    run.add_argument("--seeds", type=int, default=10, help="seeds 1..N, one pair each")
    tab = sub.add_parser("table", help="compare two --record files")
    tab.add_argument("parent", help="--record file of the parent commit")
    tab.add_argument("change", help="--record file of the change")
    args = ap.parse_args(argv)
    if args.mode == "table":
        table(args.parent, args.change)
    else:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        run_pairs(args.parent, args.change, args.out, names, args.seeds)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
