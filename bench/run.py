"""qclock benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload analysis --seed 7 --seconds 30 --trace 0

Each workload runs in its own fresh Python process that imports qclock from
this checkout's ``src/``. Set-up time is the fastest of several fresh
processes' times from spawn to ready (interpreter, ``import qclock`` and
building the workload inputs), started at intervals through the timed run.
With --trace 0 the end-to-end metrics are measured with tracing off; with
--trace 1 a separate run times every call into qclock's public functions from
outside and reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. --record FILE
appends the result and the run record to FILE (JSON lines) for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-closed", "sweep-numeric", "analysis")
DEFAULT_SEED = 20261017
SETUP_SAMPLES = 21
WORKER_TIMEOUT_S = 170.0


def worker_env() -> dict:
    """Environment of the worker processes: this checkout's qclock, one thread."""
    env = dict(os.environ)
    env.pop("QCLOCK_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def worker_cmd(args, workdir: Path, setup_only: bool) -> list[str]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    if args.spans:
        cmd += ["--spans", str(Path(args.spans).resolve())]
    return cmd


def start_worker(args, workdir: Path, setup_only: bool):
    """Spawn a worker and wait for its ``ready``; returns (process, seconds to ready).

    A worker still running WORKER_TIMEOUT_S after its start is killed, so a
    hung worker makes the run fail instead of hang."""
    start = time.perf_counter()
    proc = subprocess.Popen(worker_cmd(args, workdir, setup_only), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    proc.watchdog = watchdog
    ready = proc.stdout.readline()
    setup = time.perf_counter() - start
    if ready.strip() != b"ready":
        stop_worker(proc)
        raise SystemExit(f"bench: {args.workload} worker failed during set-up")
    return proc, setup


def stop_worker(proc) -> int:
    """Close the worker's input, wait for it to end; returns its exit code."""
    try:
        proc.stdin.close()
        proc.wait()
    finally:
        proc.watchdog.cancel()
        proc.stdout.close()
    return proc.returncode


def measure(args, workdir: Path) -> list[float]:
    """Run the worker's timed passes in SETUP_SAMPLES - 1 slices, with a fresh
    set-up-only process timed before each slice. The set-up samples are then
    spread over the same stretch of time as the passes, so the fastest of them
    falls in the same undisturbed periods as the fastest passes. Returns the
    set-up samples, the worker's own start included."""
    proc, first = start_worker(args, workdir, setup_only=False)
    setups = [first]
    try:
        slices = SETUP_SAMPLES - 1 if not args.trace else 0
        for _ in range(slices):
            probe, setup = start_worker(args, workdir, setup_only=True)
            if stop_worker(probe):
                raise SystemExit(f"bench: {args.workload} set-up failed (exit {probe.returncode})")
            setups.append(setup)
            proc.stdin.write(f"{args.seconds / slices}\n".encode())
            proc.stdin.flush()
            if proc.stdout.readline().strip() != b"done":
                break
    finally:
        code = stop_worker(proc)
    if code:
        raise SystemExit(f"bench: {args.workload} worker failed (exit {code})")
    return setups


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform()}


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(args) -> dict:
    """Set up and run one workload in fresh processes; returns its result."""
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        setups = measure(args, workdir)
        result_file = workdir / "result.json"
        if not result_file.is_file():
            raise SystemExit(f"bench: {args.workload} worker wrote no result")
        result = json.loads(result_file.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    measured = result["metrics"]
    if not args.trace:
        measured["setup_s"] = min(setups)
    metrics = {}
    for m in declared_metrics(args.trace):
        if m["name"] not in measured:
            raise SystemExit(f"bench: {args.workload} did not measure {m['name']}")
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
    info = result["info"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**machine(), "python": info["python"], "numpy": info["numpy"]},
        "git_commit": git_commit(),
        "qclock_file": info.pop("qclock_file"),
        "setup_samples_s": setups if not args.trace else [],
        "info": info,
    }
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "problems": result["problems"],
        "record": record,
    }


def report(result: dict) -> None:
    rec = result["record"]
    print(f"workload {rec['workload']}  seed {rec['seed']}  seconds {rec['seconds']}  "
          f"trace {rec['trace']}")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':44s} {rate:.6g} ({result['failed']} failed / "
          f"{result['attempted']} attempted)")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print(f"run record: {json.dumps(rec, sort_keys=True)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the result and run record to this JSON-lines file")
    ap.add_argument("--spans", help="with --trace 1, save the recorded spans to this .npz file")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qclock" / "__init__.py").is_file():
        print(f"bench: no qclock sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        report(result)
        if args.record:
            with open(args.record, "a") as fh:
                fh.write(json.dumps(result, sort_keys=True) + "\n")
        results[name] = result
    if len(results) == 1:
        (final,) = results.values()
        metrics = final["metrics"]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values())}
        metrics = {f"{w}:{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": final["correct"], "attempted": final["attempted"],
                      "failed": final["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
