"""Command-line front end for the clock toolkit.

Subcommands: probs, fisher, estimate, sweep, compare, recurrence. Tables go
to stdout or, with --out, to CSV/JSON files; every file-writing run also
drops a JSON run manifest next to its first output (``<out>.manifest.json``)
recording the resolved configuration, seed, tool version, timestamps, and
output paths; sweep and compare manifests also name the RNG stream layout.
Re-running the manifest's argv reproduces the data files byte for byte.

Exit status: 0 on success, 2 on usage or configuration errors, 3 when a
computation aborts on numeric degeneracy (counts or times at which the
requested quantity is undefined).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .clocks import ClockModel, GhzClock, OneQubitClock, TwoQubitClock, recurrence_time
from .estimators import DegenerateCountsError
from .counts import GhzCounts, OneQubitCounts, TwoQubitCounts
from .fisher import (
    DegenerateTimeError,
    classical_fisher,
    fisher_one_qubit_analytic,
    quantum_fisher,
)
from .montecarlo import (
    STREAM_LAYOUT,
    ConfigError,
    ErrorCurve,
    EstimatorKind,
    ExperimentConfig,
    apply_estimator,
    compare_resources,
    error_curve,
    mean_estimator_curve,
)

# All floating-point output is fixed at 12 significant digits so golden
# files are stable across platforms.
FLOAT_FMT = ".12g"

_SWEEP_KEYS = {
    "model",
    "omega",
    "Omega",
    "chi",
    "n",
    "probes",
    "trials",
    "seed",
    "estimator",
    "curve",
    "t_start",
    "t_stop",
    "t_steps",
    "out",
    "format",
}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), FLOAT_FMT)


def _round12(value: float) -> float:
    # Round-trip through the output precision so JSON numbers match CSV.
    if value != value or math.isinf(value):
        return value
    return float(format(value, FLOAT_FMT))


def _json_ready(value):
    if isinstance(value, float):
        return None if value != value else _round12(value)
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    return value


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _csv_text(header, rows) -> str:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _json_table_text(header, rows) -> str:
    payload = {"columns": list(header), "rows": [_json_ready(list(r)) for r in rows]}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit_table(args, header, rows) -> list[str]:
    if args.format == "json":
        text = _json_table_text(header, rows)
    else:
        text = _csv_text(header, rows)
    _write_text(args.out, text)
    return [args.out] if args.out else []


def _write_manifest(
    command: str,
    argv: list[str],
    config: dict,
    seed,
    outputs: list[str],
    started: str,
    stream_layout: str | None = None,
) -> None:
    if not outputs:
        return
    payload = {
        "command": command,
        "argv": argv,
        "config": _json_ready(config),
        "seed": seed,
        "version": __version__,
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
        "outputs": outputs,
    }
    if stream_layout is not None:
        payload["stream_layout"] = stream_layout
    path = outputs[0] + ".manifest.json"
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _build_model(args) -> ClockModel:
    if args.model == "one-qubit":
        return OneQubitClock(omega=args.omega, chi=args.chi)
    if args.model == "two-qubit":
        Omega = args.Omega if args.Omega is not None else 2.0 * args.omega
        return TwoQubitClock(omega=args.omega, Omega=Omega)
    return GhzClock(omega=args.omega, n_entangled=args.n)


def _model_config(model: ClockModel) -> dict:
    if isinstance(model, OneQubitClock):
        return {"model": "one-qubit", "omega": model.omega, "chi": model.chi}
    if isinstance(model, TwoQubitClock):
        return {"model": "two-qubit", "omega": model.omega, "Omega": model.Omega}
    return {"model": "ghz", "omega": model.omega, "n": model.n_entangled}


def _parse_grid(spec: str) -> tuple[float, ...]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"t-grid must be 'start:stop:steps', got {spec!r}")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"t-grid must be 'start:stop:steps' with numeric fields, got {spec!r}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"t-grid bounds must be finite, got {spec!r}")
    if steps < 1:
        raise ConfigError("t-grid needs at least one step")
    if steps == 1:
        return (start,)
    return tuple(float(t) for t in np.linspace(start, stop, steps))


def _times(args) -> tuple[float, ...]:
    if args.t is not None:
        if not math.isfinite(args.t):
            raise ConfigError(f"--t must be finite, got {args.t!r}")
        return (args.t,)
    return _parse_grid(args.t_grid)


def _parse_counts(args):
    try:
        tallies = [int(part) for part in args.counts.split(",")]
    except ValueError:
        raise ConfigError(f"counts must be comma-separated integers, got {args.counts!r}")
    if args.model == "one-qubit":
        if len(tallies) != 2:
            raise ConfigError("one-qubit counts are 'k_plus,k_minus'")
        return OneQubitCounts(n=tallies[0] + tallies[1], k_minus=tallies[1])
    if args.model == "two-qubit":
        if len(tallies) != 4:
            raise ConfigError("two-qubit counts are 'k_0plus,k_0minus,k_1plus,k_1minus'")
        return TwoQubitCounts(
            slow_plus=tallies[0],
            slow_minus=tallies[1],
            fast_plus=tallies[2],
            fast_minus=tallies[3],
        )
    if len(tallies) != 2:
        raise ConfigError("ghz counts are 'k_even,k_odd'")
    return GhzCounts(n=tallies[0] + tallies[1], k_odd=tallies[1])


def cmd_probs(args, argv) -> int:
    started = _now()
    model = _build_model(args)
    labels = model.outcome_labels
    header = ["t", *labels, "sum"]
    rows = []
    for t in _times(args):
        dist = model.distribution(t)
        values = [dist[label] for label in labels]
        rows.append([t, *values, sum(values)])
    outputs = _emit_table(args, header, rows)
    _write_manifest("probs", argv, _model_config(model), None, outputs, started)
    return 0


def _analytic_fisher(model: ClockModel, t: float) -> float:
    if isinstance(model, OneQubitClock):
        return fisher_one_qubit_analytic(model.chi, model.omega, t).value
    if isinstance(model, TwoQubitClock):
        return 0.5 * (model.omega**2 + model.Omega**2)
    return (model.n_entangled * model.omega) ** 2


def cmd_fisher(args, argv) -> int:
    started = _now()
    model = _build_model(args)
    header = ["t", "classical_fisher", "analytic", "qfi", "crb", "degenerate"]
    rows = []
    for t in _times(args):
        report = classical_fisher(model, t)
        degenerate = report.degenerate or report.value <= 0.0
        try:
            bound = report.crb(args.probes)
        except DegenerateTimeError:
            bound = math.nan
        rows.append(
            [
                t,
                report.value,
                _analytic_fisher(model, t),
                quantum_fisher(model, t).value,
                bound,
                int(degenerate),
            ]
        )
    outputs = _emit_table(args, header, rows)
    config = {**_model_config(model), "probes": args.probes}
    _write_manifest("fisher", argv, config, None, outputs, started)
    return 0


def cmd_estimate(args, argv) -> int:
    started = _now()
    model = _build_model(args)
    counts = _parse_counts(args)
    report = apply_estimator(model, counts, EstimatorKind(args.estimator))
    payload = {
        **_model_config(model),
        "estimator": args.estimator,
        "counts": args.counts,
        "t_hat": _round12(report.t_hat),
        "branch": report.branch.value,
        "window": [_round12(report.window[0]), _round12(report.window[1])],
        "coarse_t": None if report.coarse_t is None else _round12(report.coarse_t),
        "valid": report.valid,
    }
    text = json.dumps(_json_ready(payload), indent=2, sort_keys=True) + "\n"
    _write_text(args.out, text)
    outputs = [args.out] if args.out else []
    _write_manifest("estimate", argv, payload, None, outputs, started)
    return 0


def _config_value(section, key: str, cast, default=None, required: bool = False):
    if key not in section:
        if required:
            raise ConfigError(f"missing key '{key}' in section [{section.name}]")
        return default
    raw = section[key]
    try:
        return cast(raw)
    except (TypeError, ValueError):
        raise ConfigError(
            f"invalid value for '{key}' in section [{section.name}]: {raw!r}"
        )


def _sweep_section(section) -> tuple[ExperimentConfig, str, str, str, dict]:
    unknown = sorted(set(section.keys()) - _SWEEP_KEYS)
    if unknown:
        raise ConfigError(f"unknown key '{unknown[0]}' in section [{section.name}]")
    kind = _config_value(section, "model", str, required=True)
    if kind not in ("one-qubit", "two-qubit", "ghz"):
        raise ConfigError(f"invalid value for 'model' in section [{section.name}]: {kind!r}")
    omega = _config_value(section, "omega", float, default=1.0)
    if kind == "one-qubit":
        model: ClockModel = OneQubitClock(
            omega=omega, chi=_config_value(section, "chi", float, default=1.0)
        )
    elif kind == "two-qubit":
        model = TwoQubitClock(
            omega=omega,
            Omega=_config_value(section, "Omega", float, default=2.0 * omega),
        )
    else:
        model = GhzClock(omega=omega, n_entangled=_config_value(section, "n", int, default=2))
    estimator = _config_value(section, "estimator", str, default="closed-form")
    try:
        estimator_kind = EstimatorKind(estimator)
    except ValueError:
        raise ConfigError(
            f"invalid value for 'estimator' in section [{section.name}]: {estimator!r}"
        )
    curve = _config_value(section, "curve", str, default="error")
    if curve not in ("error", "mean"):
        raise ConfigError(f"invalid value for 'curve' in section [{section.name}]: {curve!r}")
    fmt = _config_value(section, "format", str, default="csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"invalid value for 'format' in section [{section.name}]: {fmt!r}")
    t_start = _config_value(section, "t_start", float, required=True)
    t_stop = _config_value(section, "t_stop", float, required=True)
    t_steps = _config_value(section, "t_steps", int, required=True)
    if t_steps < 1:
        raise ConfigError(f"invalid value for 't_steps' in section [{section.name}]: {t_steps}")
    grid = (
        (t_start,)
        if t_steps == 1
        else tuple(float(t) for t in np.linspace(t_start, t_stop, t_steps))
    )
    config = ExperimentConfig(
        model=model,
        n_probes=_config_value(section, "probes", int, required=True),
        t_grid=grid,
        trials=_config_value(section, "trials", int, required=True),
        seed=_config_value(section, "seed", int, required=True),
        estimator=estimator_kind,
    )
    out = _config_value(section, "out", str, required=True)
    resolved = {
        **_model_config(model),
        "probes": config.n_probes,
        "trials": config.trials,
        "seed": config.seed,
        "estimator": estimator_kind.value,
        "curve": curve,
        "t_start": t_start,
        "t_stop": t_stop,
        "t_steps": t_steps,
        "out": out,
        "format": fmt,
    }
    return config, curve, out, fmt, resolved


def cmd_sweep(args, argv) -> int:
    started = _now()
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    parser.optionxform = str
    path = Path(args.config)
    if not path.is_file():
        raise ConfigError(f"config file not found: {args.config}")
    try:
        parser.read_string(path.read_text(), source=args.config)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {args.config}: {exc}")
    if not parser.sections():
        raise ConfigError(f"config {args.config} defines no experiment sections")
    outputs = []
    resolved_sections = {}
    seeds = []
    for name in parser.sections():
        config, curve, out, fmt, resolved = _sweep_section(parser[name])
        runner = mean_estimator_curve if curve == "mean" else error_curve
        result: ErrorCurve = runner(config)
        rows = result.rows()
        text = (
            _json_table_text(ErrorCurve.COLUMNS, rows)
            if fmt == "json"
            else _csv_text(ErrorCurve.COLUMNS, rows)
        )
        Path(out).write_text(text)
        outputs.append(out)
        resolved_sections[name] = resolved
        seeds.append(config.seed)
    _write_manifest(
        "sweep",
        argv,
        {"config_file": args.config, "sections": resolved_sections},
        seeds[0] if len(seeds) == 1 else seeds,
        outputs,
        started,
        STREAM_LAYOUT,
    )
    return 0


def cmd_compare(args, argv) -> int:
    started = _now()
    grid = _parse_grid(args.t_grid)
    table = compare_resources(
        budget_qubits=args.budget,
        omega=args.omega,
        Omega=args.Omega if args.Omega is not None else 2.0 * args.omega,
        t_grid=grid,
        trials=args.trials,
        seed=args.seed,
    )
    outputs = _emit_table(args, table.COLUMNS, table.as_rows())
    config = {
        "budget": args.budget,
        "omega": args.omega,
        "Omega": args.Omega if args.Omega is not None else 2.0 * args.omega,
        "t_grid": args.t_grid,
        "trials": args.trials,
    }
    _write_manifest("compare", argv, config, args.seed, outputs, started, STREAM_LAYOUT)
    return 0


def cmd_recurrence(args, argv) -> int:
    started = _now()
    model = _build_model(args)
    value = recurrence_time(model, epsilon=args.epsilon, t_max=args.t_max)
    payload = {
        **_model_config(model),
        "epsilon": args.epsilon,
        "t_max": args.t_max,
        "recurrence_time": None if value is None else _round12(value),
    }
    text = json.dumps(_json_ready(payload), indent=2, sort_keys=True) + "\n"
    _write_text(args.out, text)
    outputs = [args.out] if args.out else []
    _write_manifest("recurrence", argv, payload, None, outputs, started)
    return 0


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model",
        choices=("one-qubit", "two-qubit", "ghz"),
        required=True,
        help="clock design",
    )
    parser.add_argument("--omega", type=float, default=1.0, help="slow/base level splitting")
    parser.add_argument(
        "--Omega",
        type=float,
        default=None,
        help="fast splitting of the two-qubit clock (default 2*omega)",
    )
    parser.add_argument("--chi", type=float, default=1.0, help="one-qubit visibility")
    parser.add_argument("--n", type=int, default=2, help="entangled qubits per GHZ probe")


def _add_time_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=float, help="single evaluation time")
    group.add_argument("--t-grid", dest="t_grid", help="time grid 'start:stop:steps'")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclock",
        description="Simulation and estimation toolkit for few-qubit clocks.",
    )
    parser.add_argument("--version", action="version", version=f"qclock {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("probs", help="outcome probabilities over time")
    _add_model_flags(p)
    _add_time_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_probs)

    p = sub.add_parser("fisher", help="Fisher information and precision bounds")
    _add_model_flags(p)
    _add_time_flags(p)
    _add_output_flags(p)
    p.add_argument("--probes", type=int, default=1, help="probe count for the CRB column")
    p.set_defaults(func=cmd_fisher)

    p = sub.add_parser("estimate", help="time estimate from observed counts")
    _add_model_flags(p)
    p.add_argument(
        "--counts",
        required=True,
        help=(
            "comma-separated tallies in label order: one-qubit 'k+,k-'; "
            "two-qubit 'k0+,k0-,k1+,k1-'; ghz 'k_even,k_odd'"
        ),
    )
    p.add_argument(
        "--estimator",
        choices=tuple(kind.value for kind in EstimatorKind),
        default=EstimatorKind.CLOSED_FORM.value,
    )
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_estimate, format="json")

    p = sub.add_parser("sweep", help="run the experiments in a config file")
    p.add_argument("config", help="INI-style experiment file")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="designs side by side at a fixed qubit budget")
    p.add_argument("--budget", type=int, required=True, help="total qubit budget (even)")
    p.add_argument("--omega", type=float, default=0.5)
    p.add_argument("--Omega", type=float, default=None)
    p.add_argument("--t-grid", dest="t_grid", required=True, help="time grid 'start:stop:steps'")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=12345)
    _add_output_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("recurrence", help="first return time of the outcome statistics")
    _add_model_flags(p)
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--t-max", dest="t_max", type=float, default=100.0)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_recurrence)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, list(argv))
    except (DegenerateCountsError, DegenerateTimeError) as exc:
        print(f"qclock: degenerate input: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, TypeError, OSError) as exc:
        print(f"qclock: error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
