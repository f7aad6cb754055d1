"""Command-line front end for the clock toolkit.

Subcommands: probs, fisher, estimate, sweep, compare, recurrence. Tables go
to stdout or, with --out, to CSV/JSON files; every file-writing run also
drops a JSON run manifest next to its first output (``<out>.manifest.json``)
recording the resolved configuration, seed, tool version, timestamps, and
output paths; sweep and compare manifests also name the RNG stream layout.
Re-running the manifest's argv reproduces the data files byte for byte.
``main`` may be called repeatedly in one process and reuses one parser.

Exit status: 0 on success, 2 on usage or configuration errors, 3 when a
computation aborts on degenerate counts. ``fisher`` marks a time with no
Cramer-Rao bound by degenerate = 1 and crb = nan instead.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import functools
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .clocks import ClockModel, GhzClock, OneQubitClock, TwoQubitClock, recurrence_time
from .estimators import DegenerateCountsError
from .fisher import DegenerateTimeError, classical_fisher, quantum_fisher
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


def _model(kind: str, value) -> ClockModel:
    # The model of `kind`, each parameter read as value(key, cast, default)
    # under its flag and config key name.
    omega = value("omega", float, 1.0)
    if kind == "one-qubit":
        return OneQubitClock(omega=omega, chi=value("chi", float, 1.0))
    if kind == "two-qubit":
        return TwoQubitClock(omega=omega, Omega=value("Omega", float, 2.0 * omega))
    return GhzClock(omega=omega, n_entangled=value("n", int, 2))


def _build_model(args, kind: str | None = None) -> ClockModel:
    # A flag the subcommand lacks, or --Omega left out, takes the default.
    def value(key, cast, default):
        given = getattr(args, key, None)
        return default if given is None else given

    return _model(kind or args.model, value)


# Flag and config key of a model field, where the two names differ.
_FIELD_KEYS = {"n_entangled": "n"}


def _model_config(model: ClockModel) -> dict:
    config = {"model": model.kind}
    for field in dataclasses.fields(model):
        config[_FIELD_KEYS.get(field.name, field.name)] = getattr(model, field.name)
    return config


def _grid(start: float, stop: float, steps: int, where: str) -> tuple[float, ...]:
    # `steps` evenly spaced times from start to stop; `where` names the
    # grid's source in errors.
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"{where} bounds must be finite, got {start!r} and {stop!r}")
    if steps < 1:
        raise ConfigError(f"{where} needs at least one step, got {steps}")
    if steps == 1:
        return (start,)
    return tuple(float(t) for t in np.linspace(start, stop, steps))


def _parse_grid(spec: str) -> tuple[float, ...]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"t-grid must be 'start:stop:steps', got {spec!r}")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"t-grid must be 'start:stop:steps' with numeric fields, got {spec!r}")
    return _grid(start, stop, steps, "t-grid")


def _times(args) -> tuple[float, ...]:
    if args.t is not None:
        if not math.isfinite(args.t):
            raise ConfigError(f"--t must be finite, got {args.t!r}")
        return (args.t,)
    return _parse_grid(args.t_grid)


def _parse_counts(args, model: ClockModel):
    try:
        tallies = [int(part) for part in args.counts.split(",")]
    except ValueError:
        raise ConfigError(f"counts must be comma-separated integers, got {args.counts!r}")
    if len(tallies) != len(model.class_sizes):
        raise ConfigError(
            f"{model.kind} counts are {len(model.class_sizes)} tallies, got {args.counts!r}"
        )
    # The flag lists the tallies in the reverse of their tally order.
    return model.counts_type.from_tallies(tallies[::-1])


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


def cmd_fisher(args, argv) -> int:
    started = _now()
    model = _build_model(args)
    # classical_fisher is the closed form: "analytic" repeats it, kept for layout.
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
                report.value,
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
    counts = _parse_counts(args, model)
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
    model = _model(kind, lambda key, cast, default: _config_value(section, key, cast, default))
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
    config = ExperimentConfig(
        model=model,
        n_probes=_config_value(section, "probes", int, required=True),
        t_grid=_grid(t_start, t_stop, t_steps, f"time grid of section [{section.name}]"),
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
    pair = _build_model(args, "two-qubit")
    table = compare_resources(
        budget_qubits=args.budget,
        omega=pair.omega,
        Omega=pair.Omega,
        t_grid=grid,
        trials=args.trials,
        seed=args.seed,
    )
    outputs = _emit_table(args, table.COLUMNS, table.as_rows())
    config = {
        "budget": args.budget,
        "omega": pair.omega,
        "Omega": pair.Omega,
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, shared by every ``main`` call: do not modify it."""
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
