"""Command-line front end for the clock toolkit.

Subcommands: probs, fisher, estimate, sweep, compare, recurrence. Tables go
to stdout or, with --out, to CSV/JSON files; every file-writing run also
drops a JSON run manifest next to its first output (``<out>.manifest.json``)
recording the resolved configuration, seed, tool version, timestamps, and
output paths; sweep and compare manifests also name the RNG stream layout.
Re-running the manifest's argv reproduces the data files byte for byte.
An existing output or manifest is written over in place and then cut to the
new length, so it keeps its inode, mode, symlink and hard links; a reader
that opens it mid-write may see the new text followed by the old tail. A
rerun's output is not crash-consistent either: after a crash or power loss
soon after the run, the file may hold the new length with old blocks, or the
new text followed by the old tail, and still look valid. Remove the old
outputs first where a rerun must survive a crash.
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
import io
import json
import math
import os
import stat
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .clocks import ClockModel, GhzClock, OneQubitClock, TwoQubitClock, recurrence_time
from .estimators import DegenerateCountsError
from .fisher import classical_fisher, quantum_fisher
from .montecarlo import (
    STREAM_LAYOUT,
    ConfigError,
    ErrorCurve,
    EstimatorKind,
    ExperimentConfig,
    _check_exact_size,
    _crb_or_nan,
    apply_estimator,
    compare_resources,
    error_curve,
    mean_estimator_curve,
)

# All floating-point output is fixed at 12 significant digits so golden
# files are stable across platforms.
FLOAT_FMT = ".12g"

# Flag and config key of a model field, where the two names differ.
_FIELD_KEYS = {"n_entangled": "n"}
# The flags and config keys that set each model's parameters.
_MODEL_PARAMS = {
    clock.kind: {_FIELD_KEYS.get(field.name, field.name) for field in dataclasses.fields(clock)}
    for clock in (OneQubitClock, TwoQubitClock, GhzClock)
}
_MODELS = tuple(_MODEL_PARAMS)
_FORMATS = ("csv", "json")
_ESTIMATORS = tuple(kind.value for kind in EstimatorKind)

# Stands in for the default of a key that has none.
_REQUIRED = object()

# Every sweep-section key besides the model's, in the order it is read:
# (cast, default or _REQUIRED, allowed values or None for any).
_SECTION_KEYS = {
    "estimator": (str, EstimatorKind.CLOSED_FORM.value, _ESTIMATORS),
    "curve": (str, "error", ("error", "mean")),
    "format": (str, "csv", _FORMATS),
    "t_start": (float, _REQUIRED, None),
    "t_stop": (float, _REQUIRED, None),
    "t_steps": (int, _REQUIRED, None),
    "probes": (int, _REQUIRED, None),
    "trials": (int, _REQUIRED, None),
    "seed": (int, _REQUIRED, None),
    "out": (str, _REQUIRED, None),
}


def _fmt(value) -> str:
    # bool is an int, and np.bool_ formats as a float: both print 1 or 0.
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), FLOAT_FMT)


def _json_ready(value):
    if isinstance(value, float):
        # Round-trip through the output precision so JSON numbers match CSV.
        return None if value != value else float(format(value, FLOAT_FMT))
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    return value


def _json_text(payload) -> str:
    return json.dumps(_json_ready(payload), indent=2, sort_keys=True) + "\n"


def _write(path: str, text: str) -> None:
    # Writes over the file and then cuts it to length, with text mode's
    # default encoding and newlines. No O_TRUNC: on ext4, truncating a file
    # that holds data makes close() start writeback. FIFOs reject truncation.
    with open(path, "w", opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _emit(out: str | None, text: str) -> list[str]:
    """Write text to stdout, or to the file `out`; returns the files written."""
    if out is None:
        sys.stdout.write(text)
        return []
    _write(out, text)
    return [out]


def _emit_table(out: str | None, fmt: str, header, rows) -> list[str]:
    if fmt == "json":
        return _emit(out, _json_text({"columns": header, "rows": rows}))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    return _emit(out, buf.getvalue())


def _model(kind: str, value) -> ClockModel:
    # The model of `kind`, each parameter read as value(key, cast, default)
    # under its flag and config key name.
    omega = value("omega", float, 1.0)
    if kind == "one-qubit":
        return OneQubitClock(omega=omega, chi=value("chi", float, 1.0))
    if kind == "two-qubit":
        return TwoQubitClock(omega=omega, Omega=value("Omega", float, 2.0 * omega))
    return GhzClock(omega=omega, n_entangled=value("n", int, 2))


def _is_foreign(kind: str, key: str) -> bool:
    # Whether `key` sets another model's parameter but none of kind's.
    return key not in _MODEL_PARAMS[kind] and any(key in p for p in _MODEL_PARAMS.values())


def _build_model(args, kind: str | None = None) -> ClockModel:
    # A flag the subcommand lacks, or left out, takes the default; a flag of
    # another model is a fault.
    kind = kind or args.model
    for key in sorted(key for key, given in vars(args).items() if given is not None):
        if _is_foreign(kind, key):
            raise ConfigError(f"--{key} does not apply to model '{kind}'")

    def value(key, cast, default):
        given = getattr(args, key, None)
        return default if given is None else given

    return _model(kind, value)


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
    if steps == 1:  # linspace would print -0 as 0 and overflow on huge bounds
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


# Each cmd_* function returns the files it wrote, the resolved configuration,
# the seed and the RNG stream layout, for the run manifest.


def cmd_probs(args):
    model = _build_model(args)
    labels = model.outcome_labels
    header = ["t", *labels, "sum"]
    rows = []
    for t in _times(args):
        dist = model.distribution(t)
        values = [dist[label] for label in labels]
        rows.append([t, *values, sum(values)])
    return _emit_table(args.out, args.format, header, rows), _model_config(model), None, None


def cmd_fisher(args):
    model = _build_model(args)
    # classical_fisher is the closed form: "analytic" repeats it, kept for layout.
    header = ["t", "classical_fisher", "analytic", "qfi", "crb", "degenerate"]
    rows = []
    for t in _times(args):
        report = classical_fisher(model, t)
        degenerate = report.degenerate or report.value <= 0.0
        rows.append(
            [
                t,
                report.value,
                report.value,
                quantum_fisher(model, t).value,
                _crb_or_nan(model, t, args.probes),
                int(degenerate),
            ]
        )
    outputs = _emit_table(args.out, args.format, header, rows)
    return outputs, {**_model_config(model), "probes": args.probes}, None, None


def cmd_estimate(args):
    model = _build_model(args)
    counts = _parse_counts(args, model)
    report = apply_estimator(model, counts, EstimatorKind(args.estimator))
    payload = {
        **_model_config(model),
        "estimator": args.estimator,
        "counts": args.counts,
        "t_hat": report.t_hat,
        "branch": report.branch.value,
        "window": report.window,
        "coarse_t": report.coarse_t,
        "valid": report.valid,
    }
    return _emit(args.out, _json_text(payload)), payload, None, None


def _config_value(section, key: str, cast, default=_REQUIRED, choices=None):
    if key not in section:
        if default is _REQUIRED:
            raise ConfigError(f"missing key '{key}' in section [{section.name}]")
        return default
    raw = section[key]
    try:
        value = cast(raw)
    except (TypeError, ValueError):
        pass
    else:
        if choices is None or value in choices:
            return value
    raise ConfigError(f"invalid value for '{key}' in section [{section.name}]: {raw!r}")


def _sweep_section(section) -> tuple[ExperimentConfig, dict]:
    # The section's experiment, and its resolved keys for the manifest.
    value = functools.partial(_config_value, section)
    kind = value("model", str, _REQUIRED, _MODELS)
    where = f"in section [{section.name}]"
    for key in sorted(set(section) - {"model"} - _MODEL_PARAMS[kind] - set(_SECTION_KEYS)):
        if _is_foreign(kind, key):
            raise ConfigError(f"key '{key}' does not apply to model '{kind}' {where}")
        raise ConfigError(f"unknown key '{key}' {where}")
    model = _model(kind, value)
    values = {key: value(key, *spec) for key, spec in _SECTION_KEYS.items()}
    grid = (values["t_start"], values["t_stop"], values["t_steps"])
    config = ExperimentConfig(
        model=model,
        n_probes=values["probes"],
        t_grid=_grid(*grid, f"time grid of section [{section.name}]"),
        trials=values["trials"],
        seed=values["seed"],
        estimator=EstimatorKind(values["estimator"]),
    )
    if values["curve"] == "mean":
        _check_exact_size(config)
    return config, {**_model_config(model), **values}


def cmd_sweep(args):
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
    # Every section is checked before any runs, so a bad one writes nothing.
    sections = {name: _sweep_section(parser[name]) for name in parser.sections()}
    outputs = []
    for config, resolved in sections.values():
        runner = mean_estimator_curve if resolved["curve"] == "mean" else error_curve
        rows = runner(config).rows()
        outputs += _emit_table(resolved["out"], resolved["format"], ErrorCurve.COLUMNS, rows)
    seeds = [config.seed for config, _ in sections.values()]
    config = {
        "config_file": args.config,
        "sections": {name: resolved for name, (_, resolved) in sections.items()},
    }
    return outputs, config, seeds[0] if len(seeds) == 1 else seeds, STREAM_LAYOUT


def cmd_compare(args):
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
    outputs = _emit_table(args.out, args.format, table.COLUMNS, table.rows)
    config = {
        "budget": args.budget,
        "omega": pair.omega,
        "Omega": pair.Omega,
        "t_grid": args.t_grid,
        "trials": args.trials,
    }
    return outputs, config, args.seed, STREAM_LAYOUT


def cmd_recurrence(args):
    model = _build_model(args)
    payload = {
        **_model_config(model),
        "epsilon": args.epsilon,
        "recurrence_time": recurrence_time(model, epsilon=args.epsilon),
    }
    return _emit(args.out, _json_text(payload)), payload, None, None


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model",
        choices=_MODELS,
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
    parser.add_argument("--chi", type=float, help="one-qubit visibility (default 1)")
    parser.add_argument("--n", type=int, help="entangled qubits per GHZ probe (default 2)")


def _add_time_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=float, help="single evaluation time")
    group.add_argument("--t-grid", dest="t_grid", help="time grid 'start:stop:steps'")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--format", choices=_FORMATS, default="csv")


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
    p.add_argument("--estimator", choices=_ESTIMATORS, default=EstimatorKind.CLOSED_FORM.value)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_estimate)

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
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_recurrence)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    try:
        started = datetime.now(timezone.utc).isoformat()
        outputs, config, seed, stream_layout = args.func(args)
        if outputs:
            manifest = {
                "command": args.command,
                "argv": list(argv),
                "config": config,
                "seed": seed,
                "version": __version__,
                "started": started,
                "finished": datetime.now(timezone.utc).isoformat(),
                "outputs": outputs,
            }
            if stream_layout is not None:
                manifest["stream_layout"] = stream_layout
            _write(outputs[0] + ".manifest.json", _json_text(manifest))
        return 0
    except DegenerateCountsError as exc:
        print(f"qclock: degenerate input: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, TypeError, OSError) as exc:
        print(f"qclock: error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
