"""The benchmark's three workloads: their inputs, their operations, their checks.

Every input is generated from the workload seed before timing starts; qclock
only receives the generated inputs. An operation is one user request: a CLI
command for the sweeps, one API call for ``analysis``. Each workload runs its
operations in a closed loop with one caller and checks every answer against an
oracle that does not depend on the RNG stream layout.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import exact

REFERENCE = Path(__file__).with_name("reference.json")

# Sampled moments must lie within this many standard errors of the exact ones.
K_SIGMA = 6.0
# The spread's lower limit: the Bernstein bound on the lower tail of a sum of
# squared deviations at the same 1e-9 probability, sqrt(2 ln 1e9) ~ 6.44.
K_LOWER = math.sqrt(2.0 * math.log(1e9))


@dataclass(frozen=True)
class Section:
    """One experiment of a sweep config, as the shipped configs define them."""

    name: str
    spec: tuple
    probes: int
    trials: int
    estimator: str
    t_start: float
    t_stop: float
    t_steps: int
    out: str


# configs/two_qubit_combined.cfg and configs/one_qubit_saturation.cfg, then
# `qclock compare --budget 200`, with seeds taken from the workload seed and a
# fortieth of the shipped trial counts: a pass then takes about 0.2 s, so a
# run holds over a hundred passes (see the README on why the fastest count).
SWEEP_CLOSED = (
    (
        "two_qubit_combined.cfg",
        (
            Section("combined-32-pairs", ("two-qubit", 0.5, 1.0), 32, 100, "combined",
                    0.3, 5.9, 15, "two_qubit_combined_n32.csv"),
            Section("combined-128-pairs", ("two-qubit", 0.5, 1.0), 128, 100, "combined",
                    0.3, 5.9, 15, "two_qubit_combined_n128.csv"),
        ),
    ),
    (
        "one_qubit_saturation.cfg",
        (
            Section("one-qubit-saturation", ("one-qubit", 1.0, 1.0), 100, 100, "closed-form",
                    0.5, 2.6, 8, "one_qubit_saturation.csv"),
        ),
    ),
)
COMPARE = {"budget": 200, "omega": 0.5, "Omega": 1.0, "grid": (0.9, 5.3, 8), "trials": 50}

# Omega / omega = 2.6 is not harmonic, so only the numeric maximizer applies.
# 12 trials per cell, a fortieth of the 500 in the workload's definition.
SWEEP_NUMERIC = (
    (
        "two_qubit_numeric.cfg",
        (
            Section("numeric-32-pairs", ("two-qubit", 0.5, 1.3), 32, 12, "numeric",
                    0.3, 5.9, 15, "two_qubit_numeric_n32.csv"),
        ),
    ),
)


@dataclass(frozen=True)
class Cell:
    """One sampled grid cell and where its numbers sit in an output table."""

    spec: tuple
    n: int
    estimator: str
    t: float
    trials: int
    row: int
    suffix: str  # "" for an error curve, else the compare column suffix


@dataclass
class Op:
    """One timed request and what is needed to check its answer."""

    label: str
    call: object
    units: int = 1
    outputs: tuple = ()
    cells: dict = field(default_factory=dict)  # output path -> [Cell]
    request: object = None


def _grid(start: float, stop: float, steps: int) -> list[float]:
    return [start] if steps == 1 else [float(t) for t in np.linspace(start, stop, steps)]


def _cfg_text(sections, seed: int, workdir: Path) -> str:
    lines = []
    for s in sections:
        kind, omega, extra = s.spec
        extra_key = {"one-qubit": "chi", "two-qubit": "Omega", "ghz": "n"}[kind]
        lines += [
            f"[{s.name}]",
            f"model = {kind}",
            f"omega = {omega!r}",
            f"{extra_key} = {extra!r}",
            f"probes = {s.probes}",
            f"trials = {s.trials}",
            f"seed = {seed}",
            f"estimator = {s.estimator}",
            "curve = error",
            f"t_start = {s.t_start!r}",
            f"t_stop = {s.t_stop!r}",
            f"t_steps = {s.t_steps}",
            f"out = {workdir / s.out}",
            "format = csv",
            "",
        ]
    return "\n".join(lines)


def _cli_call(qc, argv):
    def call():
        code = qc.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"qclock {' '.join(argv)} exited with {code}")

    return call


def _section_cells(s: Section) -> list[Cell]:
    return [Cell(s.spec, s.probes, s.estimator, t, s.trials, i, "")
            for i, t in enumerate(_grid(s.t_start, s.t_stop, s.t_steps))]


def _compare_cells() -> list[Cell]:
    c = COMPARE
    designs = (
        ("one_qubit", ("one-qubit", c["omega"], 1.0), c["budget"], "closed-form"),
        ("two_qubit", ("two-qubit", c["omega"], c["Omega"]), c["budget"] // 2, "combined"),
        ("ghz", ("ghz", c["omega"], 2), c["budget"] // 2, "closed-form"),
    )
    return [Cell(spec, n, estimator, t, c["trials"], i, suffix)
            for i, t in enumerate(_grid(*c["grid"]))
            for suffix, spec, n, estimator in designs]


def sweep_ops(qc, name: str, seed: int, workdir: Path) -> list[Op]:
    """The CLI commands of a sweep workload, with config files written to workdir."""
    rng = random.Random(seed)
    ops = []
    for filename, sections in SWEEP_CLOSED if name == "sweep-closed" else SWEEP_NUMERIC:
        config = workdir / filename
        config.write_text(_cfg_text(sections, rng.randrange(2**63), workdir))
        cells = {workdir / s.out: _section_cells(s) for s in sections}
        ops.append(Op(f"sweep {filename}", _cli_call(qc, ["sweep", str(config)]),
                      units=sum(s.t_steps * s.trials for s in sections),
                      outputs=tuple(cells), cells=cells))
    if name == "sweep-closed":
        c = COMPARE
        out = workdir / "compare.csv"
        argv = ["compare", "--budget", str(c["budget"]), "--omega", str(c["omega"]),
                "--Omega", str(c["Omega"]), "--t-grid", ":".join(map(str, c["grid"])),
                "--trials", str(c["trials"]), "--seed", str(rng.randrange(2**63)),
                "--out", str(out)]
        cells = _compare_cells()
        ops.append(Op("compare --budget 200", _cli_call(qc, argv),
                      units=sum(cell.trials for cell in cells if inside(cell)),
                      outputs=(out,), cells={out: cells}))
    return ops


def reference_cells() -> dict[str, Cell]:
    """Every in-window sweep cell; their exact moments are stored in reference.json."""
    cells = [cell for _, sections in (*SWEEP_CLOSED, *SWEEP_NUMERIC)
             for s in sections for cell in _section_cells(s)]
    cells += _compare_cells()
    return {cell_key(c): c for c in cells if inside(c)}


def inside(cell: Cell) -> bool:
    return 0.0 <= cell.t <= exact.window_top(cell.spec) * (1.0 + 1e-12)


def cell_key(cell: Cell) -> str:
    kind, omega, extra = cell.spec
    return f"{kind}|{omega!r}|{extra!r}|{cell.n}|{cell.estimator}|{cell.t:.12g}|{cell.trials}"


def load_reference() -> dict[str, dict]:
    """The stored exact moments, by cell_key. They were computed once, so a
    later change to qclock's estimators is checked against them, not itself."""
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * abs(b), abs_tol)


def _z(diff: float, se: float) -> float:
    if se > 0.0:
        return diff / se
    return 0.0 if abs(diff) <= 1e-9 else math.inf


def chi2_limit(k: int, z: float = K_SIGMA) -> float:
    """Upper quantile of chi-squared with k degrees of freedom at the normal
    tail of z standard deviations (Wilson-Hilferty), the pooled counterpart of
    the per-cell K_SIGMA check."""
    h = 2.0 / (9.0 * k)
    return k * (1.0 - h + z * math.sqrt(h)) ** 3


def check_cell(cell: Cell, row: dict, moments: dict | None) -> tuple[list[str], float | None]:
    """Compare one sampled cell with its exact moments and its closed-form CRB.

    Returns the problems found and, on an error curve, the standardized
    deviation of the cell's mean for the table's pooled check (else None).
    """
    where = f"{cell.spec} n={cell.n} t={cell.t:.6g}"
    col = (lambda name: f"{name}_{cell.suffix}") if cell.suffix else (lambda name: name)
    if not _close(row["t"], cell.t, 1e-10, 1e-10):
        return [f"{where}: t column reads {row['t']}"], None
    crb = row[col("crb")]
    if not inside(cell):
        spread = row[col("dt")]
        nan = math.isnan(crb) and math.isnan(spread)
        return ([] if nan else [f"{where}: expected NaN outside window"]), None
    problems = []
    expected_crb = 1.0 / math.sqrt(cell.n * exact.fisher_closed_form(cell.spec, cell.t))
    if not _close(crb, expected_crb, 1e-6):
        problems.append(f"{where}: crb {crb} != closed form {expected_crb}")
    if moments is None:
        return problems + [f"{where}: no exact reference for this cell"], None
    own = (row[col("dt")], crb) if cell.suffix else tuple(row.values())
    if not all(math.isfinite(v) for v in own):
        return problems + [f"{where}: non-finite value in {own}"], None
    var, z_mean = moments["var"], None
    if cell.suffix:
        n_valid = cell.trials * moments["mass"]  # compare tables carry no n_valid
        spread = row[col("dt")]
        shift = K_SIGMA**2 * var  # the unseen mean's share, at its own limit
    else:
        n_valid = row["n_valid"]
        spread = row["std_error"]
        expected = cell.trials * moments["mass"]
        slack = K_SIGMA * math.sqrt(expected * max(1.0 - moments["mass"], 0.0)) + 1.0
        if abs(n_valid - expected) > slack:
            problems.append(f"{where}: n_valid {n_valid} vs exact {expected:.1f}")
        mean = row["mean_estimate"]
        z_mean = _z(mean - moments["mean"], math.sqrt(var / max(n_valid, 1)))
        if abs(z_mean) > K_SIGMA:
            problems.append(f"{where}: mean {mean} vs exact {moments['mean']:.9g} "
                            f"({z_mean:.3g} standard errors)")
        if not _close(row["bias"], mean - cell.t, 0.0, 1e-9):
            problems.append(f"{where}: bias {row['bias']} != mean - t")
        shift = n_valid * (mean - moments["mean"]) ** 2
    # n_valid * spread^2 is the sum of squared deviations from the sample
    # mean, which is the sum about the exact mean less `shift`. A rare estimate
    # on the wrong branch makes the upper tail heavy, so its limit is the
    # Chernoff bound stored from the exact distribution; the lower tail of a
    # sum of squares is light.
    sum_sq = n_valid * spread**2
    lower = n_valid * var - K_LOWER * math.sqrt(n_valid * moments["mu4"]) - shift - 1e-12
    if not lower <= sum_sq <= moments["sum_sq_limit"] * (1.0 + 1e-9):
        problems.append(
            f"{where}: spread {spread} vs exact {math.sqrt(var):.9g}")
    return problems, z_mean


def read_table(data: bytes) -> list[dict]:
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def check_outputs(op: Op, files: dict, reference: dict[str, dict]) -> list[str]:
    """Check every cell of a sweep command's output tables, then the means of
    each error curve together: a bias too small to fail any one cell adds up
    over a table."""
    problems = []
    for path, cells in op.cells.items():
        rows = read_table(files[path])
        if len(rows) != len({c.row for c in cells}):
            problems.append(f"{path.name}: {len(rows)} rows")
            continue
        zs = []
        for cell in cells:
            found = reference.get(cell_key(cell)) if inside(cell) else None
            cell_problems, z = check_cell(cell, rows[cell.row], found)
            problems += cell_problems
            if z is not None:
                zs.append(z)
        pooled = sum(z * z for z in zs)
        if zs and pooled > chi2_limit(len(zs)):
            problems.append(f"{path.name}: sum of squared standardized deviations {pooled:.4g} "
                            f"over {len(zs)} cells exceeds {chi2_limit(len(zs)):.4g}")
    return problems


# ---------------------------------------------------------------------------
# analysis: single requests that use no RNG

DESIGNS = ("one-qubit", "two-qubit", "two-qubit-nh", "ghz")

# (request kind, designs it is drawn for, requests per design). Counts are
# fixed so every seed gives the same latency mix: the slowest 0.5% are the
# recurrence scans and one n = 12 enumeration, so p99 falls among the
# two-qubit numeric estimates.
ANALYSIS_MIX = (
    ("distribution", DESIGNS, 75),
    ("evolved_distribution", DESIGNS, 25),
    ("classical_fisher", DESIGNS, 25),
    ("quantum_fisher", DESIGNS, 20),
    ("crb", DESIGNS, 25),
    ("closed-form", ("one-qubit", "two-qubit", "ghz"), 40),
    ("combined", ("two-qubit",), 70),
    ("coarse", ("two-qubit", "two-qubit-nh"), 30),
    ("numeric", DESIGNS, 10),
    ("mean_curve", ("one-qubit", "ghz"), 15),
    ("mean_curve_small", ("two-qubit",), 14),
    ("mean_curve_n12", ("two-qubit",), 1),
    ("recurrence", DESIGNS, 1),
)


@dataclass
class Request:
    kind: str
    spec: tuple
    args: tuple
    label: str


def _draw_spec(rng: random.Random, design: str, j: int) -> tuple:
    if design == "one-qubit":
        return ("one-qubit", rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.0))
    if design == "two-qubit":
        omega = rng.uniform(0.4, 0.6)
        return ("two-qubit", omega, 2.0 * omega)
    if design == "two-qubit-nh":
        return ("two-qubit", 0.5, 1.3)
    return ("ghz", rng.uniform(0.5, 1.5), 2 + j % 3)


def _recurrence_spec(rng: random.Random, design: str) -> tuple:
    # Fixed frequencies: a scan's length is set by the recurrence time, and
    # these scans are the largest share of a pass, so its cost stays the
    # same for every seed.
    if design == "one-qubit":
        return ("one-qubit", 1.0, rng.uniform(0.3, 1.0))
    if design == "two-qubit":
        return ("two-qubit", 0.5, 1.0)
    if design == "two-qubit-nh":
        return ("two-qubit", 0.5, 1.3)
    return ("ghz", 1.0, 3)


def _interior_time(rng: random.Random, spec) -> float:
    # Away from the window edges and from times where an outcome probability
    # vanishes, where the finite-difference Fisher information degenerates.
    while True:
        t = rng.uniform(0.05, 0.95) * exact.window_top(spec)
        if min(exact.outcome_probs(spec, t)) > 1e-6:
            return t


def _draw_counts(rng: random.Random, spec, kind: str) -> tuple[int, ...]:
    while True:
        probs = exact.outcome_probs(spec, rng.uniform(0.05, 0.95) * exact.window_top(spec))
        ks = [0] * len(probs)
        for _ in range(rng.randint(20, 200)):
            u, i = rng.random(), 0
            while i < len(probs) - 1 and u >= probs[i]:
                u -= probs[i]
                i += 1
            ks[i] += 1
        if spec[0] != "two-qubit" or kind == "numeric":
            return tuple(ks)
        slow_events = ks[2] + ks[3] > 0
        quartic = ks[0] + ks[3] > 0
        if slow_events and (kind == "coarse" or quartic):
            return tuple(ks)


def analysis_requests(seed: int) -> list[Request]:
    """The request stream, drawn from the seed with fixed counts per kind and design."""
    rng = random.Random(seed)
    stream = []
    for kind, designs, per_design in ANALYSIS_MIX:
        for design in designs:
            for j in range(per_design):
                if kind == "recurrence":
                    spec = _recurrence_spec(rng, design)
                else:
                    spec = _draw_spec(rng, design, j)
                if kind == "distribution":
                    args = (rng.uniform(0.0, 2.0) * exact.window_top(spec),)
                elif kind in ("evolved_distribution", "classical_fisher", "quantum_fisher"):
                    args = (_interior_time(rng, spec),)
                elif kind == "crb":
                    args = (_interior_time(rng, spec), rng.randint(1, 1000))
                elif kind in ("closed-form", "combined", "coarse", "numeric"):
                    args = (_draw_counts(rng, spec, kind),)
                elif kind.startswith("mean_curve"):
                    n = {"mean_curve": rng.randint(2, 12), "mean_curve_small": 3,
                         "mean_curve_n12": 12}[kind]
                    args = (n, rng.uniform(0.1, 0.9) * exact.window_top(spec))
                else:
                    args = ()
                stream.append(Request(kind, spec, args, f"{kind}[{design}]"))
    rng.shuffle(stream)
    return stream


def _estimator_kind(req: Request) -> str:
    if req.kind.startswith("mean_curve"):
        return "combined" if req.spec[0] == "two-qubit" else "closed-form"
    return req.kind


# How each request calls qclock. Module attributes are looked up at call
# time, so the traced run sees every call.
CALLS = {
    "distribution": lambda qc, model, t: model.distribution(t),
    "evolved_distribution": lambda qc, model, t: qc.clocks.evolved_distribution(model, t),
    "classical_fisher": lambda qc, model, t: qc.fisher.classical_fisher(model, t),
    "quantum_fisher": lambda qc, model, t: qc.fisher.quantum_fisher(model, t),
    "crb": lambda qc, model, t, n: qc.fisher.crb(model, t, n),
    "recurrence": lambda qc, model: qc.clocks.recurrence_time(model),
    "mean_curve": lambda qc, config: qc.montecarlo.mean_estimator_curve(config),
    "estimate": lambda qc, model, counts, kind: qc.montecarlo.apply_estimator(model, counts, kind),
}


def analysis_ops(qc, seed: int) -> list[Op]:
    """Bind each request of the stream to its qclock call."""
    ops = []
    for req in analysis_requests(seed):
        model = exact.make_model(qc, req.spec)
        if req.kind.startswith("mean_curve"):
            n, t = req.args
            config = qc.montecarlo.ExperimentConfig(
                model=model, n_probes=n, t_grid=(t,), trials=1, seed=0,
                estimator=qc.montecarlo.EstimatorKind(_estimator_kind(req)))
            call, args = "mean_curve", (config,)
        elif req.kind in ("closed-form", "combined", "coarse", "numeric"):
            counts = exact.count_vector(qc, req.spec, req.args[0])
            call, args = "estimate", (model, counts, qc.montecarlo.EstimatorKind(req.kind))
        else:
            call, args = req.kind, (model, *req.args)
        ops.append(Op(req.label, functools.partial(CALLS[call], qc, *args), request=req))
    return ops


def answer_of(result):
    """A plain, comparable form of a request's result."""
    if hasattr(result, "probs"):
        return tuple(result.probs.items())
    if hasattr(result, "degenerate"):
        return (result.value, result.degenerate)
    if hasattr(result, "t_hat"):
        return (result.t_hat, result.branch.value, result.valid, tuple(result.window))
    if hasattr(result, "points"):
        return tuple(result.rows())
    return result


def _log_likelihood(spec, ks, ts: np.ndarray) -> np.ndarray:
    total = np.zeros_like(ts)
    with np.errstate(divide="ignore"):
        for k, p in zip(ks, exact.outcome_probs(spec, ts)):
            if k:
                total = total + k * np.log(p)
    return total


def check_request(qc, req: Request, answer) -> list[str]:
    """Compare one analysis answer with its oracle."""
    spec, where = req.spec, f"{req.label} {req.spec} {req.args}"
    model = exact.make_model(qc, spec)
    kind = req.kind
    if kind in ("distribution", "evolved_distribution"):
        (t,) = req.args
        other = (qc.clocks.evolved_distribution(model, t) if kind == "distribution"
                 else model.distribution(t))
        got = dict(answer)
        bad = [x for x, p in other.probs.items() if not _close(got.get(x, math.inf), p, 0.0, 1e-10)]
        return [f"{where}: outcomes {bad} disagree with the oracle"] if bad else []
    if kind in ("classical_fisher", "quantum_fisher", "crb"):
        t = req.args[0]
        if kind == "quantum_fisher":
            value, expected = answer[0], exact.quantum_fisher_closed_form(spec)
        elif kind == "classical_fisher":
            if spec[0] == "one-qubit":
                expected = qc.fisher.fisher_one_qubit_analytic(spec[2], spec[1], t).value
            else:
                expected = exact.fisher_closed_form(spec, t)
            value = answer[0]
            if answer[1]:
                return [f"{where}: flagged degenerate"]
        else:
            value = answer
            expected = 1.0 / math.sqrt(req.args[1] * exact.fisher_closed_form(spec, t))
        return [] if _close(value, expected, 1e-6) else [f"{where}: {value} != {expected}"]
    if kind == "recurrence":
        top = exact.window_top(spec)
        period = 20.0 * math.pi if spec == ("two-qubit", 0.5, 1.3) else 2.0 * top
        ok = answer is not None and period - 0.02 <= answer <= period + 1e-9
        return [] if ok else [f"{where}: recurrence {answer} vs known {period}"]
    if kind.startswith("mean_curve"):
        n, t = req.args
        moments = exact.estimator_moments(qc, spec, n, t, _estimator_kind(req))
        ((t_row, mean, std, bias, crb, n_valid),) = answer
        # Spreads are compared as variances: a one-pass variance of a single
        # estimate is zero only up to rounding, and its square root is not.
        row = (t_row, mean, std * std, bias, crb, n_valid)
        expected = (t, moments["mean"], moments["var"], moments["mean"] - t,
                    1.0 / math.sqrt(n * exact.fisher_closed_form(spec, t)), moments["count"])
        # The CRB column carries the finite-difference Fisher error.
        tolerances = (1e-9, 1e-9, 1e-9, 1e-9, 1e-6, 0.0)
        ok = all(_close(a, b, rel, 1e-9) for a, b, rel in zip(row, expected, tolerances))
        return [] if ok else [f"{where}: {row} != enumeration {expected}"]
    return _check_estimate(qc, req, model, answer, where)


def _check_estimate(qc, req: Request, model, answer, where: str) -> list[str]:
    spec, (ks,) = req.spec, req.args
    t_hat, branch, _valid, (lo, hi) = answer
    counts = exact.count_vector(qc, spec, ks)
    top = exact.window_top(spec)
    if not lo - 1e-12 <= t_hat <= hi + 1e-12:
        return [f"{where}: estimate {t_hat} outside its window"]
    if req.kind == "numeric":
        # The estimate maximizes the likelihood up to the 2001-point grid's
        # resolution; compare with a ten times finer scan.
        ts = np.linspace(0.0, top, 20001)
        best = float(np.max(_log_likelihood(spec, ks, ts)))
        got = float(_log_likelihood(spec, ks, np.array([t_hat]))[0])
        ok = got >= best - 1e-3 - 1e-9 * abs(best)
        return [] if ok else [f"{where}: log-likelihood {got} below grid maximum {best}"]
    window = None
    if req.kind == "coarse":
        # The slow-sector tallies alone: a one-qubit likelihood at omega.
        km, kp = ks[2], ks[3]
        spec, ks, window = ("one-qubit", spec[1], 1.0), (km, kp), (0.0, top)
        model, counts = qc.OneQubitClock(omega=spec[1]), qc.OneQubitCounts(kp + km, km)
    elif spec[0] == "two-qubit":
        half = 0.5 * top
        window = (0.0, half) if branch == "root1" else (half, top)
    oracle = qc.estimators.mle_numeric(model, counts, window=window).t_hat
    if abs(t_hat - oracle) <= 1e-6:
        return []
    # Near a window edge the likelihood is flat and the maximizer places its
    # maximum loosely; the closed form must then be at least as likely.
    ll = _log_likelihood(spec, ks, np.array([t_hat, oracle]))
    if ll[0] >= ll[1] - 1e-9 * max(1.0, abs(ll[1])):
        return []
    return [f"{where}: estimate {t_hat} != numeric maximizer {oracle}"]
