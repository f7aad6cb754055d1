"""Sweep machinery: sampling, determinism, and exact count enumeration.

The oracles here are the binomial/multinomial laws themselves (frequency
checks at large n), hand-enumerated expectations for the exact curves, the
per-vector loop (a float-product pmf, scalar estimator) that the batched
exact curves replaced, and the requirement that every result is a
pure function of (config, seed) in which each grid cell depends on its own
index and time alone.
"""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qclock import (
    ConfigError,
    DegenerateCountsError,
    ErrorCurve,
    EstimatorKind,
    ExperimentConfig,
    GhzClock,
    GhzCounts,
    OneQubitClock,
    OneQubitCounts,
    ResourceComparison,
    Tallies,
    TwoQubitClock,
    TwoQubitCounts,
    apply_estimator,
    apply_estimator_batch,
    cell_rngs,
    compare_resources,
    error_curve,
    mean_estimator_curve,
    sample_counts,
)
import qclock
from qclock import estimators, montecarlo
from qclock.clocks import count_tallies
from qclock.montecarlo import MAX_EXACT_DOUBLES, _summarize

from test_estimators import count_space, reordered_product


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        model=OneQubitClock(omega=1.0),
        n_probes=20,
        t_grid=(0.8, 1.4, 2.0),
        trials=50,
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestCellRng:
    def test_reproducible_per_cell(self):
        a = cell_rngs(5, 3)[2].integers(10**9)
        b = cell_rngs(5, 3)[2].integers(10**9)
        assert a == b

    def test_cells_are_distinct_streams(self):
        draws = {rng.integers(10**12) for rng in cell_rngs(5, 16)}
        assert len(draws) == 16

    def test_seed_changes_stream(self):
        assert cell_rngs(1, 1)[0].integers(10**12) != cell_rngs(2, 1)[0].integers(10**12)


def numpy_stream(seed: int, t_index: int) -> np.random.Generator:
    # A cell's stream as numpy itself derives it (STREAM_LAYOUT): the oracle
    # of cell_rngs, which seeds all cells in one pass of its own.
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t_index,)))


def run_python(code: str) -> str:
    # Runs code in a fresh interpreter that imports this qclock; its stdout.
    src = Path(qclock.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


SEED_EDGES = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1)


def test_cell_rngs_equal_numpy_seed_sequence_streams():
    # Seeds of one and of two entropy words, at their edges, and two drawn at random.
    drawn = np.random.default_rng(20261021).integers(2**64, size=2, dtype=np.uint64)
    for seed in (*SEED_EDGES, *map(int, drawn)):
        rngs = cell_rngs(seed, 64)
        assert len(rngs) == 64
        for i, rng in enumerate(rngs):
            oracle = numpy_stream(seed, i)
            assert rng.bit_generator.state == oracle.bit_generator.state, (seed, i)
            assert rng.integers(2**63, size=4).tolist() == oracle.integers(2**63, size=4).tolist()
            assert rng.random() == oracle.random()


def test_cell_rngs_reject_what_the_one_pass_cannot_seed():
    for seed in (-1, 2**64, 1.0, True):
        with pytest.raises(ValueError, match="^seed must be a 64-bit unsigned integer"):
            cell_rngs(seed, 3)
    for cells in (0, -1, 2.0):
        with pytest.raises(ValueError, match="^cells must be a positive integer"):
            cell_rngs(3, cells)


def test_cell_rng_seed_seq_holds_only_the_pcg64_state_words():
    # The stand-in seed sequence answers PCG64's one request and no other,
    # and has no spawn() or entropy, as its docstring declares.
    (rng,) = cell_rngs(7, 1)
    seed_seq = rng.bit_generator.seed_seq
    words = seed_seq.generate_state(4, np.uint64)
    assert words.dtype == np.uint64 and words.shape == (4,)
    for args in ((8,), (4, np.uint32), (8, np.uint64)):
        with pytest.raises(ValueError, match="^holds only PCG64's seed words"):
            seed_seq.generate_state(*args)
    assert not hasattr(seed_seq, "spawn") and not hasattr(seed_seq, "entropy")


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/statm")
def test_cell_count_past_one_spawn_word_is_rejected_before_allocating():
    # Under an address-space limit 1 GiB above the process's size, far below
    # the 16 GiB the spawn words of 2**32 + 1 cells would take, the bound must
    # raise ValueError rather than a MemoryError.
    stdout = run_python(
        "import resource\n"
        "import qclock\n"
        "with open('/proc/self/statm') as fh:\n"
        "    size = int(fh.read().split()[0]) * resource.getpagesize()\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (size + 2**30, hard))\n"
        "try:\n"
        "    qclock.cell_rngs(3, 2**32 + 1)\n"
        "except ValueError as error:\n"
        "    print(error)\n"
    )
    assert stdout == f"cells must be at most {2**32}, got {2**32 + 1}\n"


def test_import_leaves_numpy_random_unloaded():
    # cell_rngs registers its seed sequence with numpy.random on first use;
    # importing qclock loads numpy.random only where numpy itself does.
    stdout = run_python(
        "import sys\n"
        "import numpy\n"
        "before = 'numpy.random' in sys.modules\n"
        "import qclock\n"
        "print(before, 'numpy.random' in sys.modules)\n"
    )
    before, after = stdout.split()
    assert after == before


def test_sweep_tallies_equal_sample_counts_on_numpy_streams(monkeypatch):
    # The tally array error_curve estimates is, cell for cell, what
    # sample_counts draws at that time from numpy's own stream of the cell.
    estimated = []

    def record(model, counts, kind):
        estimated.append(counts)
        return np.zeros(len(counts)), np.ones(len(counts), dtype=bool)

    monkeypatch.setattr(montecarlo, "apply_estimator_batch", record)
    models = (
        *(OneQubitClock(omega=1.3, chi=chi) for chi in (0.0, 0.36, 1.0)),
        *(TwoQubitClock(omega=0.5, Omega=ratio * 0.5) for ratio in (2.0, 2.6)),
        *(GhzClock(omega=0.8, n_entangled=n) for n in (2, 3, 4, 5)),
    )
    trials = 30
    for model in models:
        kind = EstimatorKind.CLOSED_FORM
        if isinstance(model, TwoQubitClock) and not model.harmonic:
            kind = EstimatorKind.NUMERIC
        grid = tuple(np.linspace(0.0, model.window_top, 9).tolist())
        for n_probes in (1, 7, 32, 128):
            for seed in (3, 2**64 - 1):
                estimated.clear()
                for cells in (grid, grid[:4]):
                    error_curve(ExperimentConfig(model, n_probes, cells, trials, seed, kind))
                full, prefix = estimated
                assert full.shape == (len(grid) * trials, len(model.class_sizes))
                for i, t in enumerate(grid):
                    want = sample_counts(model, n_probes, t, numpy_stream(seed, i), trials)
                    assert full[i * trials : (i + 1) * trials].tolist() == want.tolist()
                assert prefix.tolist() == full[: 4 * trials].tolist()


class TestSampleCounts:
    def test_one_qubit_endpoints(self):
        model = OneQubitClock(omega=1.0)
        rng = np.random.default_rng(0)
        zero = sample_counts(model, 40, 0.0, rng, 5)
        assert zero.tolist() == [[*OneQubitCounts(40, 0)]] * 5
        full = sample_counts(model, 40, math.pi, rng, 5)
        assert full.tolist() == [[*OneQubitCounts(40, 40)]] * 5

    def test_one_qubit_frequency(self):
        model = OneQubitClock(omega=1.0)
        n = 100_000
        (k_minus, k_plus), = sample_counts(model, n, 1.0, np.random.default_rng(3), 1)
        p = math.sin(0.5) ** 2
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert k_minus + k_plus == n
        assert abs(k_minus / n - p) < 4.0 * sigma

    def test_two_qubit_label_mapping(self):
        # Tally columns must track their sector probabilities, not just sum to n.
        model = TwoQubitClock(omega=0.5, Omega=1.0)
        n = 100_000
        t = 1.3
        (row,) = sample_counts(model, n, t, np.random.default_rng(4), 1)
        counts = TwoQubitCounts(*map(int, row))
        fast_minus, fast_plus, slow_minus, slow_plus = counts
        expected = {
            slow_plus: 0.5 * math.cos(0.25 * t) ** 2,
            slow_minus: 0.5 * math.sin(0.25 * t) ** 2,
            fast_plus: 0.5 * math.cos(0.5 * t) ** 2,
            fast_minus: 0.5 * math.sin(0.5 * t) ** 2,
        }
        assert sum(counts) == n
        for tally, p in expected.items():
            sigma = math.sqrt(p * (1.0 - p) / n)
            assert abs(tally / n - p) < 4.0 * sigma

    def test_ghz_parity_endpoint_and_frequency(self):
        model = GhzClock(omega=1.0, n_entangled=2)
        rng = np.random.default_rng(5)
        peak = sample_counts(model, 30, math.pi / 2.0, rng, 5)
        assert peak.tolist() == [[*GhzCounts(30, 30)]] * 5
        n = 100_000
        (k_odd, k_even), = sample_counts(model, n, 0.6, np.random.default_rng(6), 1)
        p = math.sin(0.6) ** 2
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert k_odd + k_even == n
        assert abs(k_odd / n - p) < 4.0 * sigma

    def test_rejects_nonpositive_probe_count(self):
        # A float or bool count is no probe count: numpy would truncate 2.5
        # to 2 and read True as 1.
        for n_probes in (0, 2.5, True, np.bool_(True)):
            with pytest.raises(ValueError):
                sample_counts(OneQubitClock(omega=1.0), n_probes, 1.0, np.random.default_rng(0), 3)

    def test_rejects_non_finite_time_and_bad_trial_count(self):
        # Checked before numpy sees them, which would read a NaN time as NaN
        # probabilities, -1 trials as a negative dimension, and 0 as none.
        model, rng = OneQubitClock(omega=1.0), np.random.default_rng(0)
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^time must be finite"):
                sample_counts(model, 5, t, rng, 3)
        for trials in (0, -1, 2.5, True):
            with pytest.raises(ValueError, match="^trials must be a positive integer"):
                sample_counts(model, 5, 1.0, rng, trials)
        assert sample_counts(model, 5, 1.0, rng, np.int64(2)).shape == (2, 2)

    def test_probe_count_past_int64_is_rejected(self):
        # numpy's multinomial counts in int64: past it, an OverflowError.
        model, rng = TwoQubitClock(omega=0.5, Omega=1.3), np.random.default_rng(0)
        message = f"^n_probes must be at most {2**63 - 1}, got {2**63}$"
        with pytest.raises(ValueError, match=message):
            sample_counts(model, 2**63, 1.0, rng, 2)
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(model, 2**63, (1.0,), 2, 1, EstimatorKind.NUMERIC)
        rows = sample_counts(model, 2**63 - 1, 1.0, rng, 2)
        assert rows.sum(axis=1).tolist() == [2**63 - 1] * 2
        assert ExperimentConfig(model, 2**63 - 1, (1.0,), 2, 1, EstimatorKind.NUMERIC)


def _three_branch_sample_counts(model, n_probes, t, rng, trials):
    # The per-design sampler the multinomial one replaced: binomial draws of
    # the |-> tally and of the GHZ parity tally, a multinomial over the four
    # two-qubit tallies, with the probabilities from math.sin.
    if isinstance(model, OneQubitClock):
        k = rng.binomial(n_probes, model.chi * math.sin(0.5 * model.omega * t) ** 2, size=trials)
    elif isinstance(model, TwoQubitClock):
        fast = math.sin(0.5 * model.Omega * t) ** 2
        slow = math.sin(0.5 * model.omega * t) ** 2
        pvals = np.clip([0.5 * fast, 0.5 * (1.0 - fast), 0.5 * slow, 0.5 * (1.0 - slow)], 0.0, 1.0)
        return rng.multinomial(n_probes, pvals / pvals.sum(), size=trials)
    else:
        p_odd = math.sin(0.5 * model.n_entangled * model.omega * t) ** 2
        k = rng.binomial(n_probes, min(p_odd, 1.0), size=trials)
    return np.column_stack((k, n_probes - k))


def test_sampler_matches_three_branch_sampler():
    models = (
        *(OneQubitClock(omega=1.3, chi=chi) for chi in (0.0, 0.36, 1.0)),
        *(TwoQubitClock(omega=0.5, Omega=ratio * 0.5) for ratio in (2.0, 2.6)),
        *(GhzClock(omega=0.8, n_entangled=n) for n in (2, 3, 4, 5)),
    )
    cells = 0
    for model in models:
        for t in np.linspace(0.0, model.window_top, 9):
            for n_probes in (1, 7, 32, 128):
                for seed in (3, 20260819):
                    got = sample_counts(model, n_probes, float(t), cell_rngs(seed, 1)[0], 40)
                    want = _three_branch_sample_counts(
                        model, n_probes, float(t), cell_rngs(seed, 1)[0], 40
                    )
                    assert got.tolist() == want.tolist(), (model, t, n_probes, seed)
                    cells += 1
    assert cells == 9 * 9 * 4 * 2


def test_batch_dispatch_matches_apply_estimator():
    # Every model and estimator pairing the configs accept, on count rows
    # that include degenerate and clipped ones.
    cases = (
        (OneQubitClock(omega=1.0, chi=0.6), EstimatorKind.CLOSED_FORM),
        (OneQubitClock(omega=1.0, chi=0.6), EstimatorKind.NUMERIC),
        (GhzClock(omega=1.0, n_entangled=3), EstimatorKind.CLOSED_FORM),
        (TwoQubitClock(omega=0.5, Omega=1.0), EstimatorKind.CLOSED_FORM),
        (TwoQubitClock(omega=0.5, Omega=1.0), EstimatorKind.COMBINED),
        (TwoQubitClock(omega=0.5, Omega=1.0), EstimatorKind.COARSE),
        (TwoQubitClock(omega=0.5, Omega=1.3), EstimatorKind.NUMERIC),
    )
    for model, kind in cases:
        if isinstance(model, TwoQubitClock):
            rows = np.array([[0, 3, 0, 0], [0, 1, 2, 0], [2, 1, 0, 3], [1, 1, 1, 1], [4, 0, 2, 2]])
            vectors = [TwoQubitCounts(*map(int, row)) for row in rows]
        else:
            rows = np.array([[0, 4], [1, 3], [3, 1], [4, 0]])
            kind_of = OneQubitCounts if isinstance(model, OneQubitClock) else GhzCounts
            vectors = [kind_of(4, int(row[0])) for row in rows]
        t_hat, valid = apply_estimator_batch(model, rows, kind)
        for counts, t, ok in zip(vectors, t_hat, valid):
            try:
                report = apply_estimator(model, counts, kind)
            except DegenerateCountsError:
                assert math.isnan(t) and not ok
                continue
            assert ok == report.valid
            assert t == pytest.approx(report.t_hat, abs=1e-12)


def test_dispatch_rejects_pairs_without_an_estimator():
    # ConfigError, as for a sweep configuration, rather than a failure inside
    # an estimator that was never meant for the model.
    anharmonic = TwoQubitClock(omega=0.5, Omega=1.3)
    for model, counts, kind in (
        (OneQubitClock(omega=1.0), OneQubitCounts(4, 1), EstimatorKind.COMBINED),
        (GhzClock(omega=1.0), GhzCounts(4, 1), EstimatorKind.COARSE),
        (anharmonic, TwoQubitCounts(1, 2, 3, 4), EstimatorKind.CLOSED_FORM),
    ):
        with pytest.raises(ConfigError):
            apply_estimator(model, counts, kind)
        with pytest.raises(ConfigError):
            apply_estimator_batch(model, np.array([counts]), kind)


def test_batch_dispatch_rejects_malformed_tallies():
    # Each of these once returned a number (a negative tally estimated, a
    # float tally truncated) or a bare numpy error; each now raises a
    # ValueError that names the kernel apply_estimator_batch resolved.
    cases = [
        (OneQubitClock(omega=1.0), [[-1, 3]], EstimatorKind.CLOSED_FORM, "mle_single_pair_batch"),
        (TwoQubitClock(omega=0.5, Omega=1.3), [[1, -2, 3, 4]], EstimatorKind.NUMERIC,
         "mle_numeric_batch"),
        (GhzClock(omega=1.0), [[0.5, 2.9]], EstimatorKind.CLOSED_FORM, "mle_single_pair_batch"),
        (OneQubitClock(omega=1.0), [[1, 2, 3]], EstimatorKind.CLOSED_FORM, "mle_single_pair_batch"),
        (OneQubitClock(omega=1.0), [[1, 2, 3, 4]], EstimatorKind.NUMERIC, "mle_numeric_batch"),
        (TwoQubitClock(omega=0.5, Omega=1.0), [[1, 2]], EstimatorKind.COARSE,
         "coarse_estimator_batch"),
        (TwoQubitClock(omega=0.5, Omega=1.0), [[1, 2, 3]], EstimatorKind.COMBINED,
         "combined_estimator_batch"),
    ]
    for model, counts, kind, name in cases:
        with pytest.raises(ValueError, match=f"^{name} expects"):
            apply_estimator_batch(model, np.array(counts), kind)


class TestExperimentConfig:
    def test_rejects_bad_counts_and_seed(self):
        for overrides in (
            dict(n_probes=0),
            dict(n_probes=2.0),
            dict(n_probes=True),
            dict(trials=0),
            dict(trials=1.5),
            dict(trials=True),
            dict(seed=-1),
            dict(seed=2**64),
            dict(seed="7"),
        ):
            with pytest.raises(ConfigError):
                small_config(**overrides)

    def test_accepts_numpy_integers(self):
        config = small_config(n_probes=np.int64(20), trials=np.int32(50), seed=np.uint64(11))
        assert config == small_config()
        assert all(type(v) is int for v in (config.n_probes, config.trials, config.seed))
        assert small_config(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1
        for overrides in (
            dict(n_probes=np.int64(0)),
            dict(n_probes=np.bool_(True)),
            dict(trials=np.bool_(True)),
            dict(trials=np.int8(-1)),
            dict(seed=np.int64(-1)),
            dict(seed=np.bool_(False)),
        ):
            with pytest.raises(ConfigError):
                small_config(**overrides)

    def test_rejects_bad_grid(self):
        for grid in ((), (1.0, 1.0), (2.0, 1.0), (-0.1, 1.0), (1.0, 3.3)):
            with pytest.raises(ConfigError):
                small_config(t_grid=grid)

    def test_rejects_bad_frequency_by_name(self):
        # The pair's clock is built before its estimator is chosen, so its
        # own check names the parameter.
        for omega, Omega, name in ((-0.5, 1.0, "omega"), (0.0, 1.0, "omega"),
                                   (math.nan, 1.0, "omega"), (0.5, 0.0, "Omega")):
            with pytest.raises(ValueError, match=f"^{name} must be a positive finite real"):
                compare_resources(4, omega, Omega, (1.0,), trials=5, seed=1)

    def test_rejects_non_finite_times(self):
        # Every comparison with NaN is false, so the ordering and window
        # checks alone would let these through.
        for grid in ((math.nan,), (0.5, math.nan), (0.5, math.inf)):
            with pytest.raises(ConfigError):
                small_config(t_grid=grid)

    def test_grid_must_fit_model_window(self):
        ghz = GhzClock(omega=1.0, n_entangled=4)
        with pytest.raises(ConfigError):
            small_config(model=ghz, t_grid=(0.3, 1.0))
        small_config(model=ghz, t_grid=(0.3, 0.7))

    def test_estimator_model_compatibility(self):
        with pytest.raises(ConfigError):
            small_config(estimator=EstimatorKind.COMBINED)
        with pytest.raises(ConfigError):
            small_config(
                model=GhzClock(omega=1.0, n_entangled=2),
                t_grid=(0.4, 1.0),
                estimator=EstimatorKind.COARSE,
            )
        anharmonic = TwoQubitClock(omega=1.0, Omega=1.7)
        for kind in (EstimatorKind.CLOSED_FORM, EstimatorKind.COMBINED):
            with pytest.raises(ConfigError):
                small_config(model=anharmonic, t_grid=(0.5, 1.5), estimator=kind)
        small_config(model=anharmonic, t_grid=(0.5, 1.5), estimator=EstimatorKind.NUMERIC)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        cfg = small_config()
        assert error_curve(cfg) == error_curve(cfg)

    def test_grid_prefix_reproduces_cells(self):
        full = error_curve(small_config())
        prefix = error_curve(small_config(t_grid=(0.8, 1.4)))
        assert prefix.points == full.points[:2]

    def test_changing_one_time_leaves_other_cells(self):
        base = error_curve(small_config()).points
        moved = error_curve(small_config(t_grid=(0.8, 1.5, 2.0))).points
        assert moved[0] == base[0] and moved[2] == base[2]
        assert moved[1] != base[1]

    def test_numeric_blocks_do_not_change_estimates(self, monkeypatch):
        # Every count vector of 32 pairs at Omega / omega = 2.6, where some
        # grid maxima sit within rounding of a tie, and of 24 pairs at
        # Omega = 2 omega, where some are exact ties. A BLAS product may round
        # a row differently in blocks of another size, and a product that
        # reorders its sums rounds differently again. Under every blocking,
        # the certificate must send each row whose grid decision such
        # rounding could move to the tally-order sum.
        model = TwoQubitClock(omega=0.5, Omega=1.3)
        spaces = (
            (model, count_space(32, 4)),
            (TwoQubitClock(omega=0.5, Omega=1.0), count_space(24, 4)),
        )
        cfg = small_config(
            model=model,
            n_probes=32,
            t_grid=(0.9, 3.0, 5.5),
            trials=45,
            estimator=EstimatorKind.NUMERIC,
        )
        runs = []
        blockings = (1, 7, 32, estimators.BLOCK_ROWS, 10_000)
        for product in (estimators._grid_product, reordered_product()):
            monkeypatch.setattr(estimators, "_grid_product", product)
            for block_rows in blockings:
                monkeypatch.setattr(estimators, "BLOCK_ROWS", block_rows)
                estimates = [
                    b.tobytes() for m, rows in spaces for b in estimators.mle_numeric_batch(m, rows)
                ]
                runs.append((estimates, error_curve(cfg)))
        assert all(run == runs[0] for run in runs[1:])

    def test_one_generator_call_per_cell(self, monkeypatch):
        # The whole cell comes from one generator and one draw: no per-trial
        # generator is left in the path.
        made = []

        class CountingRng:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def __getattr__(self, name):
                method = getattr(self.rng, name)

                def counted(*args, **kwargs):
                    self.calls += 1
                    return method(*args, **kwargs)

                return counted

        def counting(make):
            def counting_make(*args, **kwargs):
                made.append(CountingRng(make(*args, **kwargs)))
                return made[-1]

            return counting_make

        # Every generator, whether numpy's default_rng builds it or it is
        # built from a bit generator, is counted along with its calls.
        for name in ("default_rng", "Generator"):
            monkeypatch.setattr(np.random, name, counting(getattr(np.random, name)))
        for model, grid in (
            (OneQubitClock(omega=1.0), (0.8, 1.4, 2.0)),
            (TwoQubitClock(omega=0.5, Omega=1.0), (0.8, 1.4, 2.0)),
            (GhzClock(omega=1.0, n_entangled=2), (0.4, 1.0)),
        ):
            made.clear()
            estimator = EstimatorKind.CLOSED_FORM
            if isinstance(model, TwoQubitClock):
                estimator = EstimatorKind.COMBINED
            error_curve(small_config(model=model, t_grid=grid, estimator=estimator))
            assert [rng.calls for rng in made] == [1] * len(grid)

    def test_single_trial_has_zero_spread(self):
        cfg = small_config(trials=1)
        for point in error_curve(cfg).points:
            assert point.n_valid == 1
            assert point.std_error == 0.0
            assert point.bias == point.mean_estimate - point.t


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 127, 128, 129, 4000, 10000])
def test_summary_moments_equal_ndarray_methods(n):
    # The lengths straddle the edges of numpy's pairwise summation blocks.
    rng = np.random.default_rng(n)
    for estimates in (rng.uniform(0.0, math.pi, n), np.full(n, 1.7)):
        point = _summarize(0.5, estimates, 0.1)
        assert point.mean_estimate == float(estimates.mean())
        assert point.std_error == float(estimates.std(ddof=0))
        assert point.bias == point.mean_estimate - 0.5
        assert point.n_valid == n


class TestErrorCurve:
    def test_one_qubit_spread_matches_bound(self):
        # 100 probes at the sweet spot: the sampled spread sits on 1/sqrt(n F).
        cfg = ExperimentConfig(
            model=OneQubitClock(omega=1.0),
            n_probes=100,
            t_grid=(math.pi / 2.0,),
            trials=4000,
            seed=101,
        )
        point = error_curve(cfg).points[0]
        assert point.crb == pytest.approx(0.1, rel=1e-6)
        assert point.std_error == pytest.approx(0.1, rel=0.10)

    def test_two_qubit_combined_spread_matches_bound(self):
        cfg = ExperimentConfig(
            model=TwoQubitClock(omega=0.5, Omega=1.0),
            n_probes=100,
            t_grid=(2.0,),
            trials=4000,
            seed=202,
            estimator=EstimatorKind.COMBINED,
        )
        point = error_curve(cfg).points[0]
        assert point.crb == pytest.approx(1.0 / math.sqrt(62.5), rel=1e-6)
        assert point.std_error == pytest.approx(point.crb, rel=0.15)
        assert point.n_valid == 4000

    def test_unbiased_and_saturating_inside_window(self):
        # Interior of (0, pi/omega): bias below 3 sigma of the mean, spread
        # within [0.85, 1.3] of the bound.
        trials = 600
        cfg = ExperimentConfig(
            model=OneQubitClock(omega=1.0),
            n_probes=100,
            t_grid=tuple(np.linspace(0.7, 2.4, 7)),
            trials=trials,
            seed=777,
        )
        for point in error_curve(cfg).points:
            assert abs(point.bias) <= 3.0 * point.std_error / math.sqrt(trials)
            assert 0.85 <= point.std_error / point.crb <= 1.3

    def test_crb_nan_at_degenerate_grid_time(self):
        cfg = small_config(t_grid=(0.0, 1.0))
        points = error_curve(cfg).points
        assert math.isnan(points[0].crb)
        assert points[0].mean_estimate == 0.0
        assert points[1].crb > 0.0

    def test_clipped_trials_are_excluded(self):
        # chi=0.25 with 4 probes clips whenever k > n chi, so some trials
        # must drop out while the rest still form a finite summary.
        cfg = ExperimentConfig(
            model=OneQubitClock(omega=1.0, chi=0.25),
            n_probes=4,
            t_grid=(2.8,),
            trials=200,
            seed=55,
        )
        point = error_curve(cfg).points[0]
        assert 0 < point.n_valid < 200
        assert math.isfinite(point.mean_estimate)

    def test_all_invalid_trials_yield_nan_row(self):
        cfg = ExperimentConfig(
            model=OneQubitClock(omega=1.0, chi=0.0),
            n_probes=5,
            t_grid=(1.0,),
            trials=3,
            seed=9,
            estimator=EstimatorKind.NUMERIC,
        )
        point = error_curve(cfg).points[0]
        assert point.n_valid == 0
        assert math.isnan(point.mean_estimate)
        assert math.isnan(point.std_error)
        assert math.isnan(point.bias)
        assert math.isnan(point.crb)

    def test_rows_match_columns(self):
        curve = error_curve(small_config(trials=5))
        assert len(ErrorCurve.COLUMNS) == 6
        rows = curve.rows()
        assert len(rows) == 3
        assert rows[0][0] == 0.8
        assert all(len(row) == len(ErrorCurve.COLUMNS) for row in rows)


class TestMeanEstimatorCurve:
    def test_exact_matches_binomial_enumeration(self):
        cfg = ExperimentConfig(
            model=OneQubitClock(omega=1.0),
            n_probes=4,
            t_grid=(1.2,),
            trials=1,
            seed=0,
        )
        point = mean_estimator_curve(cfg).points[0]
        p = math.sin(0.6) ** 2
        weights = [math.comb(4, k) * p**k * (1.0 - p) ** (4 - k) for k in range(5)]
        estimates = [2.0 * math.asin(math.sqrt(k / 4)) for k in range(5)]
        mean = sum(w * e for w, e in zip(weights, estimates))
        second = sum(w * e * e for w, e in zip(weights, estimates))
        assert point.mean_estimate == pytest.approx(mean, rel=1e-12)
        assert point.std_error == pytest.approx(math.sqrt(second - mean**2), rel=1e-12)
        assert point.n_valid == 5

    def test_exact_ghz_matches_parity_enumeration(self):
        cfg = ExperimentConfig(
            model=GhzClock(omega=1.0, n_entangled=2),
            n_probes=6,
            t_grid=(0.4,),
            trials=1,
            seed=0,
        )
        point = mean_estimator_curve(cfg).points[0]
        p = math.sin(0.4) ** 2
        mean = sum(
            math.comb(6, k) * p**k * (1.0 - p) ** (6 - k) * math.asin(math.sqrt(k / 6))
            for k in range(7)
        )
        assert point.mean_estimate == pytest.approx(mean, rel=1e-12)
        assert point.n_valid == 7

    def test_exact_at_time_zero(self):
        cfg = ExperimentConfig(
            model=OneQubitClock(omega=1.0),
            n_probes=5,
            t_grid=(0.0, 1.0),
            trials=1,
            seed=0,
        )
        point = mean_estimator_curve(cfg).points[0]
        assert point.mean_estimate == 0.0
        assert point.std_error == 0.0
        assert point.n_valid == 1

    def test_exact_ignores_trials_and_seed(self):
        grids = [
            mean_estimator_curve(small_config(n_probes=8, trials=trials, seed=seed))
            for trials, seed in ((1, 0), (99, 12345))
        ]
        assert grids[0] == grids[1]

    def test_exact_agrees_with_sampling(self):
        # Same statistic two ways: enumeration vs 4000 draws, three sigma in
        # the mean.
        trials = 4000
        exact = mean_estimator_curve(
            ExperimentConfig(
                model=OneQubitClock(omega=1.0),
                n_probes=10,
                t_grid=(1.2,),
                trials=1,
                seed=0,
            )
        ).points[0]
        sampled = error_curve(
            ExperimentConfig(
                model=OneQubitClock(omega=1.0),
                n_probes=10,
                t_grid=(1.2,),
                trials=trials,
                seed=303,
            )
        ).points[0]
        margin = 3.0 * sampled.std_error / math.sqrt(trials)
        assert abs(exact.mean_estimate - sampled.mean_estimate) <= margin

    def test_size_bound_is_exact_inside_and_rejects_past_it(self, monkeypatch):
        # Four classes at n = 12 have C(15, 3) = 455 count vectors; the grid
        # length puts 455 x (4 + times) just inside the bound, then just past.
        times = MAX_EXACT_DOUBLES // math.comb(15, 3) - 4
        grid = tuple(np.linspace(0.1, HARMONIC.window_top - 0.1, times + 1).tolist())

        def config(t_grid):
            return small_config(
                model=HARMONIC, n_probes=12, t_grid=t_grid, trials=1,
                estimator=EstimatorKind.COMBINED,
            )

        inside = mean_estimator_curve(config(grid[:-1])).points
        assert [point.t for point in inside] == list(grid[:-1])
        for i in (0, times // 2, times - 1):
            alone = mean_estimator_curve(config(grid[i : i + 1])).points[0]
            assert alone.t == inside[i].t and alone.n_valid == inside[i].n_valid
            assert abs(alone.mean_estimate - inside[i].mean_estimate) <= 1e-12
            assert abs(alone.std_error**2 - inside[i].std_error**2) <= 1e-12

        def enumerate_nothing(*args):
            raise AssertionError("enumerated a count space past the bound")

        monkeypatch.setattr(montecarlo, "count_tallies", enumerate_nothing)
        monkeypatch.setattr(montecarlo, "_count_table", enumerate_nothing)
        message = (
            f"the exact mean curve of 12 probes over {times + 1} grid times needs "
            f"{455 * (times + 5):,} doubles, more than {MAX_EXACT_DOUBLES:,}; "
            "use curve = error to sample it"
        )
        with pytest.raises(ConfigError) as exc:
            mean_estimator_curve(config(grid))
        assert str(exc.value) == message

    def test_n_valid_counts_underflowing_vectors(self):
        # At n = 200 and t = 0.2 every k is possible, but most pmf values
        # underflow in double precision.
        cfg = small_config(
            model=OneQubitClock(omega=1.0, chi=1.0), n_probes=200, t_grid=(0.2,), trials=1
        )
        assert mean_estimator_curve(cfg).points[0].n_valid == 201


def _float_product_pmf(tallies, probs):
    # The multinomial pmf in floats: the exact integer coefficient, a product
    # of binomials, times p ** k for each class (p ** 0 is 1, even at p = 0).
    coeff, remaining = 1, sum(tallies)
    for k in tallies:
        coeff, remaining = coeff * math.comb(remaining, k), remaining - k
    weight = float(coeff)
    for k, p in zip(tallies, probs):
        weight *= p**k
    return weight


def _per_vector_exact_point(config, t, reports):
    # The exact moments one count vector at a time: a float-product pmf over
    # the rows of count_tallies and the scalar estimator, renormalized over
    # the possible vectors (no tally on a class of probability 0) with a
    # valid estimate. A possible vector whose weight underflows to 0 still
    # counts in n_valid. An estimate depends on the counts alone, so
    # `reports` keeps each vector's scalar report (None where degenerate)
    # from one t to the next. Returns (mean, var, n_valid).
    model = config.model
    probs = np.multiply(model.class_sizes, model.class_probs(t)).tolist()
    total_mass = first = second = 0.0
    n_valid = 0
    for tallies in count_tallies(config.n_probes, len(probs)).tolist():
        if any(k and p == 0.0 for k, p in zip(tallies, probs)):
            continue
        counts, weight = Tallies(tallies), _float_product_pmf(tallies, probs)
        if counts not in reports:
            try:
                reports[counts] = apply_estimator(model, counts, config.estimator)
            except DegenerateCountsError:
                reports[counts] = None
        report = reports[counts]
        if report is None or not report.valid:
            continue
        total_mass += weight
        first += weight * report.t_hat
        second += weight * report.t_hat**2
        n_valid += 1
    if total_mass == 0.0:
        return math.nan, math.nan, 0
    mean = first / total_mass
    return mean, max(second / total_mass - mean * mean, 0.0), n_valid


HARMONIC = TwoQubitClock(omega=0.5, Omega=1.0)
EXACT_BATTERY = (
    *((OneQubitClock(omega=1.0, chi=chi), EstimatorKind.CLOSED_FORM) for chi in (0.3, 0.75, 1.0)),
    *((HARMONIC, kind) for kind in (EstimatorKind.COMBINED, EstimatorKind.COARSE)),
    (HARMONIC, EstimatorKind.NUMERIC),
    (TwoQubitClock(omega=0.5, Omega=1.3), EstimatorKind.NUMERIC),
    *((GhzClock(omega=0.8, n_entangled=n), EstimatorKind.CLOSED_FORM) for n in (2, 3)),
    *((GhzClock(omega=0.8, n_entangled=n), EstimatorKind.NUMERIC) for n in (2, 3)),
)


@pytest.mark.parametrize("model, kind", EXACT_BATTERY, ids=repr)
def test_exact_curve_matches_per_vector_oracle(model, kind):
    # Fifteen times from the window's bottom to its top, edges included,
    # where whole classes of count vectors get weight zero.
    grid = tuple(np.linspace(0.0, model.window_top, 15).tolist())
    closed_pair = model.kind == "two-qubit" and kind is not EstimatorKind.NUMERIC
    for n_probes in (1, 2, 7, 12, 13, *((32,) if closed_pair else ())):
        cfg = small_config(model=model, n_probes=n_probes, t_grid=grid, trials=1, estimator=kind)
        reports = {}
        for point in mean_estimator_curve(cfg).points:
            mean, var, n_valid = _per_vector_exact_point(cfg, point.t, reports)
            where = (n_probes, point.t)
            assert point.n_valid == n_valid, where
            if n_valid == 0:
                assert math.isnan(point.mean_estimate) and math.isnan(point.std_error), where
                continue
            assert abs(point.mean_estimate - mean) <= 1e-12, where
            assert abs(point.std_error**2 - var) <= 1e-12, where


@pytest.mark.parametrize("grid_length", (1, 4, 15))
def test_exact_curve_estimates_once_per_curve(grid_length, monkeypatch):
    calls = []
    for name in ("combined_estimator_batch", "mle_single_pair_batch"):
        kernel = getattr(estimators, name)

        def counting(*args, _kernel=kernel, **kwargs):
            calls.append(1)
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(estimators, name, counting)

    def scalar(*args, **kwargs):
        raise AssertionError("the exact curve called a scalar estimator")

    for name in ("combined_estimator", "mle_single_pair"):
        monkeypatch.setattr(estimators, name, scalar)
    for model, kind in (
        (HARMONIC, EstimatorKind.COMBINED),
        (OneQubitClock(omega=1.0, chi=0.75), EstimatorKind.CLOSED_FORM),
    ):
        grid = tuple(np.linspace(0.1, model.window_top, grid_length).tolist())
        cfg = small_config(model=model, n_probes=9, t_grid=grid, trials=1, estimator=kind)
        before = len(calls)
        assert len(mean_estimator_curve(cfg).points) == grid_length
        assert len(calls) - before == 1


class TestCompareResources:
    def test_equal_budget_columns_and_windows(self):
        # omega = Omega: the pair spends two qubits per probe for the same
        # per-probe information, so its bound is sqrt(2) above the one-qubit
        # bound; the GHZ column goes NaN past its window pi/(2 omega).
        comp = compare_resources(400, 1.0, 1.0, (1.2, 1.8), trials=120, seed=404)
        assert isinstance(comp, ResourceComparison)
        assert comp.budget_qubits == 400
        first, second = comp.rows
        assert first.crb_one_qubit == pytest.approx(0.05, rel=1e-6)
        assert first.crb_two_qubit == pytest.approx(0.05 * math.sqrt(2.0), rel=1e-6)
        assert first.crb_ghz == pytest.approx(0.05 / math.sqrt(2.0), rel=1e-6)
        assert 1.2 <= first.dt_two_qubit / first.dt_one_qubit <= 1.6
        assert math.isnan(second.dt_ghz) and math.isnan(second.crb_ghz)
        assert math.isfinite(second.dt_two_qubit)

    def test_harmonic_budget_sits_on_bounds(self):
        comp = compare_resources(200, 0.5, 1.0, (0.9, 1.3), trials=150, seed=606)
        for row in comp.rows:
            assert row.crb_one_qubit == pytest.approx(1.0 / math.sqrt(50.0), rel=1e-6)
            assert row.crb_two_qubit == pytest.approx(1.0 / math.sqrt(62.5), rel=1e-6)
            assert row.crb_ghz == pytest.approx(0.1, rel=1e-6)
            assert 0.8 <= row.dt_one_qubit / row.crb_one_qubit <= 1.3
            assert 0.8 <= row.dt_two_qubit / row.crb_two_qubit <= 1.3
            assert 0.8 <= row.dt_ghz / row.crb_ghz <= 1.3

    def test_deterministic_and_row_layout(self):
        args = (40, 1.0, 2.0, (0.9, 1.4), 25, 77)
        comp = compare_resources(*args)
        assert comp == compare_resources(*args)
        rows = comp.rows
        assert len(rows) == 2
        assert all(len(row) == len(ResourceComparison.COLUMNS) for row in rows)

    @pytest.mark.parametrize(
        "omega, Omega, grid",
        [
            # Harmonic pair (combined estimator); GHZ's window ends at pi,
            # and 7.0 lies past every window.
            (0.5, 1.0, (0.3, 1.9, 3.5, 5.9, 7.0)),
            # Non-harmonic pair (numeric maximizer); GHZ's window ends at 1.5.
            (1.05, 1.3, (0.3, 1.1, 2.0, 2.9)),
        ],
    )
    def test_columns_are_each_designs_own_curve(self, omega, Omega, grid):
        # Each design's dt_/crb_ columns hold exactly its own error curve over
        # the grid times inside its window, and NaN elsewhere.
        budget, trials, seed = 40, 30, 11
        comp = compare_resources(budget, omega, Omega, grid, trials, seed)
        pair_kind = EstimatorKind.COMBINED if Omega == 2 * omega else EstimatorKind.NUMERIC
        designs = {
            "one_qubit": (OneQubitClock(omega=omega), budget, EstimatorKind.CLOSED_FORM),
            "two_qubit": (TwoQubitClock(omega=omega, Omega=Omega), budget // 2, pair_kind),
            "ghz": (GhzClock(omega=omega), budget // 2, EstimatorKind.CLOSED_FORM),
        }
        assert ResourceComparison.COLUMNS == (
            "t", *(f"dt_{label}" for label in designs), *(f"crb_{label}" for label in designs)
        )
        assert [row.t for row in comp.rows] == list(grid)
        for label, (model, n_probes, kind) in designs.items():
            inside = tuple(t for t in grid if t <= model.window_top)
            curve = error_curve(ExperimentConfig(model, n_probes, inside, trials, seed, kind))
            own = {point.t: (point.std_error, point.crb) for point in curve.points}
            for row in comp.rows:
                cell = (getattr(row, f"dt_{label}"), getattr(row, f"crb_{label}"))
                if row.t in own:
                    assert cell == own[row.t], (label, row.t)
                else:
                    assert all(map(math.isnan, cell)), (label, row.t)
        assert sum(math.isnan(row.dt_ghz) for row in comp.rows) >= 1

    def test_rejects_bad_budget(self):
        # 2**64 would be the one-qubit design's probe count, past numpy's int64.
        for budget in (41, 0, -2, True, 2.0, np.int64(41), np.bool_(True), 2**64):
            with pytest.raises(ConfigError):
                compare_resources(budget, 1.0, 2.0, (1.0,), trials=5, seed=1)

    def test_accepts_numpy_budget(self):
        comp = compare_resources(np.int64(4), 1.0, 2.0, (1.0,), trials=5, seed=1)
        assert type(comp.budget_qubits) is int
        assert comp == compare_resources(4, 1.0, 2.0, (1.0,), trials=5, seed=1)

    def test_rejects_bad_frequency_by_name(self):
        # The pair's clock is built before its estimator is chosen, so its
        # own check names the parameter.
        for omega, Omega, name in ((-0.5, 1.0, "omega"), (0.0, 1.0, "omega"),
                                   (math.nan, 1.0, "omega"), (0.5, 0.0, "Omega")):
            with pytest.raises(ValueError, match=f"^{name} must be a positive finite real"):
                compare_resources(4, omega, Omega, (1.0,), trials=5, seed=1)

    def test_rejects_non_finite_times(self):
        # Each design keeps only the grid times inside its window; a NaN time
        # must be rejected, not dropped from every column.
        for grid in ((math.nan,), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ConfigError):
                compare_resources(4, 1.0, 2.0, grid, trials=5, seed=1)

    def test_checks_trials_seed_and_grid_before_any_design(self):
        # No time of (100, 200) lies in a window at omega = 0.5, so no design
        # builds its ExperimentConfig; the comparison still rejects what that
        # config would, with its message.
        model = OneQubitClock(omega=0.5)
        for trials, seed, grid in ((-5, 1, (100.0, 200.0)), (0, 1, (100.0,)),
                                   (2.5, 1, (100.0,)), (5, -3, (100.0, 200.0)),
                                   (5, 2**64, (100.0,)), (2, 1, ()),
                                   (5, 1, (200.0, 100.0))):
            with pytest.raises(ConfigError) as config_error:
                ExperimentConfig(model, 4, grid, trials, seed)
            with pytest.raises(ConfigError, match=f"^{re.escape(str(config_error.value))}$"):
                compare_resources(4, 0.5, 1.0, grid, trials, seed)
