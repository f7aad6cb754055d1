"""Command-line interface: table formats, exit codes, manifests, replay.

Golden values are recomputed from the library API where they are not plain
numbers, so these tests pin the wiring and the 12-digit output contract
rather than duplicating the math suites.
"""

import argparse
import csv
import json
import math
import shutil
import subprocess
import time

import pytest

from qclock import TwoQubitCounts, __version__, combined_estimator
from qclock.cli import build_parser, main
from qclock.montecarlo import STREAM_LAYOUT


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


class TestProbs:
    def test_two_qubit_at_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "probs", "--model", "two-qubit", "--omega", "0.5", "--t", "0"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "0+", "0-", "1+", "1-", "sum"]
        assert rows == [["0", "0.5", "0", "0.5", "0", "1"]]

    def test_grid_rows_sum_to_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "probs", "--model", "one-qubit", "--t-grid", "0:3.1:5"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 5
        for row in rows:
            assert float(row[-1]) == pytest.approx(1.0, abs=1e-12)

    def test_twelve_digit_cells_and_line_endings(self, capsys):
        _, out, _ = run_cli(capsys, "probs", "--model", "one-qubit", "--t", "1")
        assert "0.229848847066" in out
        assert "\r" not in out
        assert out.endswith("\n")

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "probs", "--model", "ghz", "--n", "3", "--t", "0.2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"][0] == "t"
        assert payload["columns"][-1] == "sum"
        assert len(payload["columns"]) == 2 + 8
        assert payload["rows"][0][-1] == pytest.approx(1.0)


class TestFisher:
    def test_sweet_spot_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "fisher",
            "--model", "one-qubit",
            "--t", str(math.pi / 2.0),
            "--probes", "100",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "classical_fisher", "analytic", "qfi", "crb", "degenerate"]
        row = rows[0]
        assert float(row[1]) == pytest.approx(1.0, rel=1e-6)
        assert float(row[2]) == pytest.approx(1.0, rel=1e-12)
        assert float(row[3]) == pytest.approx(1.0, rel=1e-9)
        assert float(row[4]) == pytest.approx(0.1, rel=1e-6)
        assert row[5] == "0"

    def test_degenerate_time_flagged_not_fatal(self, capsys):
        # At a whole multiple of the window top the value stays exact, but no
        # Cramer-Rao bound exists.
        for flags, t, value in (
            (("--model", "one-qubit", "--omega", "1.0"), 0.0, 1.0),
            (("--model", "one-qubit", "--omega", "1.0"), math.pi, 1.0),
            (("--model", "two-qubit", "--omega", "0.5", "--Omega", "1.3"), math.pi / 0.5, 0.97),
            (("--model", "ghz", "--n", "3", "--omega", "1.0"), math.pi / 3.0, 9.0),
        ):
            code, out, _ = run_cli(capsys, "fisher", *flags, "--t", repr(t), "--probes", "10")
            assert code == 0
            _, rows = parse_csv(out)
            assert float(rows[0][1]) == pytest.approx(value, rel=1e-12)
            assert rows[0][1] == rows[0][2]
            assert rows[0][4] == "nan"
            assert rows[0][5] == "1"


class TestEstimate:
    def test_one_qubit_balanced_counts(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--model", "one-qubit", "--counts", "2,2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["t_hat"] == 1.57079632679
        assert payload["branch"] == "single-window"
        assert payload["window"] == [0, 3.14159265359]
        assert payload["valid"] is True
        assert payload["coarse_t"] is None

    def test_two_qubit_count_order(self, capsys):
        # CLI order is k0+,k0-,k1+,k1-; the library grouping is by sector.
        counts = TwoQubitCounts(slow_plus=8, slow_minus=2, fast_plus=5, fast_minus=5)
        report = combined_estimator(counts, 0.5, 1.0)
        code, out, _ = run_cli(
            capsys,
            "estimate",
            "--model", "two-qubit",
            "--omega", "0.5",
            "--counts", "8,2,5,5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["t_hat"] == pytest.approx(report.t_hat, rel=1e-11)
        assert payload["branch"] == report.branch.value
        assert payload["coarse_t"] == pytest.approx(report.coarse_t, rel=1e-11)

    def test_ghz_counts(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--model", "ghz", "--n", "2", "--counts", "3,1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["t_hat"] == pytest.approx(math.asin(0.5), rel=1e-11)
        assert payload["branch"] == "ghz-window"
        assert payload["window"][1] == pytest.approx(math.pi / 2.0, rel=1e-11)

    def test_numeric_estimator_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "estimate",
            "--model", "one-qubit",
            "--counts", "5,5",
            "--estimator", "numeric",
        )
        assert code == 0
        assert json.loads(out)["t_hat"] == pytest.approx(math.pi / 2.0, abs=1e-7)

    def test_degenerate_counts_exit_three(self, capsys):
        code, _, err = run_cli(
            capsys,
            "estimate",
            "--model", "two-qubit",
            "--omega", "0.5",
            "--counts", "0,5,3,0",
        )
        assert code == 3
        assert "degenerate" in err

    def test_estimator_the_model_lacks_exit_two(self, capsys):
        code, out, err = run_cli(
            capsys, "estimate", "--model", "one-qubit", "--estimator", "combined",
            "--counts", "3,1",
        )
        assert code == 2 and not out
        assert "two-qubit" in err

    def test_malformed_counts_exit_two(self, capsys):
        for counts in ("1,2,3", "a,b", "1,2,3,4,5"):
            code, _, err = run_cli(
                capsys, "estimate", "--model", "one-qubit", "--counts", counts
            )
            assert code == 2
            assert err


class TestRecurrence:
    def test_ghz_half_period(self, capsys):
        code, out, _ = run_cli(capsys, "recurrence", "--model", "ghz", "--n", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["recurrence_time"] == pytest.approx(math.pi, abs=5e-3)

    def test_never_returns_is_null(self, capsys):
        # chi = 0 never leaves the epsilon-ball, however long the horizon.
        for t_max in ("30", "1e9"):
            code, out, _ = run_cli(
                capsys, "recurrence", "--model", "one-qubit", "--chi", "0", "--t-max", t_max
            )
            assert code == 0
            assert json.loads(out)["recurrence_time"] is None

    def test_one_qubit_chi_just_above_epsilon(self, capsys):
        code, out, _ = run_cli(
            capsys, "recurrence", "--model", "one-qubit", "--chi", "0.600000000001",
            "--epsilon", "0.6", "--t-max", "1e9",
        )
        assert code == 0
        assert json.loads(out)["recurrence_time"] == pytest.approx(math.pi + 2.6e-6, abs=1e-7)

    def test_two_qubit_epsilon_from_three_quarters_exits_two(self, capsys):
        for epsilon in ("0.75", "0.95"):
            code, out, err = run_cli(
                capsys, "recurrence", "--model", "two-qubit", "--omega", "0.5",
                "--epsilon", epsilon, "--t-max", "1e9",
            )
            assert code == 2, epsilon
            assert not out and "3/4" in err

    @pytest.mark.parametrize(
        "ratio, epsilon, expected",
        ((0.5 * (1.0 + math.sqrt(5.0)), "1e-8", 85011.497), (math.sqrt(2.0), "1e-9", 420483.327)),
    )
    def test_long_two_qubit_returns_are_fast(self, capsys, ratio, epsilon, expected):
        started = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "recurrence", "--model", "two-qubit", "--omega", "0.5",
            "--Omega", repr(0.5 * ratio), "--epsilon", epsilon, "--t-max", "1e9",
        )
        assert time.perf_counter() - started < 1.0
        assert code == 0
        assert json.loads(out)["recurrence_time"] == pytest.approx(expected, abs=2e-3)

    def test_non_finite_arguments_exit_two(self, capsys):
        for flags in (
            ("--t-max", "nan"),
            ("--t-max", "inf", "--chi", "0"),
            ("--t-max=-inf",),
            ("--epsilon", "nan"),
        ):
            code, out, err = run_cli(capsys, "recurrence", "--model", "one-qubit", *flags)
            assert code == 2, flags
            assert not out and err


class TestCompare:
    def test_budget_table_and_manifest(self, capsys, tmp_path):
        out_file = tmp_path / "compare.csv"
        argv = [
            "compare",
            "--budget", "40",
            "--t-grid", "0.9:1.4:2",
            "--trials", "5",
            "--seed", "77",
            "--out", str(out_file),
        ]
        code = main(argv)
        assert code == 0
        header, rows = parse_csv(out_file.read_text())
        assert header[0] == "t"
        assert len(header) == 7
        assert len(rows) == 2
        assert float(rows[0][4]) == pytest.approx(1.0 / math.sqrt(10.0), rel=1e-6)
        assert float(rows[0][5]) == pytest.approx(1.0 / math.sqrt(12.5), rel=1e-6)
        assert float(rows[0][6]) == pytest.approx(1.0 / math.sqrt(20.0), rel=1e-6)
        manifest = json.loads((tmp_path / "compare.csv.manifest.json").read_text())
        assert manifest["command"] == "compare"
        assert manifest["argv"] == argv
        assert manifest["seed"] == 77
        assert manifest["outputs"] == [str(out_file)]
        assert manifest["stream_layout"] == STREAM_LAYOUT
        assert STREAM_LAYOUT == "per-cell SeedSequence(seed, spawn_key=(t_index,))"

    def test_odd_budget_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys, "compare", "--budget", "41", "--t-grid", "1:2:2"
        )
        assert code == 2
        assert "budget" in err


class TestSweep:
    def write_config(self, tmp_path, body):
        path = tmp_path / "experiments.cfg"
        path.write_text(body)
        return path

    def basic_section(self, tmp_path, name="run-a", **overrides):
        values = dict(
            model="one-qubit",
            omega=1.0,
            probes=30,
            trials=20,
            seed=99,
            t_start=0.6,
            t_stop=2.4,
            t_steps=4,
            out=str(tmp_path / "curve.csv"),
        )
        values.update(overrides)
        lines = [f"[{name}]"] + [f"{k} = {v}" for k, v in values.items()]
        return "\n".join(lines) + "\n"

    def test_runs_sections_and_writes_manifest(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, self.basic_section(tmp_path))
        code = main(["sweep", str(cfg)])
        assert code == 0
        header, rows = parse_csv((tmp_path / "curve.csv").read_text())
        assert header == ["t", "mean_estimate", "std_error", "bias", "crb", "n_valid"]
        assert len(rows) == 4
        assert [row[0] for row in rows] == ["0.6", "1.2", "1.8", "2.4"]
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert manifest["command"] == "sweep"
        assert manifest["seed"] == 99
        section = manifest["config"]["sections"]["run-a"]
        assert section["estimator"] == "closed-form"
        assert section["curve"] == "error"
        assert manifest["stream_layout"] == STREAM_LAYOUT

    def test_manifest_replay_is_byte_identical(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, self.basic_section(tmp_path))
        assert main(["sweep", str(cfg)]) == 0
        first = (tmp_path / "curve.csv").read_bytes()
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert main(manifest["argv"]) == 0
        assert (tmp_path / "curve.csv").read_bytes() == first

    def test_two_qubit_defaults_and_multi_section(self, capsys, tmp_path):
        body = self.basic_section(tmp_path) + self.basic_section(
            tmp_path,
            name="run-b",
            model="two-qubit",
            omega=0.5,
            seed=98,
            estimator="combined",
            t_start=0.5,
            t_stop=5.5,
            t_steps=3,
            out=str(tmp_path / "pair.csv"),
        )
        cfg = self.write_config(tmp_path, body)
        assert main(["sweep", str(cfg)]) == 0
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert manifest["seed"] == [99, 98]
        assert manifest["outputs"] == [str(tmp_path / "curve.csv"), str(tmp_path / "pair.csv")]
        assert manifest["config"]["sections"]["run-b"]["Omega"] == 1.0
        assert (tmp_path / "pair.csv").is_file()

    def test_exact_mean_curve_section(self, capsys, tmp_path):
        cfg = self.write_config(
            tmp_path,
            self.basic_section(tmp_path, probes=6, trials=1, curve="mean", t_steps=2),
        )
        assert main(["sweep", str(cfg)]) == 0
        _, rows = parse_csv((tmp_path / "curve.csv").read_text())
        assert [row[-1] for row in rows] == ["7", "7"]

    def test_repeated_calls_in_one_process_reuse_one_parser(
        self, capsys, tmp_path, monkeypatch
    ):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            if kwargs.get("prog") == "qclock":
                built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        with pytest.raises(SystemExit) as exc:
            main(["probs", "--model", "one-qubit"])
        assert exc.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"qclock {__version__}\n"
        cfg = self.write_config(tmp_path, self.basic_section(tmp_path))
        written = []
        for _ in range(2):
            assert main(["sweep", str(cfg)]) == 0
            written.append((tmp_path / "curve.csv").read_bytes())
        assert written[0] == written[1]
        assert len(built) == 1

    def test_unknown_key_named_in_error(self, capsys, tmp_path):
        cfg = self.write_config(
            tmp_path, self.basic_section(tmp_path) + "probess = 3\n"
        )
        code, _, err = main(["sweep", str(cfg)]), *capsys.readouterr()
        assert code == 2
        assert "probess" in err

    def test_missing_required_key(self, capsys, tmp_path):
        body = self.basic_section(tmp_path).replace("seed = 99\n", "")
        cfg = self.write_config(tmp_path, body)
        code, _, err = main(["sweep", str(cfg)]), *capsys.readouterr()
        assert code == 2
        assert "seed" in err

    def test_missing_file_and_empty_config(self, capsys, tmp_path):
        assert main(["sweep", str(tmp_path / "nope.cfg")]) == 2
        capsys.readouterr()
        empty = self.write_config(tmp_path, "# nothing here\n")
        assert main(["sweep", str(empty)]) == 2


class TestUsageErrors:
    def test_time_flags_are_required_and_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["probs", "--model", "one-qubit"])
        assert exc.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["probs", "--model", "one-qubit", "--t", "1", "--t-grid", "0:1:3"])
        assert exc.value.code == 2

    def test_bad_model_parameter_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys, "probs", "--model", "one-qubit", "--chi", "1.5", "--t", "1"
        )
        assert code == 2
        assert err

    def test_non_finite_times_exit_two(self, capsys):
        for argv in (
            ("probs", "--model", "one-qubit", "--t", "nan"),
            ("fisher", "--model", "two-qubit", "--t-grid", "0:inf:3"),
            ("compare", "--budget", "4", "--t-grid", "nan:1:1", "--trials", "5"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert not out and "finite" in err

    def test_no_manifest_for_stdout_runs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "probs", "--model", "one-qubit", "--t", "1")
        assert code == 0 and out
        assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(shutil.which("qclock") is None, reason="console script not installed")
def test_console_script_smoke(tmp_path):
    result = subprocess.run(
        ["qclock", "probs", "--model", "one-qubit", "--t", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "0.229848847066" in result.stdout
    version = subprocess.run(["qclock", "--version"], capture_output=True, text=True)
    assert version.returncode == 0
    assert version.stdout.startswith("qclock ")
