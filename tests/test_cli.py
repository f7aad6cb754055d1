"""Command-line interface: table formats, exit codes, manifests, replay.

Golden values are recomputed from the library API where they are not plain
numbers, so these tests pin the wiring and the 12-digit output contract
rather than duplicating the math suites.
"""

import argparse
import csv
import errno
import json
import math
import os
import shutil
import stat
import subprocess
import sys
import time

import numpy as np
import pytest

from qclock import TwoQubitClock, TwoQubitCounts, __version__, combined_estimator
from qclock.cli import _fmt, _json_ready, _write, build_parser, main, main_entry
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

    def test_one_step_grid_is_its_start(self, capsys):
        # np.linspace(-0.0, 5.0, 1) is [0.0]: a one-step grid keeps its start.
        code, out, _ = run_cli(capsys, "probs", "--model", "one-qubit", "--t-grid=-0:5:1")
        _, rows = parse_csv(out)
        assert code == 0
        assert [row[0] for row in rows] == ["-0"]

    def test_flag_of_another_model_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "probs", "--model", "two-qubit", "--chi", "0.3", "--n", "5", "--t", "1"
        )
        message = "--chi does not apply to model 'two-qubit'"
        assert (code, out, err) == (2, "", f"qclock: error: {message}\n")

    def test_twelve_digit_cells_and_line_endings(self, capsys):
        _, out, _ = run_cli(capsys, "probs", "--model", "one-qubit", "--t", "1")
        assert "0.229848847066" in out
        assert "\r" not in out
        assert out.endswith("\n")

    def test_bools_and_non_finite_floats(self):
        # A bool is an int, np.bool_ formats as a float, and JSON keeps the
        # infinities, with NaN as null.
        assert (_fmt(True), _fmt(np.bool_(False))) == ("1", "0")
        assert _json_ready([math.inf, -math.inf, math.nan]) == [math.inf, -math.inf, None]

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

    def test_overflowed_phase_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "fisher", "--model", "one-qubit", "--omega", "1e10", "--t", "1e300"
        )
        assert code == 2
        assert not out
        assert "phase omega t overflows" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--model", "one-qubit", "--omega", "1e200", "--t", "1"),
            ("--model", "ghz", "--n", "3", "--omega", "1e200", "--t", "1e-200"),
            ("--model", "two-qubit", "--omega", "1e200", "--t", "1e-200"),
        ],
        ids=["one-qubit", "ghz", "two-qubit"],
    )
    def test_overflowed_fisher_information_exits_two(self, capsys, flags):
        code, out, err = run_cli(capsys, "fisher", *flags)
        assert code == 2
        assert not out
        assert "Fisher information overflows" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--probes", "1" + "0" * 400), "n_probes must be at most 1.797693134862"),
            (("--omega", "1e150", "--t", "1e-160", "--probes", "10000000000"),
             "n_probes * information overflows: 10000000000 * "),
        ],
        ids=["past-a-float", "product"],
    )
    def test_probe_count_that_overflows_exits_two(self, capsys, tmp_path, flags, message):
        out = tmp_path / "fisher.csv"
        argv = ["fisher", "--model", "one-qubit", "--t", "1", *flags, "--out", str(out)]
        code, stdout, err = run_cli(capsys, *argv)
        assert (code, stdout) == (2, "")
        assert err.startswith(f"qclock: error: {message}")
        assert list(tmp_path.iterdir()) == []


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
        report = combined_estimator(TwoQubitClock(omega=0.5, Omega=1.0), counts)
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

    def test_frequency_whose_window_overflows_exits_two(self, capsys):
        # pi / omega = inf printed "t_hat": Infinity, which is not JSON.
        tiny = ("--omega", "1e-320")
        for argv in (
            ("estimate", "--model", "one-qubit", *tiny, "--counts", "3,2"),
            ("estimate", "--model", "ghz", *tiny, "--counts", "3,2"),
            ("estimate", "--model", "two-qubit", *tiny, "--estimator", "coarse",
             "--counts", "3,2,1,1"),
            ("fisher", "--model", "one-qubit", *tiny, "--t", "1e-300"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "pi / f overflows" in err, argv

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
        # chi = 0 never leaves the epsilon-ball.
        code, out, _ = run_cli(capsys, "recurrence", "--model", "one-qubit", "--chi", "0")
        assert code == 0
        assert json.loads(out)["recurrence_time"] is None

    def test_late_return_is_reported(self, capsys):
        # The golden-ratio pair returns at t = 4737.5, with no horizon to hide it.
        code, out, _ = run_cli(
            capsys, "recurrence", "--model", "two-qubit", "--omega", "0.5",
            "--Omega", "1.3090169943749475",
        )
        assert code == 0
        assert '"recurrence_time": 4737.52600346' in out
        assert "t_max" not in json.loads(out)
        with pytest.raises(SystemExit) as exc:
            main(["recurrence", "--model", "one-qubit", "--t-max", "100"])
        assert exc.value.code == 2
        assert "--t-max" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        (
            ("--model", "one-qubit", "--omega", "3e-308"),
            ("--model", "ghz", "--n", "2", "--omega", "8.75e-309"),
            ("--model", "two-qubit", "--omega", "1.75e-308", "--Omega", "3.5e-308"),
        ),
        ids=("one-qubit", "ghz", "two-qubit"),
    )
    def test_overflowing_return_exits_two(self, capsys, flags):
        code, out, err = run_cli(capsys, "recurrence", *flags)
        assert (code, out) == (2, "")
        assert "the first return overflows" in err

    def test_one_qubit_chi_just_above_epsilon(self, capsys):
        code, out, _ = run_cli(
            capsys, "recurrence", "--model", "one-qubit", "--chi", "0.600000000001",
            "--epsilon", "0.6",
        )
        assert code == 0
        assert json.loads(out)["recurrence_time"] == pytest.approx(math.pi + 2.6e-6, abs=1e-7)

    def test_two_qubit_epsilon_from_three_quarters_exits_two(self, capsys):
        for epsilon in ("0.75", "0.95"):
            code, out, err = run_cli(
                capsys, "recurrence", "--model", "two-qubit", "--omega", "0.5",
                "--epsilon", epsilon,
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
            "--Omega", repr(0.5 * ratio), "--epsilon", epsilon,
        )
        assert time.perf_counter() - started < 1.0
        assert code == 0
        assert json.loads(out)["recurrence_time"] == pytest.approx(expected, abs=2e-3)

    def test_non_finite_arguments_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "recurrence", "--model", "one-qubit", "--epsilon", "nan")
        assert code == 2
        assert not out and err

    def test_overflowing_ghz_frequency_exits_two(self, capsys):
        # An infinite n omega would make window_top 0: a recurrence time of 0
        # and a math domain error in fisher. The clock is rejected instead.
        flags = ("--model", "ghz", "--n", "2", "--omega", "1e308")
        for argv in (("recurrence", *flags), ("fisher", *flags, "--t", "1e-309")):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "n * omega overflows" in err, argv


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

    def test_bad_trials_or_seed_exit_two_outside_every_window(self, capsys):
        # No grid time lies in a design's window, and the flags still count.
        for flags, message in (
            (("--trials", "-5"), "trials must be a positive integer, got -5"),
            (("--seed", "-3"), "seed must be a 64-bit unsigned integer, got -3"),
        ):
            code, out, err = run_cli(
                capsys, "compare", "--budget", "4", "--t-grid", "100:200:2", *flags
            )
            assert (code, out) == (2, ""), flags
            assert message in err, flags

    def test_budget_past_int64_exits_two(self, capsys, tmp_path):
        out = tmp_path / "compare.csv"
        code, stdout, err = run_cli(
            capsys, "compare", "--budget", str(2**64), "--t-grid", "0.5:1:2", "--trials", "2",
            "--out", str(out),
        )
        assert (code, stdout) == (2, "")
        assert err == f"qclock: error: budget_qubits must be at most {2**63 - 1}, got {2**64}\n"
        assert list(tmp_path.iterdir()) == []


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
        # An override of None leaves the key out.
        lines = [f"[{name}]"] + [f"{k} = {v}" for k, v in values.items() if v is not None]
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
        model = ["--model", "two-qubit", "--omega", "0.5"]
        runs = {
            "curve.csv": ["sweep", str(cfg)],
            "probs.csv": ["probs", *model, "--t-grid", "0:6:5"],
            "fisher.json": ["fisher", *model, "--t-grid", "0.5:5:4", "--format", "json"],
            "estimate.json": ["estimate", *model, "--counts", "3,1,2,4"],
            "compare.csv": ["compare", "--budget", "8", "--t-grid", "0.9:1.4:2",
                            "--trials", "5", "--seed", "7"],
            "recurrence.json": ["recurrence", "--model", "ghz", "--n", "3"],
        }
        for name, argv in runs.items():
            out = tmp_path / name
            if argv[0] != "sweep":
                argv = [*argv, "--out", str(out)]
            assert main(argv) == 0, argv
            first = out.read_bytes()
            manifest_path = tmp_path / f"{name}.manifest.json"
            manifest = json.loads(manifest_path.read_text())
            assert manifest["argv"] == argv
            assert manifest["outputs"] == [str(out)]
            out.unlink()
            manifest_path.unlink()
            assert main(manifest["argv"]) == 0, argv
            assert out.read_bytes() == first, argv
            # A replay over longer stale files cuts them to the new length.
            for path in (out, manifest_path):
                path.write_text("junk\n" * (len(path.read_bytes()) + 1))
            assert main(manifest["argv"]) == 0, argv
            assert out.read_bytes() == first, argv
            assert json.loads(manifest_path.read_text())["argv"] == argv
        assert capsys.readouterr().out == ""

    def test_rerun_keeps_the_file_its_mode_and_its_links(self, capsys, tmp_path):
        out, hard, link = (tmp_path / name for name in ("probs.csv", "hard.csv", "link.csv"))
        probs = ["probs", "--model", "one-qubit", "--t-grid"]
        assert main([*probs, "0:6:25", "--out", str(out)]) == 0
        out.chmod(0o640)
        inode = out.stat().st_ino
        hard.hardlink_to(out)
        link.symlink_to(out)
        # Each rerun writes fewer rows than the file holds: first through the
        # file's own path, then through the symlink.
        for target, steps in ((out, 5), (link, 3)):
            assert main([*probs, f"0:6:{steps}", "--out", str(target)]) == 0
            assert out.read_bytes().count(b"\n") == steps + 1
            assert out.stat().st_ino == inode
            assert stat.S_IMODE(out.stat().st_mode) == 0o640
            assert hard.read_bytes() == out.read_bytes()
        assert link.is_symlink()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_a_fifo_is_written_without_a_truncate(self, tmp_path):
        # A FIFO, like a device, rejects truncation, so only a regular file
        # is cut. The open reader lets the write-only open return at once.
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            _write(str(fifo), "x\n")
            assert os.read(reader, 16) == b"x\n"
        finally:
            os.close(reader)

    @pytest.mark.parametrize(
        "out, code", [("dir", errno.EISDIR), ("missing/probs.csv", errno.ENOENT)],
        ids=["directory", "missing-parent"],
    )
    def test_unwritable_out_exits_two_without_a_manifest(self, capsys, tmp_path, out, code):
        (tmp_path / "dir").mkdir()
        path = str(tmp_path / out)
        result = run_cli(capsys, "probs", "--model", "one-qubit", "--t", "1", "--out", path)
        assert result == (2, "", f"qclock: error: [Errno {code}] {os.strerror(code)}: {path!r}\n")
        assert [p.name for p in tmp_path.rglob("*")] == ["dir"]

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

    def test_combined_sweep_at_the_largest_probe_count(self, capsys, tmp_path):
        # 2**63 - 1 pairs per trial: the combined kernel's discriminant is far
        # past int64, and every estimate must still be finite.
        section = self.basic_section(
            tmp_path, model="two-qubit", omega=0.5, estimator="combined",
            probes=2**63 - 1, t_steps=3,
        )
        assert main(["sweep", str(self.write_config(tmp_path, section))]) == 0
        _, rows = parse_csv((tmp_path / "curve.csv").read_text())
        assert [row[-1] for row in rows] == ["20"] * 3
        assert all(math.isfinite(float(row[1])) for row in rows)

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

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"model": "bogus"}, "invalid value for 'model' in section [run-a]: 'bogus'"),
            ({"estimator": "bogus"}, "invalid value for 'estimator' in section [run-a]: 'bogus'"),
            ({"curve": "median"}, "invalid value for 'curve' in section [run-a]: 'median'"),
            ({"format": "xml"}, "invalid value for 'format' in section [run-a]: 'xml'"),
            ({"probes": "many"}, "invalid value for 'probes' in section [run-a]: 'many'"),
            ({"omega": "fast"}, "invalid value for 'omega' in section [run-a]: 'fast'"),
            ({"model": "ghz", "n": "two"}, "invalid value for 'n' in section [run-a]: 'two'"),
            ({"model": None}, "missing key 'model' in section [run-a]"),
            ({"seed": None}, "missing key 'seed' in section [run-a]"),
            ({"out": None}, "missing key 'out' in section [run-a]"),
            ({"probess": 3}, "unknown key 'probess' in section [run-a]"),
            ({"t_steps": 0}, "time grid of section [run-a] needs at least one step, got 0"),
            (
                # (699,050 + 1) count vectors x (2 classes + 4 times) doubles.
                {"curve": "mean", "probes": 699050},
                "the exact mean curve of 699050 probes over 4 grid times needs 4,194,306 "
                "doubles, more than 4,194,304; use curve = error to sample it",
            ),
        ],
        ids=[
            "model", "estimator", "curve", "format", "probes", "omega", "n",
            "missing-model", "missing-seed", "missing-out", "unknown", "no-steps",
            "oversized-mean",
        ],
    )
    def test_single_fault_message(self, capsys, tmp_path, overrides, message):
        cfg = self.write_config(tmp_path, self.basic_section(tmp_path, **overrides))
        code, out, err = run_cli(capsys, "sweep", str(cfg))
        assert (code, out, err) == (2, "", f"qclock: error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["experiments.cfg"]

    def test_key_of_another_model_is_rejected(self, capsys, tmp_path):
        # One-qubit reads neither n nor Omega: the first, in sorted order, is
        # named with the model, and nothing is written.
        cfg = self.write_config(tmp_path, self.basic_section(tmp_path, n=3, Omega=7))
        code, out, err = run_cli(capsys, "sweep", str(cfg))
        message = "key 'Omega' does not apply to model 'one-qubit' in section [run-a]"
        assert (code, out, err) == (2, "", f"qclock: error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["experiments.cfg"]

    def test_model_is_checked_before_the_other_keys(self, capsys, tmp_path):
        # The model's own keys decide which keys are unknown, so a bad model
        # is reported before an unknown key.
        cfg = self.write_config(tmp_path, self.basic_section(tmp_path, model="bogus", probess=3))
        code, _, err = run_cli(capsys, "sweep", str(cfg))
        message = "invalid value for 'model' in section [run-a]: 'bogus'"
        assert (code, err) == (2, f"qclock: error: {message}\n")

    def test_bad_later_section_writes_nothing(self, capsys, tmp_path):
        body = self.basic_section(tmp_path) + self.basic_section(
            tmp_path, name="run-b", curve="median", out=str(tmp_path / "b.csv")
        )
        cfg = self.write_config(tmp_path, body)
        code, out, err = run_cli(capsys, "sweep", str(cfg))
        assert (code, out) == (2, "")
        assert err == "qclock: error: invalid value for 'curve' in section [run-b]: 'median'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["experiments.cfg"]

    def test_probe_count_past_int64_writes_nothing(self, capsys, tmp_path):
        # Checked with the other keys, before the first section runs.
        body = self.basic_section(tmp_path) + self.basic_section(
            tmp_path, name="run-b", probes=2**63, out=str(tmp_path / "b.csv")
        )
        cfg = self.write_config(tmp_path, body)
        code, out, err = run_cli(capsys, "sweep", str(cfg))
        assert (code, out) == (2, "")
        assert err == f"qclock: error: n_probes must be at most {2**63 - 1}, got {2**63}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["experiments.cfg"]

    def test_oversized_later_mean_curve_writes_nothing(self, capsys, tmp_path):
        # The exact curve's size bound is checked with the other keys, before
        # the first section runs.
        body = self.basic_section(tmp_path) + self.basic_section(
            tmp_path, name="run-b", curve="mean", probes=699050, out=str(tmp_path / "b.csv")
        )
        cfg = self.write_config(tmp_path, body)
        code, out, err = run_cli(capsys, "sweep", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("qclock: error: the exact mean curve of 699050 probes")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["experiments.cfg"]

    @pytest.mark.parametrize(
        "body", ["[run-a]\nseed = 1\nseed = 2\n", "seed = 1\n"], ids=["repeated-key", "no-section"]
    )
    def test_malformed_config_exits_two(self, capsys, tmp_path, body):
        cfg = self.write_config(tmp_path, body)
        code, out, err = run_cli(capsys, "sweep", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith(f"qclock: error: malformed config {cfg}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["experiments.cfg"]

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

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("0:1:0", "t-grid needs at least one step, got 0"),
            ("0:1", "t-grid must be 'start:stop:steps', got '0:1'"),
            ("a:1:3", "t-grid must be 'start:stop:steps' with numeric fields, got 'a:1:3'"),
        ],
        ids=["no-steps", "two-fields", "not-a-number"],
    )
    def test_malformed_time_grid_exits_two(self, capsys, spec, message):
        code, out, err = run_cli(capsys, "probs", "--model", "one-qubit", "--t-grid", spec)
        assert (code, out, err) == (2, "", f"qclock: error: {message}\n")

    def test_no_manifest_for_stdout_runs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "probs", "--model", "one-qubit", "--t", "1")
        assert code == 0 and out
        assert list(tmp_path.iterdir()) == []


def test_main_entry_reads_argv_and_exits_with_the_status(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["qclock", "probs", "--model", "one-qubit", "--t", "1"])
    with pytest.raises(SystemExit) as exc:
        main_entry()
    assert exc.value.code == 0
    assert "0.229848847066" in capsys.readouterr().out


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
