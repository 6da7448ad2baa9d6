import concurrent.futures
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sparsecoarsen.analysis as analysis
import sparsecoarsen.blas as blas
import sparsecoarsen.cli as cli
from sparsecoarsen.cli import ConfigError, main, read_config, write_csv
from sparsecoarsen.errors import NumericalFailure
from sparsecoarsen.lattice import extract_local_scalar
from sparsecoarsen.linearized import MinimizeOptions, linearized_minimize


FIGURES = Path(__file__).resolve().parents[1] / "out" / "figures"


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def rows_at(path, ms):
    """The header and the rows of a CSV whose m column is one of ms."""
    header, *rows = read_rows(path)
    col = header.index("m")
    return [header] + [row for row in rows if int(row[col]) in ms]


class TestCsvWriting:
    def test_float_precision_and_line_endings(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ["a", "b"], [(1.0 / 3.0, 7)])
        raw = path.read_bytes()
        assert raw == b"a,b\n0.33333333333333331,7\n"

    def test_separator_sanitized_in_text(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ["status"], [("failed: a, b\nc",)])
        assert read_rows(path) == [["status"], ["failed: a; b c"]]

    def test_nan_round_trips(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ["v"], [(math.nan,)])
        assert math.isnan(float(read_rows(path)[1][0]))


class TestConfigFile:
    def test_values_parsed_with_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda = 0, 3.5\nm=1,2  # small cases\n\njobs=2\n")
        values = read_config(cfg)
        assert values == {"lambda": (0.0, 3.5), "m": (1, 2), "jobs": 2}

    def test_underscore_keys_accepted(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_iter=5\n")
        assert read_config(cfg) == {"max-iter": 5}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("widht=3\n")
        with pytest.raises(ConfigError):
            read_config(cfg)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            read_config(tmp_path / "absent.cfg")

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m=zero\n")
        with pytest.raises(ConfigError):
            read_config(cfg)

    def test_line_without_equals_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m=1\nlambda 0\n")
        out = tmp_path / "o"
        assert main(["lambda-sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {cfg}:2: expected key=value, got 'lambda 0'\n"
        assert not out.exists()  # nothing solved or written

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m=1,2,3\nmax_iter=7\n")
        out = tmp_path / "o"
        code = main(["sd-convergence", "--config", str(cfg), "--m", "1",
                     "--out", str(out)])
        assert code == 0
        rows = read_rows(out / "sd_convergence.csv")[1:]
        assert {r[0] for r in rows} == {"1"}  # --m beat the config list
        assert max(int(r[1]) for r in rows) <= 7  # config max-iter applied


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["sd-convergence", "--bogus"]) == 2

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "sd-convergence" in capsys.readouterr().out

    def test_multiple_lambdas_rejected_for_per_m_series(self, tmp_path,
                                                        capsys):
        out = tmp_path / "o"
        code = main(["lin-convergence", "--lambda", "0,1", "--out", str(out)])
        assert code == 2
        assert "single lambda; got 2 values" in capsys.readouterr().err
        assert not out.exists()  # rejected before anything is created

    def test_out_naming_a_file_is_usage_error(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        code = main(["lin-convergence", "--m", "1", "--out", str(afile)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(afile) in err
        assert "Traceback" not in err
        assert afile.read_text() == "kept\n"

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        blocked = out / "lin_convergence.csv"
        blocked.mkdir(parents=True)  # a directory where the CSV goes
        code = main(["lin-convergence", "--m", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(blocked) in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_help_shows_metavars(self, capsys):
        assert main(["lambda-sweep", "--help"]) == 0
        out = capsys.readouterr().out
        for shown in ("--lambda L[,L...]", "--m M[,M...]", "--format FORMAT"):
            assert shown in out

    def test_common_defaults_are_the_solver_defaults(self):
        settings = cli.resolve_settings(
            cli.build_parser().parse_args(["lambda-sweep"]))
        assert settings.tol == MinimizeOptions().rel_tol == 1e-8
        assert settings.max_iter == MinimizeOptions().max_iter

    @pytest.mark.parametrize("key, text, repeated", [
        ("lambda", "1,1", "1"),
        ("lambda", "0.5,2,0.50", "0.5"),
        ("m", "2,3,2", "2"),
    ])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_repeated_values_rejected(self, tmp_path, capsys, key, text,
                                      repeated, via):
        out = tmp_path / "o"
        if via == "flag":
            argv = [f"--{key}", text]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}={text}\n")
            argv = ["--config", str(cfg)]
        code = main(["lambda-sweep", *argv, "--out", str(out)])
        assert code == 2
        assert f"{key} value {repeated} is repeated" in capsys.readouterr().err
        assert not out.exists()  # nothing solved or written

    @pytest.mark.parametrize("key, text, message", [
        ("p", "0", "p must be >= 1"),
        ("p", "x", "bad p value 'x'"),
        ("max-iter", "1.5", "bad max-iter value '1.5'"),
        ("jobs", "0", "jobs must be >= 1"),
        ("tol", "-1", "tol must be a positive finite number"),
        ("tol", "nan", "tol must be a positive finite number"),
        ("tol", "x", "bad tol value 'x'"),
        ("format", "pdf", "format must be 'csv' or 'csv+svg', got 'pdf'"),
        ("m", "0", "m values must be integers >= 1, got '0'"),
        ("lambda", "nan", "lambda values must be finite, got 'nan'"),
        ("lambda", "inf", "lambda values must be finite, got 'inf'"),
    ])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_bad_scalar_values_rejected(self, tmp_path, capsys, key, text,
                                        message, via):
        out = tmp_path / "o"
        if via == "flag":
            argv = [f"--{key}={text}"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}={text}\n")
            argv = ["--config", str(cfg)]
        code = main(["lambda-sweep", *argv, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()  # nothing solved or written

    def test_help_lists_the_commands_in_order(self, capsys):
        commands = [
            ("sd-convergence",
             "error vs iteration for the steepest descent baseline"),
            ("svd-spectrum", "normalized singular values of the dA normal system"),
            ("lin-convergence", "error vs iteration for the linearized minimizer"),
            ("spatial-decay",
             "converged error vs m plus per-column deviation vs distance"),
            ("lambda-sweep",
             "converged error over a (lambda, m) grid, plus symmetry check"),
            ("global-verify",
             "embed X on an explicit grid and verify exact locality"),
        ]
        assert main(["--help"]) == 0
        shown = " ".join(capsys.readouterr().out.split())  # undo the wrapping
        at = [shown.find(f"{name} {summary}") for name, summary in commands]
        assert -1 not in at and at == sorted(at)

    @pytest.mark.parametrize("command, solver, m_col, failed_at", [
        ("sd-convergence", "steepest_descent", 0, "m=2"),
        ("svd-spectrum", "spectrum_at", 0, "m=2"),
        ("lin-convergence", "linearized_minimize", 0, "m=2"),
        ("spatial-decay", "linearized_minimize", 1, "m=2"),
        ("global-verify", "linearized_minimize", 0, "lambda=0 m=2"),
    ])
    def test_numerical_failure_keeps_partial_output(self, tmp_path,
                                                     monkeypatch, command,
                                                     solver, m_col, failed_at):
        real = getattr(cli, solver)

        def flaky(problem, *args, **kwargs):
            if problem.n_local > 5:
                raise NumericalFailure("synthetic breakdown")
            return real(problem, *args, **kwargs)

        monkeypatch.setattr(cli, solver, flaky)
        code = main([command, "--lambda", "0", "--m", "1,2,3",
                     "--format", "csv+svg", "--out", str(tmp_path)])
        assert code == 3
        stem = command.replace("-", "_")
        rows = read_rows(tmp_path / f"{stem}.csv")[1:]
        assert rows and all(r[m_col] == "1" for r in rows)  # only m=1 kept
        marker = (tmp_path / f"{stem}.FAILED").read_text()
        assert marker.startswith(f"{failed_at}: synthetic breakdown")
        charted = command != "global-verify"
        assert (tmp_path / f"{stem}.svg").exists() == charted

    def test_success_removes_stale_failure_marker(self, tmp_path,
                                                  monkeypatch):
        def broken(problem, *args, **kwargs):
            raise NumericalFailure("synthetic breakdown")

        argv = ["lin-convergence", "--m", "1", "--out", str(tmp_path)]
        with monkeypatch.context() as patch:
            patch.setattr(cli, "linearized_minimize", broken)
            assert main(argv) == 3
        assert (tmp_path / "lin_convergence.FAILED").exists()
        assert main(argv) == 0
        assert not (tmp_path / "lin_convergence.FAILED").exists()
        assert len(read_rows(tmp_path / "lin_convergence.csv")) > 1


class TestFlagTable:
    VALUES = {"lambda": "0,3.5", "m": "1,2", "p": "2", "q": "3",
              "max-iter": "7", "tol": "1e-9", "out": "elsewhere",
              "format": "csv+svg", "jobs": "2"}

    def test_every_key_has_a_sample(self):
        assert set(self.VALUES) == set(cli._FLAGS)

    @pytest.mark.parametrize("key", sorted(VALUES))
    def test_config_and_flag_agree(self, tmp_path, key):
        field = cli._FLAGS[key][0]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={self.VALUES[key]}\n")
        parser = cli.build_parser()

        def resolved(*argv):
            args = parser.parse_args(["lambda-sweep", *argv])
            return getattr(cli.resolve_settings(args), field)

        via_flag = resolved(f"--{key}", self.VALUES[key])
        assert via_flag == resolved("--config", str(cfg))
        assert via_flag != resolved()  # differs from the default


class TestSchemas:
    def test_sd_convergence(self, tmp_path):
        assert main(["sd-convergence", "--m", "1", "--max-iter", "50",
                     "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "sd_convergence.csv")
        assert rows[0] == ["m", "iteration", "error"]
        assert rows[1] == ["1", "0", "2.8284271247461903"]
        errs = [float(r[2]) for r in rows[1:]]
        assert all(b <= a for a, b in zip(errs, errs[1:]))

    def test_svd_spectrum_normalized(self, tmp_path):
        assert main(["svd-spectrum", "--m", "1,2",
                     "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "svd_spectrum.csv")
        assert rows[0] == ["m", "index", "sigma_normalized"]
        by_m = {}
        for m, idx, val in rows[1:]:
            by_m.setdefault(m, []).append((int(idx), float(val)))
        for m, entries in by_m.items():
            assert [i for i, _ in entries] == list(range(1, len(entries) + 1))
            values = [v for _, v in entries]
            assert values[0] == 1.0
            assert all(b <= a for a, b in zip(values, values[1:]))
        assert len(by_m["1"]) == 5 and len(by_m["2"]) == 25

    def test_lin_convergence(self, tmp_path):
        assert main(["lin-convergence", "--m", "1",
                     "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "lin_convergence.csv")
        assert rows[0] == ["m", "iteration", "error", "alpha",
                           "cond_eq7_estimate"]
        assert float(rows[1][3]) == 0.0  # no step taken yet at iteration 0
        assert float(rows[-1][2]) == pytest.approx(0.74382120488419345,
                                                   rel=1e-12)
        # alpha and the condition estimate are written bit for bit from the
        # trace records, never through a None-to-NaN stand-in
        _, trace, _ = linearized_minimize(extract_local_scalar(1, 0.0))
        assert [(r[3], r[4]) for r in rows[1:]] == [
            (format(rec.alpha, ".17g"),
             format(rec.solve.cond_eq7_estimate, ".17g"))
            for rec in trace.iterations]

    def test_spatial_decay(self, tmp_path):
        assert main(["spatial-decay", "--m", "1,2",
                     "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "spatial_decay.csv")[1:]
        kinds = {r[0] for r in rows}
        assert kinds == {"error_vs_m", "column_norm_y", "column_norm_a"}
        curve = [r for r in rows if r[0] == "error_vs_m"]
        assert [float(r[1]) for r in curve] == [1.0, 2.0]
        per_node = [r for r in rows if r[0] == "column_norm_y"]
        assert len(per_node) == 13  # the m=2 region

    def test_lambda_sweep_and_symmetry(self, tmp_path):
        assert main(["lambda-sweep", "--lambda", "3,5", "--m", "1,2",
                     "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "lambda_sweep.csv")
        assert rows[0][:6] == ["lambda", "m", "p", "q", "error", "iterations"]
        assert [(r[0], r[1]) for r in rows[1:]] == \
            [("3", "1"), ("3", "2"), ("5", "1"), ("5", "2")]
        assert all(r[-1] == "ok" for r in rows[1:])
        sym = read_rows(tmp_path / "lambda_sweep_symmetry.csv")
        assert sym[0] == ["lambda", "lambda_mirror", "m", "error",
                          "error_mirror", "rel_diff"]
        # 3 and 5 mirror each other inside the sweep, nothing recomputed
        assert [(r[0], r[1]) for r in sym[1:]] == \
            [("3", "5"), ("3", "5"), ("5", "3"), ("5", "3")]
        assert all(float(r[5]) <= 1e-10 for r in sym[1:])

    @pytest.mark.parametrize("flag,value", [
        ("--lambda", "-0.5,1"), ("--lambda", "-1e-3"), ("--lambda", "-.5"),
        ("--lam", "-0.5,1")])
    def test_dash_value_after_a_space_is_the_value(self, tmp_path, flag,
                                                    value):
        # argparse alone reads these as flags: only plain negative numbers
        # such as -1 pass as values
        spaced, joined = tmp_path / "spaced", tmp_path / "joined"
        assert main(["lambda-sweep", flag, value, "--m", "1",
                     "--out", str(spaced)]) == 0
        assert main(["lambda-sweep", f"--lambda={value}", "--m", "1",
                     "--out", str(joined)]) == 0
        names = sorted(p.name for p in joined.iterdir())
        assert sorted(p.name for p in spaced.iterdir()) == names
        assert "lambda_sweep.csv" in names
        for name in names:
            assert (spaced / name).read_bytes() == (joined / name).read_bytes()

    def test_missing_value_keeps_argparse_error(self, tmp_path, capsys):
        assert main(["lambda-sweep", "--lambda", "--m", "1",
                     "--out", str(tmp_path)]) == 2
        assert "argument --lambda: expected one argument" in \
            capsys.readouterr().err

    def test_lambda_sweep_mirror_matches_swept_value(self, tmp_path,
                                                      monkeypatch):
        # 8 - 7.9 is 0.09999999999999964, not 0.1: the mirror of 7.9 is the
        # swept 0.1, and no third lambda is solved
        solved = []
        real = analysis.linearized_minimize

        def recorded(problem, opts):
            solved.append(problem.lam)
            return real(problem, opts)

        monkeypatch.setattr(analysis, "linearized_minimize", recorded)
        assert main(["lambda-sweep", "--lambda", "0.1,7.9", "--m", "1,2",
                     "--out", str(tmp_path)]) == 0
        assert solved == [0.1, 0.1, 7.9, 7.9]
        sym = read_rows(tmp_path / "lambda_sweep_symmetry.csv")[1:]
        assert [(float(r[0]), float(r[1]), r[2]) for r in sym] == \
            [(0.1, 7.9, "1"), (0.1, 7.9, "2"), (7.9, 0.1, "1"),
             (7.9, 0.1, "2")]
        assert all(float(r[5]) <= 1e-10 for r in sym)

    def test_lambda_sweep_mirrors_share_one_pool(self, tmp_path,
                                                  monkeypatch):
        pools, solved = [], []
        real = analysis.linearized_minimize

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        def flaky(problem, opts):
            solved.append(problem.lam)
            if problem.lam == 8.0:
                raise NumericalFailure("synthetic breakdown")
            return real(problem, opts)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(analysis, "linearized_minimize", flaky)
        code = main(["lambda-sweep", "--lambda", "5,0", "--m", "1",
                     "--jobs", "2", "--out", str(tmp_path)])
        assert code == 3
        assert pools == [2]
        # the mirror 3 of 5 sorts between the swept 0 and 5
        assert solved == [0.0, 3.0, 5.0, 8.0]
        rows = read_rows(tmp_path / "lambda_sweep.csv")[1:]
        assert [(r[0], r[-1]) for r in rows] == [("0", "ok"), ("5", "ok")]
        sym = read_rows(tmp_path / "lambda_sweep_symmetry.csv")[1:]
        assert [(r[0], r[1]) for r in sym] == [("5", "3")]
        assert (tmp_path / "lambda_sweep.FAILED").read_text() == \
            "lambda=8 m=1: failed: synthetic breakdown\n"

    def test_global_verify(self, tmp_path):
        assert main(["global-verify", "--m", "2", "--lambda", "0,3.5",
                     "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "global_verify.csv")
        assert rows[0] == ["m", "lambda", "local_error", "global_error",
                           "max_decoupled_offdiag"]
        assert len(rows) == 3
        for r in rows[1:]:
            assert float(r[3]) == pytest.approx(float(r[2]), rel=1e-12)

    def test_global_verify_locality_violation(self, tmp_path, monkeypatch):
        # A coupling to the outside above 1e-12 ||A_LL|| at one of two
        # points fails the command there, and only there.
        real = cli.global_verify

        def leaky(spec, center, problem, pair):
            report = real(spec, center, problem, pair)
            if problem.lam == 3.5:
                scale = math.sqrt(float((problem.a_ll**2).sum()))
                report = dataclasses.replace(report, coupling_block_max=1e-9 * scale)
            return report

        monkeypatch.setattr(cli, "global_verify", leaky)
        assert main(["global-verify", "--m", "2", "--lambda", "0,3.5",
                     "--out", str(tmp_path)]) == 3
        rows = read_rows(tmp_path / "global_verify.csv")[1:]
        assert [(r[0], r[1]) for r in rows] == [("2", "0"), ("2", "3.5")]
        assert (tmp_path / "global_verify.FAILED").read_text() == \
            "locality violated at lambda=3.5 m=2\n"


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["lambda-sweep", "--lambda", "0,4", "--m", "1,2",
                "--format", "csv+svg"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b"), "--jobs", "3"]) == 0
        for name in ("lambda_sweep.csv", "lambda_sweep_symmetry.csv",
                     "lambda_sweep.svg"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    # m=6,7 at lambda 0 hit the known null-dimension miscount for m >= 6;
    # this test checks byte identity across --jobs and thread counts only.
    @pytest.mark.filterwarnings(
        "ignore:detected null dimension:RuntimeWarning")
    def test_lambda_sweep_directory_independent_of_jobs_and_blas_threads(
            self, tmp_path, caller_blas_threads):
        # Run on the caller's BLAS thread count, the m=7 rows differ between
        # one and two threads on a machine with two or more cores.
        args = ["lambda-sweep", "--lambda", "0", "--m", "6,7"]
        dirs = []
        for jobs, threads in (("1", 2), ("2", 2), ("1", 1)):
            dirs.append(tmp_path / f"jobs{jobs}_threads{threads}")
            with caller_blas_threads(threads):
                assert main(args + ["--jobs", jobs,
                                    "--out", str(dirs[-1])]) == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        assert "lambda_sweep_blas.json" in names
        for other in dirs[1:]:
            assert sorted(p.name for p in other.iterdir()) == names
            for name in names:
                assert (dirs[0] / name).read_bytes() == \
                    (other / name).read_bytes(), (other.name, name)

    # m=6 hits the known null-dimension miscount for m >= 6; this test
    # checks byte identity across caller thread counts only.
    @pytest.mark.filterwarnings(
        "ignore:detected null dimension:RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        ["sd-convergence", "--m", "7", "--max-iter", "30"],
        ["svd-spectrum", "--m", "5,6"],
        ["lin-convergence", "--m", "5,6"],
        ["spatial-decay", "--m", "5,6"],
        ["global-verify", "--lambda", "0", "--m", "6"],
    ])
    def test_every_command_independent_of_caller_blas_threads(
            self, tmp_path, caller_blas_threads, argv):
        # Run on the caller's thread count, each of these differs between
        # one and two threads on a machine with two or more cores.
        dirs = []
        for threads in (1, 2):
            dirs.append(tmp_path / f"threads{threads}")
            with caller_blas_threads(threads):
                assert main(argv + ["--format", "csv+svg",
                                    "--out", str(dirs[-1])]) == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        assert sorted(p.name for p in dirs[1].iterdir()) == names
        for name in names:
            assert (dirs[0] / name).read_bytes() == \
                (dirs[1] / name).read_bytes(), name

    def test_blas_sidecar(self, tmp_path):
        assert main(["lambda-sweep", "--lambda", "4", "--m", "1",
                     "--out", str(tmp_path)]) == 0
        sidecar = json.loads(
            (tmp_path / "lambda_sweep_blas.json").read_text())
        assert sorted(sidecar) == ["library", "threads_per_point"]
        if blas.find_openblas() is None:
            assert sidecar == {"library": None, "threads_per_point": None}
        else:
            assert sidecar["threads_per_point"] == 1
            assert sidecar["library"].startswith("OpenBLAS")

    def test_blas_sidecar_without_thread_control(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setattr(blas, "find_openblas", lambda: None)
        assert main(["lambda-sweep", "--lambda", "4", "--m", "1",
                     "--out", str(tmp_path)]) == 0
        assert read_rows(tmp_path / "lambda_sweep.csv")[1][-1] == "ok"
        assert json.loads(
            (tmp_path / "lambda_sweep_blas.json").read_text()) == \
            {"library": None, "threads_per_point": None}

    def test_svg_written_on_request(self, tmp_path):
        assert main(["sd-convergence", "--m", "1", "--max-iter", "30",
                     "--out", str(tmp_path), "--format", "csv+svg"]) == 0
        svg = (tmp_path / "sd_convergence.svg").read_text()
        assert svg.startswith("<svg ") and "polyline" in svg


class TestCommittedFigures:
    # The lambda = 4 rows meet the known null-dimension miscount.
    @pytest.mark.filterwarnings(
        "ignore:detected null dimension:RuntimeWarning")
    def test_small_m_rows_regenerate_byte_for_byte(self, tmp_path):
        # The bits hold only on the BLAS build that wrote the figures.
        sidecar = json.loads(
            (FIGURES / "lambda_sweep" / "lambda_sweep_blas.json").read_text())
        control = blas.find_openblas()
        if control is None or control.config != sidecar["library"]:
            pytest.skip("the committed figures come from another BLAS build")
        assert main(["lambda-sweep", "--m", "1,2,3",
                     "--out", str(tmp_path)]) == 0
        assert main(["svd-spectrum", "--m", "1,2,3,4",
                     "--out", str(tmp_path)]) == 0
        for run, name, ms in (("lambda_sweep", "lambda_sweep.csv", (1, 2, 3)),
                              ("lambda_sweep", "lambda_sweep_symmetry.csv", (1, 2, 3)),
                              ("svd_spectrum", "svd_spectrum.csv", (1, 2, 3, 4))):
            assert read_rows(tmp_path / name) == rows_at(FIGURES / run / name, ms), name


    @pytest.mark.filterwarnings(
        "ignore:detected null dimension:RuntimeWarning")
    def test_supernode_rows_regenerate_byte_for_byte(self, tmp_path):
        # Supernode regions run the shared phases in the one identity
        # block: a change there that moves their bits fails here.
        figures = FIGURES / "supernode_sweep"
        sidecar = json.loads((figures / "lambda_sweep_blas.json").read_text())
        control = blas.find_openblas()
        if control is None or control.config != sidecar["library"]:
            pytest.skip("the committed figures come from another BLAS build")
        assert main(["lambda-sweep", "--p", "2", "--q", "1", "--m", "1,2,3",
                     "--out", str(tmp_path)]) == 0
        for name in ("lambda_sweep.csv", "lambda_sweep_symmetry.csv"):
            assert read_rows(tmp_path / name) == rows_at(figures / name, (1, 2, 3)), name


NO_SCIPY_SCRIPT = """
import sys
import sparsecoarsen
from sparsecoarsen.cli import main
for argv in (["sd-convergence", "--m", "1,2"],
             ["svd-spectrum", "--m", "1,2"],
             ["lin-convergence", "--m", "1,2"],
             ["spatial-decay", "--m", "1,2"],
             ["lambda-sweep", "--lambda", "0", "--m", "1,2"],
             ["global-verify", "--lambda", "0", "--m", "2"]):
    assert main(argv + ["--format", "csv+svg", "--out", sys.argv[1]]) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
print(sorted(name for name in sys.modules
             if name.split(".")[0] == "multiprocessing"
             or name == "concurrent.futures.process"))
"""


class TestNumpyOnly:
    def test_commands_load_no_scipy(self, tmp_path):
        # numpy is the only runtime dependency: a fresh process runs all six
        # commands, the explicit-grid check included, without loading scipy.
        # At one job they solve in-process, so no process pool is loaded.
        env = dict(os.environ)
        src = str(Path(cli.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n[]\n"


IMPORT_SCRIPT = """
import runpy, sys
runpy.run_path(sys.argv[1])  # not as __main__: the imports, not the run
import sparsecoarsen
print(sparsecoarsen.__file__)
"""


class TestScripts:
    def test_run_all_figures_imports_from_checkout_without_install(self):
        # The script puts the checkout's src/ first, as perfbench/run.py
        # does, so it needs neither an install nor PYTHONPATH.
        package = Path(cli.__file__).resolve().parent
        root = package.parents[1]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_SCRIPT,
             str(root / "scripts" / "run_all_figures.py")],
            cwd=root, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert Path(done.stdout.strip()).resolve() == package / "__init__.py"
