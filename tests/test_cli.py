import contextlib
import csv
import json
import math

import pytest

import sparsecoarsen.analysis as analysis
import sparsecoarsen.blas as blas
import sparsecoarsen.cli as cli
from sparsecoarsen.cli import ConfigError, main, read_config, write_csv
from sparsecoarsen.errors import NumericalFailure


@contextlib.contextmanager
def caller_blas_threads(threads):
    """Run the block at this OpenBLAS thread count, where it can be set."""
    control = blas.find_openblas()
    if control is None:
        yield
        return
    before = control.get_threads()
    control.set_threads(threads)
    try:
        yield
    finally:
        control.set_threads(before)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


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

    def test_multiple_lambdas_rejected_for_per_m_series(self, tmp_path):
        code = main(["lin-convergence", "--lambda", "0,1",
                     "--out", str(tmp_path)])
        assert code == 2

    def test_help_shows_metavars(self, capsys):
        assert main(["lambda-sweep", "--help"]) == 0
        out = capsys.readouterr().out
        for shown in ("--lambda L[,L...]", "--m M[,M...]", "--format FORMAT"):
            assert shown in out

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

        monkeypatch.setattr(analysis, "ProcessPoolExecutor", SerialPool)
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

    def test_lambda_sweep_directory_independent_of_jobs_and_blas_threads(
            self, tmp_path):
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
