"""Command line harness writing the experiment CSV files (optionally SVG).

Each subcommand minimizes local decoupling problems over a (lambda, m) grid
and writes one CSV with a fixed schema into --out.  Floats are written with
17 significant digits.  Every solve, check and spectrum runs on one BLAS
thread (blas), so on a given machine the outputs depend on neither --jobs
nor the BLAS thread count (OPENBLAS_NUM_THREADS); where no OpenBLAS thread
control is found, that holds only at a fixed thread count.
lambda_sweep_blas.json records the BLAS library and the thread count per
sweep point.

Exit codes: 0 success, 2 bad arguments or config file, or an output that
cannot be written, 3 numerical failure (partial output is kept and a .FAILED
marker is written next to it).
"""

import argparse
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import plots
from .analysis import (
    default_verify_grid,
    global_verify,
    run_sweep,
    spatial_decay,
    spectrum_at,
)
from .blas import single_thread_config
from .errors import NumericalFailure
from .lattice import extract_local_supernode
from .linearized import (STEEPEST_DESCENT_OPTIONS, MinimizeOptions,
                         linearized_minimize, steepest_descent)
from .transform import initial_guess


class ConfigError(ValueError):
    """Invalid command line arguments or config file contents."""


def _list_parser(convert, valid, requirement):
    """A parser(key, text) of comma-separated values, each convert(token) and valid."""
    def parse(key, text):
        try:
            vals = tuple(convert(t.strip()) for t in str(text).split(","))
        except ValueError as exc:
            raise ConfigError(f"bad {key} list {text!r}") from exc
        if not all(valid(v) for v in vals):
            raise ConfigError(f"{key} values must be {requirement}, got {text!r}")
        # A repeated value would be solved and written twice.
        for i, v in enumerate(vals):
            if v in vals[:i]:
                raise ConfigError(f"{key} value {v:g} is repeated in {text!r}")
        return vals

    return parse


def _value_parser(convert, valid=lambda v: True, message=""):
    """A parser(key, text) of one value, convert(token) and valid, else message.

    message is formatted with the key and the text it rejects.
    """
    def parse(key, text):
        try:
            v = convert(str(text).strip())
        except ValueError as exc:
            raise ConfigError(f"bad {key} value {text!r}") from exc
        if not valid(v):
            raise ConfigError(message.format(key=key, text=text))
        return v

    return parse


_positive_int = _value_parser(int, lambda v: v >= 1, "{key} must be >= 1")


# The settable keys, as --flags and as config file keys:
# key -> (Settings field, parser(key, text), metavar, help).
_FLAGS = {
    "lambda": ("lambdas", _list_parser(float, math.isfinite, "finite"),
               "L[,L...]", "stencil diagonal shift value(s)"),
    "m": ("ms", _list_parser(int, lambda v: v >= 1, "integers >= 1"),
          "M[,M...]", "local region radius value(s)"),
    "p": ("p", _positive_int, "P", "supernode width (default 1)"),
    "q": ("q", _positive_int, "Q", "supernode height (default 1)"),
    "max-iter": ("max_iter", _positive_int, "MAX_ITER",
                 f"iteration cap per minimization (default "
                 f"{MinimizeOptions.max_iter}, "
                 f"{STEEPEST_DESCENT_OPTIONS.max_iter} for sd-convergence)"),
    "tol": ("tol",
            _value_parser(float, lambda v: math.isfinite(v) and v > 0.0,
                          "{key} must be a positive finite number"),
            "TOL", f"relative stagnation tolerance (default "
            f"{MinimizeOptions.rel_tol:g}, "
            f"{STEEPEST_DESCENT_OPTIONS.rel_tol:g} for sd-convergence)"),
    "out": ("out", _value_parser(str), "OUT", "output directory (default: out)"),
    "format": ("fmt",
               _value_parser(str, lambda v: v in ("csv", "csv+svg"),
                             "{key} must be 'csv' or 'csv+svg', got {text!r}"),
               "FORMAT", "csv or csv+svg (default: csv)"),
    "jobs": ("jobs", _positive_int, "JOBS",
             "max concurrent sweep points (default 1)"),
}

_COMMON_DEFAULTS = {
    "p": 1,
    "q": 1,
    "max-iter": MinimizeOptions.max_iter,
    "tol": MinimizeOptions.rel_tol,
    "out": "out",
    "format": "csv",
    "jobs": 1,
}

# Per-command defaults; steepest descent has its own solver defaults.
_DEFAULTS = {
    "sd-convergence": {"lambda": (0.0,), "m": (1, 2, 3, 4),
                       "max-iter": STEEPEST_DESCENT_OPTIONS.max_iter,
                       "tol": STEEPEST_DESCENT_OPTIONS.rel_tol},
    "svd-spectrum": {"lambda": (0.0,), "m": tuple(range(1, 9))},
    "lin-convergence": {"lambda": (0.0,), "m": tuple(range(1, 8))},
    "spatial-decay": {"lambda": (0.0,), "m": tuple(range(1, 8))},
    "lambda-sweep": {"lambda": tuple(0.5 * i for i in range(9)),
                     "m": tuple(range(1, 8))},
    "global-verify": {"lambda": (0.0, 3.5), "m": (2, 4)},
}

@dataclass
class Settings:
    command: str
    lambdas: tuple
    ms: tuple
    p: int
    q: int
    max_iter: int
    tol: float
    out: str
    fmt: str
    jobs: int


def read_config(path):
    """Parse a key=value config file; '#' starts a comment, blank lines skip."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key = key.strip().replace("_", "-")
        if key not in _FLAGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _FLAGS[key][1](key, value)
    return values


def resolve_settings(args):
    """Merge defaults, config file, and explicit flags (flags win)."""
    merged = dict(_COMMON_DEFAULTS)
    merged.update(_DEFAULTS[args.command])
    if args.config is not None:
        merged.update(read_config(args.config))
    for key, (field, parse, *_) in _FLAGS.items():
        raw = getattr(args, field)
        if raw is not None:
            merged[key] = parse(key, raw)
    _, _, per_m = _COMMANDS[args.command]
    if per_m and len(merged["lambda"]) != 1:
        raise ConfigError(f"{args.command} writes per-m series for a single "
                          f"lambda; got {len(merged['lambda'])} values")
    return Settings(command=args.command,
                    **{field: merged[key] for key, (field, *_) in _FLAGS.items()})


def _fmt_value(v):
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v).replace(",", ";").replace("\n", " ")


def write_csv(path, header, rows):
    """Comma-separated, LF line endings, floats at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_value(v) for v in row) + "\n")


def _output(settings, outdir, suffix):
    """outdir / the command's name, with '_' for '-', plus suffix."""
    return outdir / (settings.command.replace("-", "_") + suffix)


def _finalize(settings, outdir, header, rows, failure, chart=None):
    """Write the CSV, the chart under csv+svg, and a .FAILED marker on failure.

    chart is (series, title, xlabel, ylabel) for plots.write_line_chart.  On
    success a marker left by an earlier failed run is removed.
    """
    write_csv(_output(settings, outdir, ".csv"), header, rows)
    if chart is not None and settings.fmt == "csv+svg":
        plots.write_line_chart(_output(settings, outdir, ".svg"), *chart)
    marker = _output(settings, outdir, ".FAILED")
    if failure is not None:
        marker.write_text(f"{failure}\n")
        return 3
    marker.unlink(missing_ok=True)
    return 0


def _per_m(settings, solve):
    """Run solve(problem) for each m at the single lambda of a per-m series.

    Stops at the first NumericalFailure.  Returns (lam, [(m, problem,
    result)] for the m values that succeeded, failure text or None).
    """
    (lam,) = settings.lambdas
    results = []
    for m in settings.ms:
        try:
            problem = extract_local_supernode(m, settings.p, settings.q, lam)
            results.append((m, problem, solve(problem)))
        except NumericalFailure as exc:
            return lam, results, f"m={m}: {exc}"
    return lam, results, None


def _options(settings):
    return MinimizeOptions(max_iter=settings.max_iter, rel_tol=settings.tol)


def _error_series(results):
    return [(f"m={m}", [rec.iteration for rec in trace.iterations],
             [rec.error for rec in trace.iterations])
            for m, _, trace in results]


def cmd_sd_convergence(settings, outdir):
    opts = _options(settings)
    lam, results, failure = _per_m(
        settings, lambda problem: steepest_descent(problem, opts)[1])
    rows = [(m, rec.iteration, rec.error)
            for m, _, trace in results for rec in trace.iterations]
    chart = (_error_series(results), f"steepest descent, lambda={lam:g}",
             "iteration", "error norm")
    return _finalize(settings, outdir, ["m", "iteration", "error"], rows,
                     failure, chart)


def cmd_svd_spectrum(settings, outdir):
    lam, results, failure = _per_m(
        settings, lambda problem: spectrum_at(problem, initial_guess(problem)))
    rows, series = [], []
    for m, _, (sigma, _) in results:
        top = sigma[0] if sigma[0] > 0 else 1.0
        normalized = sigma / top
        rows.extend((m, k + 1, normalized[k]) for k in range(len(normalized)))
        series.append((f"m={m}", list(range(1, len(normalized) + 1)),
                       normalized.tolist()))
    chart = (series,
             f"normal system spectrum at the initial guess, lambda={lam:g}",
             "index", "sigma / sigma_1")
    return _finalize(settings, outdir, ["m", "index", "sigma_normalized"],
                     rows, failure, chart)


def cmd_lin_convergence(settings, outdir):
    opts = _options(settings)
    lam, results, failure = _per_m(
        settings, lambda problem: linearized_minimize(problem, opts)[1])
    rows = [(m, rec.iteration, rec.error, rec.alpha,
             rec.solve.cond_eq7_estimate)
            for m, _, trace in results for rec in trace.iterations]
    chart = (_error_series(results),
             f"linearized minimization, lambda={lam:g}", "iteration",
             "error norm")
    return _finalize(settings, outdir,
                     ["m", "iteration", "error", "alpha", "cond_eq7_estimate"],
                     rows, failure, chart)


def cmd_spatial_decay(settings, outdir):
    opts = _options(settings)
    lam, results, failure = _per_m(
        settings, lambda problem: linearized_minimize(problem, opts))
    errors = [(m, trace.final_error) for m, _, (_, trace, _) in results]
    rows = [("error_vs_m", float(m), err) for m, err in errors]
    series = [("error vs m", [m for m, _ in errors], [e for _, e in errors])]

    if failure is None and results:
        m_big, problem, (pair, _, _) = max(results, key=lambda res: res[0])
        records = spatial_decay(problem, pair)
        rows.extend(("column_norm_y", rec.distance, rec.y_deviation)
                    for rec in records)
        rows.extend(("column_norm_a", rec.distance, rec.a_deviation)
                    for rec in records)
        ordered = sorted(records, key=lambda rec: (rec.distance, rec.node))
        distances = [rec.distance for rec in ordered]
        series.append((f"|dY| columns, m={m_big}", distances,
                       [rec.y_deviation for rec in ordered]))
        series.append((f"|dA| columns, m={m_big}", distances,
                       [rec.a_deviation for rec in ordered]))

    chart = (series, f"spatial decay, lambda={lam:g}", "m or distance",
             "value")
    return _finalize(settings, outdir, ["kind", "distance_or_m", "value"],
                     rows, failure, chart)


def _mirror(lam, swept):
    """8 - lam, or the swept value within 1e-12 of it: 8 - 7.9 is not 0.1."""
    mirror = 8.0 - lam
    near = min(sorted(swept), key=lambda s: abs(s - mirror))
    return near if abs(near - mirror) <= 1e-12 else mirror


def cmd_lambda_sweep(settings, outdir):
    # lam and 8 - lam are exactly conjugate stencils, so converged errors
    # should match; mirrors not already swept are computed in the same pool.
    swept = set(settings.lambdas)
    mirror_of = {lam: _mirror(lam, swept) for lam in swept}
    mirrors = sorted(set(mirror_of.values()) - swept)
    everything = run_sweep(list(settings.lambdas) + mirrors, settings.ms,
                           settings.p, settings.q, _options(settings),
                           jobs=settings.jobs)
    records = [rec for rec in everything if rec.lam in swept]
    mirror_records = [rec for rec in everything if rec.lam not in swept]
    header = ["lambda", "m", "p", "q", "error", "iterations", "cond_y",
              "cond_eq7_estimate", "null_dim", "n_local", "n_pattern",
              "status"]
    rows = [(rec.lam, rec.m, rec.p, rec.q, rec.error, rec.iterations,
             rec.cond_y, rec.cond_eq7_estimate, rec.null_dim, rec.n_local,
             rec.n_pattern, rec.status) for rec in records]

    by_point = {(rec.lam, rec.m): rec for rec in records + mirror_records}
    sym_rows = []
    for lam, m in itertools.product(settings.lambdas, settings.ms):
        a = by_point[lam, m]
        b = by_point[mirror_of[lam], m]
        if a.stop_reason == "failed" or b.stop_reason == "failed":
            continue
        denom = max(abs(a.error), abs(b.error), 1e-300)
        sym_rows.append((lam, mirror_of[lam], m, a.error, b.error,
                         abs(a.error - b.error) / denom))
    write_csv(_output(settings, outdir, "_symmetry.csv"),
              ["lambda", "lambda_mirror", "m", "error", "error_mirror",
               "rel_diff"], sym_rows)

    # No --jobs here, so that output directories agree across --jobs.
    _output(settings, outdir, "_blas.json").write_text(
        json.dumps(single_thread_config(), indent=2, sort_keys=True) + "\n")

    failure = "; ".join(
        f"lambda={rec.lam:g} m={rec.m}: {rec.status}"
        for rec in records + mirror_records
        if rec.stop_reason == "failed") or None

    series = []
    for m in settings.ms:
        pts = [(rec.lam, rec.error) for rec in records
               if rec.m == m and math.isfinite(rec.error)]
        if pts:
            series.append((f"m={m}", [p[0] for p in pts], [p[1] for p in pts]))
    chart = (series,
             f"converged error vs lambda (p={settings.p}, q={settings.q})",
             "lambda", "error norm")
    return _finalize(settings, outdir, header, rows, failure, chart)


def cmd_global_verify(settings, outdir):
    rows, failure, violations = [], None, []
    for lam, m in itertools.product(settings.lambdas, settings.ms):
        try:
            problem = extract_local_supernode(m, settings.p, settings.q, lam)
            pair, _, _ = linearized_minimize(problem, _options(settings))
            spec, center = default_verify_grid(problem)
            report = global_verify(spec, center, problem, pair)
        except NumericalFailure as exc:
            failure = f"lambda={lam:g} m={m}: {exc}"
            break
        rows.append((m, lam, report.local_error, report.global_error,
                     report.max_decoupled_offdiag))
        if not report.locality_holds(problem):
            violations.append(f"lambda={lam:g} m={m}")

    if failure is None and violations:
        failure = "locality violated at " + ", ".join(violations)
    return _finalize(settings, outdir,
                     ["m", "lambda", "local_error", "global_error",
                      "max_decoupled_offdiag"], rows, failure)


# name -> (handler, help, per_m).  A per-m command writes one series per m at
# a single lambda (_per_m).
_COMMANDS = {
    "sd-convergence": (
        cmd_sd_convergence,
        "error vs iteration for the steepest descent baseline", True),
    "svd-spectrum": (
        cmd_svd_spectrum,
        "normalized singular values of the dA normal system", True),
    "lin-convergence": (
        cmd_lin_convergence,
        "error vs iteration for the linearized minimizer", True),
    "spatial-decay": (
        cmd_spatial_decay,
        "converged error vs m plus per-column deviation vs distance", True),
    "lambda-sweep": (
        cmd_lambda_sweep,
        "converged error over a (lambda, m) grid, plus symmetry check", False),
    "global-verify": (
        cmd_global_verify,
        "embed X on an explicit grid and verify exact locality", False),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sparsecoarsen",
        description="local sparsity-preserving decoupling experiments",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, summary, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for key, (field, _, metavar, text) in _FLAGS.items():
            p.add_argument(f"--{key}", dest=field, metavar=metavar, help=text)
        p.add_argument("--config", help="key=value file; flags override it")
    return parser


def main(argv=None):
    # argparse takes "-0.5,1" or "-1e-3" after a space for a flag, not a value:
    # join it to its value flag, written in full or abbreviated as argparse allows.
    argv = sys.argv[1:] if argv is None else list(argv)
    value_flags = [f"--{key}" for key in (*_FLAGS, "config")]
    for k in range(len(argv) - 1, 0, -1):
        flags = [f for f in value_flags if f.startswith(argv[k - 1])]
        if (argv[k - 1] in flags or len(flags) == 1) and re.match(r"-[0-9.]", argv[k]):
            argv[k - 1:k + 1] = [f"{argv[k - 1]}={argv[k]}"]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        settings = resolve_settings(args)
        outdir = Path(settings.out)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # e.g. --out names an existing file
            raise ConfigError(f"cannot use {outdir} as the output directory: {exc}") from exc
        return _COMMANDS[settings.command][0](settings, outdir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # a write into outdir failed
        print(f"error: cannot write into {outdir}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
