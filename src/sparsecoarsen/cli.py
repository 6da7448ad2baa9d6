"""Command line harness writing the experiment CSV files (optionally SVG).

Each subcommand minimizes local decoupling problems over a (lambda, m) grid
and writes one CSV with a fixed schema into --out.  Floats are written with
17 significant digits.  Reruns with the same inputs are byte-identical on the
same machine with the same BLAS thread count, whatever --jobs is; another
thread count can move the last digits.

Exit codes: 0 success, 2 bad arguments or config file, 3 numerical failure
(partial output is kept and a .FAILED marker is written next to it).
"""

import argparse
import math
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
from .errors import NumericalFailure
from .lattice import extract_local_scalar, extract_local_supernode
from .linearized import MinimizeOptions, linearized_minimize
from .transform import initial_guess, steepest_descent


class ConfigError(ValueError):
    """Invalid command line arguments or config file contents."""


def _parse_lambdas(text):
    toks = [t.strip() for t in str(text).split(",")]
    try:
        vals = tuple(float(t) for t in toks)
    except ValueError as exc:
        raise ConfigError(f"bad lambda list {text!r}") from exc
    if not vals or any(not math.isfinite(v) for v in vals):
        raise ConfigError(f"lambda values must be finite, got {text!r}")
    return vals


def _parse_ms(text):
    toks = [t.strip() for t in str(text).split(",")]
    try:
        vals = tuple(int(t) for t in toks)
    except ValueError as exc:
        raise ConfigError(f"bad m list {text!r}") from exc
    if not vals or any(v < 1 for v in vals):
        raise ConfigError(f"m values must be integers >= 1, got {text!r}")
    return vals


def _parse_int(text, key, minimum=1):
    try:
        v = int(str(text).strip())
    except ValueError as exc:
        raise ConfigError(f"bad {key} value {text!r}") from exc
    if v < minimum:
        raise ConfigError(f"{key} must be >= {minimum}")
    return v


def _parse_tol(text):
    try:
        v = float(str(text).strip())
    except ValueError as exc:
        raise ConfigError(f"bad tol value {text!r}") from exc
    if not (math.isfinite(v) and v > 0.0):
        raise ConfigError("tol must be a positive finite number")
    return v


def _parse_format(text):
    v = str(text).strip()
    if v not in ("csv", "csv+svg"):
        raise ConfigError(f"format must be 'csv' or 'csv+svg', got {text!r}")
    return v


_PARSE = {
    "lambda": _parse_lambdas,
    "m": _parse_ms,
    "p": lambda v: _parse_int(v, "p"),
    "q": lambda v: _parse_int(v, "q"),
    "max-iter": lambda v: _parse_int(v, "max-iter"),
    "tol": _parse_tol,
    "out": lambda v: str(v).strip(),
    "format": _parse_format,
    "jobs": lambda v: _parse_int(v, "jobs"),
}

_COMMON_DEFAULTS = {
    "p": 1,
    "q": 1,
    "out": "out",
    "format": "csv",
    "jobs": 1,
}

# Per-command defaults; steepest descent gets more iterations because it
# converges far more slowly than the linearized method.
_DEFAULTS = {
    "sd-convergence": {"lambda": (0.0,), "m": (1, 2, 3, 4),
                       "max-iter": 1000, "tol": 1e-12},
    "svd-spectrum": {"lambda": (0.0,), "m": tuple(range(1, 9)),
                     "max-iter": 200, "tol": 1e-10},
    "lin-convergence": {"lambda": (0.0,), "m": tuple(range(1, 8)),
                        "max-iter": 200, "tol": 1e-10},
    "spatial-decay": {"lambda": (0.0,), "m": tuple(range(1, 8)),
                      "max-iter": 200, "tol": 1e-10},
    "lambda-sweep": {"lambda": tuple(0.5 * i for i in range(9)),
                     "m": tuple(range(1, 8)), "max-iter": 200, "tol": 1e-10},
    "global-verify": {"lambda": (0.0, 3.5), "m": (2, 4),
                      "max-iter": 200, "tol": 1e-10},
}

_HELP = {
    "sd-convergence": "error vs iteration for the steepest descent baseline",
    "svd-spectrum": "normalized singular values of the dA normal system",
    "lin-convergence": "error vs iteration for the linearized minimizer",
    "spatial-decay": "converged error vs m plus per-column deviation vs distance",
    "lambda-sweep": "converged error over a (lambda, m) grid, plus symmetry check",
    "global-verify": "embed X on an explicit grid and verify exact locality",
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
        if key not in _PARSE:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _PARSE[key](value)
    return values


def resolve_settings(args):
    """Merge defaults, config file, and explicit flags (flags win)."""
    merged = dict(_COMMON_DEFAULTS)
    merged.update(_DEFAULTS[args.command])
    if args.config is not None:
        merged.update(read_config(args.config))
    cli = {
        "lambda": args.lambdas,
        "m": args.ms,
        "p": args.p,
        "q": args.q,
        "max-iter": args.max_iter,
        "tol": args.tol,
        "out": args.out,
        "format": args.format,
        "jobs": args.jobs,
    }
    for key, raw in cli.items():
        if raw is not None:
            merged[key] = _PARSE[key](raw)
    return Settings(
        command=args.command,
        lambdas=merged["lambda"],
        ms=merged["m"],
        p=merged["p"],
        q=merged["q"],
        max_iter=merged["max-iter"],
        tol=merged["tol"],
        out=merged["out"],
        fmt=merged["format"],
        jobs=merged["jobs"],
    )


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


def _finalize(outdir, stem, header, rows, failure, chart=None):
    """Write the CSV (and chart), plus a .FAILED marker when a unit failed."""
    write_csv(outdir / f"{stem}.csv", header, rows)
    if chart is not None:
        chart()
    if failure is not None:
        (outdir / f"{stem}.FAILED").write_text(f"{failure}\n")
        return 3
    return 0


def _require_single_lambda(settings):
    if len(settings.lambdas) != 1:
        raise ConfigError(
            f"{settings.command} writes per-m series for a single lambda; "
            f"got {len(settings.lambdas)} values"
        )
    return settings.lambdas[0]


def _problem(m, lam, p, q):
    if (p, q) == (1, 1):
        return extract_local_scalar(m, lam)
    return extract_local_supernode(m, p, q, lam)


def _options(settings):
    return MinimizeOptions(max_iter=settings.max_iter, rel_tol=settings.tol)


def _none_to_nan(v):
    return math.nan if v is None else v


def cmd_sd_convergence(settings, outdir):
    lam = _require_single_lambda(settings)
    rows, series, failure = [], [], None
    for m in settings.ms:
        try:
            problem = _problem(m, lam, settings.p, settings.q)
            _, trace = steepest_descent(problem, max_iter=settings.max_iter,
                                        tol=settings.tol)
        except NumericalFailure as exc:
            failure = f"m={m}: {exc}"
            break
        rows.extend((m, rec.iteration, rec.error) for rec in trace.iterations)
        series.append((f"m={m}",
                       [rec.iteration for rec in trace.iterations],
                       [rec.error for rec in trace.iterations]))

    chart = None
    if settings.fmt == "csv+svg":
        chart = lambda: plots.write_line_chart(
            outdir / "sd_convergence.svg", series,
            f"steepest descent, lambda={lam:g}", "iteration", "error norm")
    return _finalize(outdir, "sd_convergence",
                     ["m", "iteration", "error"], rows, failure, chart)


def cmd_svd_spectrum(settings, outdir):
    lam = _require_single_lambda(settings)
    rows, series, failure = [], [], None
    for m in settings.ms:
        try:
            problem = _problem(m, lam, settings.p, settings.q)
            report = spectrum_at(problem, initial_guess(problem))
        except NumericalFailure as exc:
            failure = f"m={m}: {exc}"
            break
        top = report.sigma[0] if report.sigma[0] > 0 else 1.0
        normalized = report.sigma / top
        rows.extend((m, k + 1, normalized[k]) for k in range(len(normalized)))
        series.append((f"m={m}", list(range(1, len(normalized) + 1)),
                       normalized.tolist()))

    chart = None
    if settings.fmt == "csv+svg":
        chart = lambda: plots.write_line_chart(
            outdir / "svd_spectrum.svg", series,
            f"normal system spectrum at the initial guess, lambda={lam:g}",
            "index", "sigma / sigma_1")
    return _finalize(outdir, "svd_spectrum",
                     ["m", "index", "sigma_normalized"], rows, failure, chart)


def cmd_lin_convergence(settings, outdir):
    lam = _require_single_lambda(settings)
    rows, series, failure = [], [], None
    for m in settings.ms:
        try:
            problem = _problem(m, lam, settings.p, settings.q)
            _, trace, _ = linearized_minimize(problem, _options(settings))
        except NumericalFailure as exc:
            failure = f"m={m}: {exc}"
            break
        rows.extend(
            (m, rec.iteration, rec.error, _none_to_nan(rec.alpha),
             _none_to_nan(rec.cond_eq7_estimate))
            for rec in trace.iterations
        )
        series.append((f"m={m}",
                       [rec.iteration for rec in trace.iterations],
                       [rec.error for rec in trace.iterations]))

    chart = None
    if settings.fmt == "csv+svg":
        chart = lambda: plots.write_line_chart(
            outdir / "lin_convergence.svg", series,
            f"linearized minimization, lambda={lam:g}", "iteration",
            "error norm")
    return _finalize(outdir, "lin_convergence",
                     ["m", "iteration", "error", "alpha", "cond_eq7_estimate"],
                     rows, failure, chart)


def cmd_spatial_decay(settings, outdir):
    lam = _require_single_lambda(settings)
    rows, failure = [], None
    error_series, pairs = [], {}
    for m in settings.ms:
        try:
            problem = _problem(m, lam, settings.p, settings.q)
            pair, trace, _ = linearized_minimize(problem, _options(settings))
        except NumericalFailure as exc:
            failure = f"m={m}: {exc}"
            break
        pairs[m] = (problem, pair)
        error_series.append((m, trace.final_error))
    rows.extend(("error_vs_m", float(m), err) for m, err in error_series)

    decay_y, decay_a = [], []
    if failure is None and pairs:
        m_big = max(pairs)
        problem, pair = pairs[m_big]
        records = spatial_decay(problem, pair)
        rows.extend(("column_norm_y", rec.distance, rec.y_deviation)
                    for rec in records)
        rows.extend(("column_norm_a", rec.distance, rec.a_deviation)
                    for rec in records)
        ordered = sorted(records, key=lambda rec: (rec.distance, rec.node))
        decay_y = [(f"|dY| columns, m={m_big}",
                    [rec.distance for rec in ordered],
                    [rec.y_deviation for rec in ordered])]
        decay_a = [(f"|dA| columns, m={m_big}",
                    [rec.distance for rec in ordered],
                    [rec.a_deviation for rec in ordered])]

    chart = None
    if settings.fmt == "csv+svg":
        series = [("error vs m", [m for m, _ in error_series],
                   [e for _, e in error_series])] + decay_y + decay_a
        chart = lambda: plots.write_line_chart(
            outdir / "spatial_decay.svg", series,
            f"spatial decay, lambda={lam:g}", "m or distance", "value")
    return _finalize(outdir, "spatial_decay",
                     ["kind", "distance_or_m", "value"], rows, failure, chart)


def _sweep_rows(records):
    return [
        (rec.lam, rec.m, rec.p, rec.q, rec.error, rec.iterations, rec.cond_y,
         rec.cond_eq7_estimate, rec.null_dim, rec.n_local, rec.n_pattern,
         rec.status)
        for rec in records
    ]


def cmd_lambda_sweep(settings, outdir):
    opts = _options(settings)
    records = run_sweep(settings.lambdas, settings.ms, settings.p, settings.q,
                        opts, jobs=settings.jobs)
    header = ["lambda", "m", "p", "q", "error", "iterations", "cond_y",
              "cond_eq7_estimate", "null_dim", "n_local", "n_pattern",
              "status"]
    rows = _sweep_rows(records)

    # lam and 8 - lam are exactly conjugate stencils, so converged errors
    # should match; mirrors not already swept are computed here.
    base = {(rec.lam, rec.m): rec for rec in records}
    mirrors_needed = sorted(
        {8.0 - lam for lam in settings.lambdas if (8.0 - lam) not in
         set(settings.lambdas)}
    )
    mirror_records = run_sweep(mirrors_needed, settings.ms, settings.p,
                               settings.q, opts, jobs=settings.jobs)
    mirror = {(rec.lam, rec.m): rec for rec in mirror_records}
    sym_rows = []
    for lam in settings.lambdas:
        for m in settings.ms:
            a = base.get((lam, m))
            b = base.get((8.0 - lam, m)) or mirror.get((8.0 - lam, m))
            if a is None or b is None or a.status.startswith("failed") \
                    or b.status.startswith("failed"):
                continue
            denom = max(abs(a.error), abs(b.error), 1e-300)
            sym_rows.append((lam, 8.0 - lam, m, a.error, b.error,
                             abs(a.error - b.error) / denom))
    write_csv(outdir / "lambda_sweep_symmetry.csv",
              ["lambda", "lambda_mirror", "m", "error", "error_mirror",
               "rel_diff"], sym_rows)

    failed = [rec for rec in records + mirror_records
              if rec.status.startswith("failed")]
    failure = None
    if failed:
        failure = "; ".join(
            f"lambda={rec.lam:g} m={rec.m}: {rec.status}" for rec in failed)

    chart = None
    if settings.fmt == "csv+svg":
        series = []
        for m in settings.ms:
            pts = [(rec.lam, rec.error) for rec in records
                   if rec.m == m and math.isfinite(rec.error)]
            if pts:
                series.append((f"m={m}", [p[0] for p in pts],
                               [p[1] for p in pts]))
        chart = lambda: plots.write_line_chart(
            outdir / "lambda_sweep.svg", series,
            f"converged error vs lambda (p={settings.p}, q={settings.q})",
            "lambda", "error norm")
    return _finalize(outdir, "lambda_sweep", header, rows, failure, chart)


def cmd_global_verify(settings, outdir):
    rows, failure, violations = [], None, []
    for lam in settings.lambdas:
        for m in settings.ms:
            try:
                problem = _problem(m, lam, settings.p, settings.q)
                pair, _, _ = linearized_minimize(problem, _options(settings))
                spec, center = default_verify_grid(problem)
                report = global_verify(spec, center, problem, pair)
            except NumericalFailure as exc:
                failure = f"lambda={lam:g} m={m}: {exc}"
                break
            rows.append((m, lam, report.local_error, report.global_error,
                         report.max_decoupled_offdiag))
            scale = float(np.linalg.norm(problem.a_ll))
            checks = [
                abs(report.global_error - report.local_error)
                <= 1e-12 * max(report.local_error, 1e-300),
                report.coupling_block_max <= 1e-12 * scale,
                report.external_block_max <= 1e-12 * scale,
                report.max_decoupled_offdiag <= report.local_error,
            ]
            if not all(checks):
                violations.append(f"lambda={lam:g} m={m}")
        if failure is not None:
            break

    if failure is None and violations:
        failure = "locality violated at " + ", ".join(violations)
    return _finalize(outdir, "global_verify",
                     ["m", "lambda", "local_error", "global_error",
                      "max_decoupled_offdiag"], rows, failure)


_HANDLERS = {
    "sd-convergence": cmd_sd_convergence,
    "svd-spectrum": cmd_svd_spectrum,
    "lin-convergence": cmd_lin_convergence,
    "spatial-decay": cmd_spatial_decay,
    "lambda-sweep": cmd_lambda_sweep,
    "global-verify": cmd_global_verify,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sparsecoarsen",
        description="local sparsity-preserving decoupling experiments",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in _HANDLERS:
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("--lambda", dest="lambdas", metavar="L[,L...]",
                       help="stencil diagonal shift value(s)")
        p.add_argument("--m", dest="ms", metavar="M[,M...]",
                       help="local region radius value(s)")
        p.add_argument("--p", help="supernode width (default 1)")
        p.add_argument("--q", help="supernode height (default 1)")
        p.add_argument("--max-iter", dest="max_iter",
                       help="iteration cap per minimization")
        p.add_argument("--tol", help="relative stagnation tolerance")
        p.add_argument("--out", help="output directory (default: out)")
        p.add_argument("--format", help="csv or csv+svg (default: csv)")
        p.add_argument("--jobs", help="max concurrent sweep points (default 1)")
        p.add_argument("--config", help="key=value file; flags override it")
    return parser


def main(argv=None):
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
        outdir.mkdir(parents=True, exist_ok=True)
        return _HANDLERS[settings.command](settings, outdir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
