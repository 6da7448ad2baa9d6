"""Timed passes of the benchmark workloads, and the checks on their outputs.

A pass runs a workload's whole grid once, as a closed loop: each point starts
after the previous one has finished.  Sweeps go through ``cli.main``; the
region workload calls ``linearized_minimize`` and ``global_verify`` itself.
Functions are looked up on the package's modules at call time, so a tracer
that replaces a module attribute sees every call.
"""

import csv
import math
import resource
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from sparsecoarsen import analysis, cli, lattice, linearized
from sparsecoarsen.errors import NumericalFailure

from grids import SWEEP_LAMBDAS

# The options lambda-sweep and global-verify use by default.
OPTIONS = linearized.MinimizeOptions(max_iter=200, rel_tol=1e-10)
SYMMETRY_REL_TOL = 1e-8
SWEEP_HEADER = ["lambda", "m", "p", "q", "error", "iterations", "cond_y",
                "cond_eq7_estimate", "null_dim", "n_local", "n_pattern", "status"]
VERIFY_HEADER = ["m", "lambda", "local_error", "global_error", "max_decoupled_offdiag"]


@dataclass
class SolveCall:
    lam: float
    seconds: float
    steps: int
    status: str  # "ok", "max_iter" or "failed"
    error: float
    null_mismatch: bool  # solve_for_da warned that the null dimension is wrong


class SolveProbe:
    """Stands in for linearized_minimize: times each call and catches its warnings.

    The null-dimension RuntimeWarning of solve_for_da is caught here, around
    the public call, so it is counted per point without changing the package.
    """

    def __init__(self, minimize):
        self.minimize = minimize
        self.calls = []

    def __call__(self, problem, *args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                result = self.minimize(problem, *args, **kwargs)
            except NumericalFailure:
                self._record(problem, start, 0, "failed", math.nan, caught)
                raise
        trace = result[1]
        self._record(problem, start, trace.n_steps,
                     "ok" if trace.converged else "max_iter", trace.final_error, caught)
        return result

    def _record(self, problem, start, steps, status, error, caught):
        seconds = time.perf_counter() - start
        mismatch = any(issubclass(w.category, RuntimeWarning)
                       and "null dimension" in str(w.message) for w in caught)
        self.calls.append(SolveCall(problem.lam, seconds, steps, status, error, mismatch))


@dataclass
class PassResult:
    wall: float
    cpu: float  # user + sys of this process and its waited-for children
    points: list  # (lambda, m) of each call, in call order
    calls: list
    failing: set = field(default_factory=set)  # (lambda, m) failing an output check
    problems: list = field(default_factory=list)  # malformed or inconsistent output


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(workload, outdir, order=None):
    """Run the workload's grid once into outdir and check what it wrote."""
    if workload.kind == "sweep":
        return _sweep_pass(workload, outdir)
    return _region_pass(workload, outdir, order)


def _sweep_pass(workload, outdir):
    argv = workload.cli_args() + ["--out", str(outdir)]
    probe = SolveProbe(analysis.linearized_minimize)
    analysis.linearized_minimize = probe
    try:
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        code = cli.main(argv)
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
    finally:
        analysis.linearized_minimize = probe.minimize
    result = PassResult(wall, cpu, workload.points(), probe.calls)
    if code != 0:
        result.problems.append(f"lambda-sweep exited {code}")
    _check_sweep(workload, outdir, result)
    return result


def _read_csv(path, header, result):
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        result.problems.append(f"cannot read {path.name}: {exc}")
        return []
    if not rows or rows[0] != header:
        result.problems.append(f"{path.name}: unexpected header")
        return []
    return rows[1:]


def _check_sweep(workload, outdir, result):
    points = workload.points()
    if len(result.calls) != len(points) or any(
            call.lam != lam for call, (lam, _) in zip(result.calls, points)):
        result.problems.append(f"expected {len(points)} solves in grid order, "
                               f"saw {len(result.calls)}")
        return
    by_point = dict(zip(points, result.calls))

    rows = _read_csv(outdir / "lambda_sweep.csv", SWEEP_HEADER, result)
    base = points[: len(SWEEP_LAMBDAS) * len(workload.ms)]
    if [(float(r[0]), int(r[1])) for r in rows] != base:
        result.problems.append("lambda_sweep.csv rows do not match the grid")
        return
    for row in rows:
        call = by_point[(float(row[0]), int(row[1]))]
        status = "failed" if row[11].startswith("failed") else row[11]
        if int(row[5]) != call.steps or status != call.status:
            result.problems.append(f"lambda_sweep.csv row {row[:2]} disagrees with the solve")

    # lambda and 8 - lambda are conjugate stencils: converged errors must agree.
    sym = _read_csv(outdir / "lambda_sweep_symmetry.csv",
                    ["lambda", "lambda_mirror", "m", "error", "error_mirror", "rel_diff"],
                    result)
    seen = set()
    for row in sym:
        lam, mirror, m = float(row[0]), float(row[1]), int(row[2])
        seen.add((lam, m))
        if not float(row[5]) <= SYMMETRY_REL_TOL:
            result.failing.update({(lam, m), (mirror, m)})
    for lam, m in base:
        pair = (by_point[(lam, m)], by_point[(8.0 - lam, m)])
        if (lam, m) not in seen and all(c.status != "failed" for c in pair):
            result.problems.append(f"symmetry row missing for lambda={lam:g} m={m}")


def _locality_holds(problem, report):
    """The bounds cmd_global_verify applies to one embedded transformation."""
    scale = float(np.linalg.norm(problem.a_ll))
    return (abs(report.global_error - report.local_error)
            <= 1e-12 * max(report.local_error, 1e-300)
            and report.coupling_block_max <= 1e-12 * scale
            and report.external_block_max <= 1e-12 * scale
            and report.max_decoupled_offdiag <= report.local_error)


def _region_pass(workload, outdir, order):
    points = workload.points()
    if order is not None:
        points = [points[i] for i in order]
    probe = SolveProbe(linearized.linearized_minimize)
    rows, failing = [], set()
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    for lam, m in points:
        problem = lattice.extract_local_scalar(m, lam)
        try:
            pair, _, _ = probe(problem, OPTIONS)
        except NumericalFailure:
            continue
        spec, center = analysis.default_verify_grid(problem)
        try:
            report = analysis.global_verify(spec, center, problem, pair)
        except NumericalFailure:  # Y singular: nothing to embed
            failing.add((lam, m))
            continue
        rows.append((m, lam, report.local_error, report.global_error,
                     report.max_decoupled_offdiag))
        if not _locality_holds(problem, report):
            failing.add((lam, m))
    cli.write_csv(outdir / "global_verify.csv", VERIFY_HEADER, rows)
    wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0

    result = PassResult(wall, cpu, points, probe.calls, failing)
    written = _read_csv(outdir / "global_verify.csv", VERIFY_HEADER, result)
    # Floats are written at 17 significant digits, so they read back exactly.
    if [(int(r[0]), *map(float, r[1:])) for r in written] != rows:
        result.problems.append("global_verify.csv rows do not match the verified points")
    return result


def warm_up(workload, outdir):
    """One small run of the workload's code path, so lazy set-up is done before timing.

    After this m = 2 warm-up, the first m = 8 solve of a process is no slower
    than later ones, so the region warm-up stays small.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # null-dimension warnings
        if workload.kind == "sweep":
            argv = ["lambda-sweep", "--lambda", "0", "--m", "1,2", "--p", str(workload.p),
                    "--q", str(workload.q), "--jobs", "1", "--out", str(outdir)]
            if cli.main(argv) != 0:
                raise RuntimeError("warm-up sweep failed")
            return
        problem = lattice.extract_local_scalar(2, workload.region_lambdas[0])
        pair, _, _ = linearized.linearized_minimize(problem, OPTIONS)
    spec, center = analysis.default_verify_grid(problem)
    analysis.global_verify(spec, center, problem, pair)
