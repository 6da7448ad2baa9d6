"""Measurements on transformations: spectra, spatial decay, global checks, sweeps.

Everything here is read-only with respect to the minimization: it builds
normal systems, embeds transformations into explicit grids, or runs batches
of minimizations and tabulates the results for the experiment harness.
A spectrum is read with the minimization's null cut: spectrum_at returns
the SolveDiagnostics of that cut next to its singular values, over every
free value, pinned or not.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .blas import single_thread
from .errors import NumericalFailure
# extract_local_scalar is unused here, but perfbench/tracing.py wraps this name.
from .lattice import (StencilSpec, extract_local_scalar,
                      extract_local_supernode, reflection_blocks, stencil)
from .linearized import (
    MinimizeOptions,
    NormalSystem,
    build_normal_system,
    cut_spectrum,
    linearized_minimize,
    split_spaces,
)
from .transform import condition_of_y, interior_scaling, residual_and_error

# fit_decay_rate skips a point whose error improves on the last kept one by
# less than this fraction: the decay has stagnated there.
STAGNATION_REL = 0.1


@dataclass
class DecayRecord:
    node: int
    distance: float
    y_deviation: float
    a_deviation: float


@dataclass
class GlobalVerifyReport:
    local_error: float  # || X_L^T A_LL X_L - A~ ||_F computed on the local block
    global_error: float  # || X^T A X - A~_global ||_F on the embedding grid
    max_decoupled_offdiag: float
    coupling_block_max: float  # max |(X^T A X - A)| over local-to-external entries
    external_block_max: float  # same over external-to-external entries
    objective_error: float  # || A_LL - Y^T A~ Y ||_F for reference

    def locality_holds(self, problem):
        """Whether the embedding is exactly local, to the 1e-12 bounds.

        The global error equals the local one to 1e-12 relative, the
        coupling and external blocks are at most 1e-12 ||A_LL||_F, and no
        off-diagonal entry left in the decoupled row exceeds the local error.
        """
        scale = float(np.linalg.norm(problem.a_ll))
        return (abs(self.global_error - self.local_error)
                <= 1e-12 * max(self.local_error, 1e-300)
                and self.coupling_block_max <= 1e-12 * scale
                and self.external_block_max <= 1e-12 * scale
                and self.max_decoupled_offdiag <= self.local_error)


@dataclass
class SweepRecord:
    lam: float
    m: int
    p: int
    q: int
    error: float
    iterations: int
    cond_y: float
    cond_eq7_estimate: float
    null_dim: int
    n_local: int
    n_pattern: int
    status: str  # "ok", "max_iter", or "failed: <reason>"
    stop_reason: str  # the trace's stop_reason (linearized.STOP_REASONS)


@single_thread()
def spectrum_at(problem, pair):
    """(sigma, diagnostics) of the dA normal system at the given state.

    sigma is the descending spectrum of every reflection block merged and
    diagnostics what the null cut makes of it (linearized.cut_spectrum, as
    a step reads it).  The state is assembled, with no pins, into a
    NormalSystem of its own over lattice.reflection_blocks and solved
    there, so the gauge's null values stay in sigma.  N is block diagonal
    there only where the reflections map the state onto itself
    (LocalProblem.reflection_invariant); any other state is solved under
    the identity alone.  The split reads node coordinates where
    problem.node_blocks is None.  Where the step at this state pins nothing
    (linearized.gauge_pins), diagnostics is the record it puts in its
    trace; where it pins, the null_dim is the same wherever the cut drops
    the gauge alone, but the other fields read the unpinned spectrum.  A
    library solve's LinAlgError is raised as a NumericalFailure, as a
    minimization raises it, and so is a non-finite spectrum.
    """
    try:
        report = residual_and_error(problem, pair)
        split = split_spaces(problem, report)
        n = problem.target_pattern.n_entries
        invariant = problem.reflection_invariant((report.y, pair.a_tilde))
        system = NormalSystem(n, problem.n_local, reflection_blocks(problem) if invariant else None)
        build_normal_system(problem, report, split, system)
        sigma, diagnostics, _, _ = cut_spectrum(system)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(str(exc)) from exc
    return sigma, diagnostics


def spatial_decay(problem, pair):
    """Per-node deviation of (Y, A~) from (I, A_LL) versus distance.

    The gauge is fixed first by row-normalizing Y.  Deviations are column
    2-norms; distance is the Euclidean distance of the node from the
    decoupled one.
    """
    norms = np.linalg.norm(pair.y_rows, axis=1)
    fixed = interior_scaling(pair, norms)
    y = fixed.full_y()
    dy = y - np.eye(problem.n_local)
    da = fixed.a_tilde - problem.a_ll
    dist = np.linalg.norm(problem.coords, axis=1)
    return [
        DecayRecord(
            node=j,
            distance=float(dist[j]),
            y_deviation=float(np.linalg.norm(dy[:, j])),
            a_deviation=float(np.linalg.norm(da[:, j])),
        )
        for j in range(problem.n_local)
    ]


@single_thread()
def global_verify(spec, center, problem, pair):
    """Embed X = Y^-1 at `center` of an explicit grid and verify locality.

    Checks that the transformation changes nothing outside the local block:
    X^T A X minus (A with its local block replaced by A~) is supported on the
    local block and its norm equals the locally computed error
    || X_L^T A_LL X_L - A~ ||_F.  Also reports the largest off-diagonal
    magnitude left in the decoupled row/column.  Everything is formed on
    the sub-grid of the region's nodes and their grid neighbours, the ring:
    X is the identity beyond the region, and A's rows beyond the ring do not
    reach it, so there X^T A X - A is exactly zero and every maximum reads
    the sub-grid alone.  The local and objective errors are formed first;
    then B = X^T A X, left to right, as (X^T A) X, from the stencil of the
    sub-grid's nodes, region first, with A dropped once X^T A is formed and
    built again for B - A, which is formed in B: about three sub-grid
    arrays at a time.
    """
    cx, cy = center
    w, h = spec.width, spec.height
    xs = problem.coords[:, 0] + cx
    ys = problem.coords[:, 1] + cy
    if xs.min() < 0 or ys.min() < 0 or xs.max() >= w or ys.max() >= h:
        raise ValueError("local region does not fit inside the grid at this center")
    region = list(zip(xs.tolist(), ys.tolist()))
    ring = sorted({(x + dx, y + dy) for x, y in region
                   for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
                   if 0 <= x + dx < w and 0 <= y + dy < h} - set(region),
                  key=lambda c: (c[1], c[0]))

    try:
        x_local = np.linalg.inv(pair.full_y())
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("Y is singular; cannot embed its inverse") from exc
    local = x_local.T @ problem.a_ll @ x_local - pair.a_tilde
    local_error = float(np.linalg.norm(local))
    del local
    objective_error = residual_and_error(problem, pair).norm

    n_l = problem.n_local
    a = stencil(region + ring, spec.lam)
    x = np.eye(len(a))
    x[:n_l, :n_l] = x_local
    del x_local
    xt_a = x.T @ a
    del a
    b = xt_a @ x
    del xt_a, x
    c = problem.decoupled
    row = np.abs(b[c])
    col = np.abs(b[:, c])
    row[c] = 0.0
    col[c] = 0.0
    b_ll = b[:n_l, :n_l].copy()

    # B - A, formed in B's memory, holds what X changed: outside the local
    # block it must vanish; the local block is then compared with A~.
    diff = b
    diff -= stencil(region + ring, spec.lam)
    coupling_max = float(np.abs(diff[:n_l, n_l:]).max(initial=0.0))
    external_max = float(np.abs(diff[n_l:, n_l:]).max(initial=0.0))
    diff[:n_l, :n_l] = b_ll - pair.a_tilde
    return GlobalVerifyReport(
        local_error=local_error,
        global_error=float(np.linalg.norm(diff)),
        max_decoupled_offdiag=float(max(row.max(), col.max())),
        coupling_block_max=coupling_max,
        external_block_max=external_max,
        objective_error=objective_error,
    )


def default_verify_grid(problem):
    """Smallest centered grid used for global checks: margin 2 around the region.

    For scalar problems this is the (2m+5) x (2m+5) grid with the decoupled
    node at the center.
    """
    xs, ys = problem.coords[:, 0], problem.coords[:, 1]
    width = int(xs.max() - xs.min()) + 5
    height = int(ys.max() - ys.min()) + 5
    center = (int(2 - xs.min()), int(2 - ys.min()))
    return StencilSpec(lam=problem.lam, width=width, height=height), center


def fit_decay_rate(ms, errors):
    """Least-squares decay rate of log(error) vs m, skipping stagnated points.

    A point is stagnated when the relative improvement from the previous kept
    point falls below STAGNATION_REL.  Returns (rate, r_squared, n_used);
    rate is the negated slope, positive for decaying error.
    """
    ms = np.asarray(ms, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = [0]
    for i in range(1, len(errors)):
        prev = errors[keep[-1]]
        if (prev - errors[i]) / prev >= STAGNATION_REL:
            keep.append(i)
    if len(keep) < 2:
        return math.nan, math.nan, len(keep)
    mk, ek = ms[keep], np.log(errors[keep])
    design = np.vstack([mk, np.ones_like(mk)]).T
    coef, *_ = np.linalg.lstsq(design, ek, rcond=None)
    pred = design @ coef
    ss_res = float(np.sum((ek - pred) ** 2))
    ss_tot = float(np.sum((ek - ek.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(-coef[0]), r2, len(keep)


def _sweep_point(args):
    """A point's SweepRecord, and every warning the caller's filters let through."""
    lam, m, p, q, opts = args
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", append=True)
        problem = extract_local_supernode(m, p, q, lam)
        point = dict(lam=lam, m=m, p=p, q=q, n_local=problem.n_local,
                     n_pattern=problem.target_pattern.n_entries)
        try:
            pair, trace, _ = linearized_minimize(problem, opts)
            final = trace.iterations[-1]
            record = SweepRecord(
                **point,
                error=final.error,
                iterations=trace.n_steps,
                cond_y=condition_of_y(pair),
                cond_eq7_estimate=final.solve.cond_eq7_estimate,
                null_dim=final.solve.null_dim,
                status="ok" if trace.converged else "max_iter",
                stop_reason=trace.stop_reason,
            )
        except NumericalFailure as exc:
            record = SweepRecord(
                **point,
                error=math.nan,
                iterations=0,
                cond_y=math.nan,
                cond_eq7_estimate=math.nan,
                null_dim=-1,
                status=f"failed: {exc}",
                stop_reason="failed",
            )
    return record, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def run_sweep(lambdas, ms, p=1, q=1, opts=MinimizeOptions(), jobs=1):
    """Minimize over the (lambda, m) grid; rows sorted by (lambda, m).

    Points are independent, so jobs > 1 distributes them over at most one
    process per point.  A point's solve and condition number each run on one
    BLAS thread and give the caller's count back (blas), in the caller's
    process and in pool workers alike, so on a given machine the records are
    identical and identically ordered whatever jobs or the caller's BLAS
    thread count is; where no OpenBLAS thread control is found, that holds
    only at a fixed BLAS thread count.  Numerical failures become explicit
    failure records, never invented values.  The points' warnings are then
    emitted in grid order, under the caller's filters, whatever jobs is.
    """
    points = [(lam, m, p, q, opts) for lam in sorted(lambdas) for m in sorted(ms)]
    # The pool starts all of its workers on the first submit.
    workers = min(jobs, len(points))
    if workers > 1:
        # Imported here: a serial run never loads the multiprocessing stack.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, points))
    else:
        results = [_sweep_point(pt) for pt in points]
    # Not between points: a point's recorder changes the filters, and that
    # empties the registry that keeps a message from repeating.
    registry = {}
    for _, caught in results:
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno, registry=registry)
    return [record for record, _ in results]
