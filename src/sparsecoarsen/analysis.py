"""Measurements on transformations: spectra, spatial decay, global checks, sweeps.

Everything here is read-only with respect to the minimization: it builds
normal systems, embeds transformations into explicit grids, or runs batches
of minimizations and tabulates the results for the experiment harness.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .blas import single_thread
from .errors import NumericalFailure
from .lattice import StencilSpec, build_helmholtz, extract_local_scalar, extract_local_supernode
from .linearized import (
    MinimizeOptions,
    TruncationPolicy,
    build_normal_system,
    linearized_minimize,
    split_spaces,
    summarize_spectrum,
)
from .transform import condition_of_y, interior_scaling, residual_and_error


@dataclass
class SpectrumReport:
    """Normal-system SVD summary at one state."""

    sigma: np.ndarray  # descending
    null_dim: int
    gap_ratio: float
    cond_retained: float
    cond_eq7_estimate: float

    @property
    def retained(self):
        return len(self.sigma) - self.null_dim


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


def spectrum_at(problem, pair, policy=TruncationPolicy()):
    """Full SVD report of the dA normal system at the given state."""
    system = build_normal_system(problem, pair, split_spaces(problem, pair))
    s = system.sigma
    null_dim, gap, cond, cond_eq7 = summarize_spectrum(s, policy)
    return SpectrumReport(
        sigma=s.copy(),
        null_dim=null_dim,
        gap_ratio=gap,
        cond_retained=cond,
        cond_eq7_estimate=cond_eq7,
    )


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


def global_verify(spec, center, problem, pair):
    """Embed X = Y^-1 at `center` of an explicit grid and verify locality.

    Checks that the transformation changes nothing outside the local block:
    X^T A X minus (A with its local block replaced by A~) is supported on the
    local block and its norm equals the locally computed error
    || X_L^T A_LL X_L - A~ ||_F.  Also reports the largest off-diagonal
    magnitude left in the decoupled row/column.
    """
    cx, cy = center
    w, h = spec.width, spec.height
    xs = problem.coords[:, 0] + cx
    ys = problem.coords[:, 1] + cy
    if xs.min() < 0 or ys.min() < 0 or xs.max() >= w or ys.max() >= h:
        raise ValueError("local region does not fit inside the grid at this center")
    gidx = ys * w + xs

    a = build_helmholtz(spec).toarray()
    y_full = pair.full_y()
    try:
        x_local = np.linalg.inv(y_full)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("Y is singular; cannot embed its inverse") from exc

    n = w * h
    x = np.eye(n)
    x[np.ix_(gidx, gidx)] = x_local
    b = x.T @ a @ x
    a_coarse = a.copy()
    a_coarse[np.ix_(gidx, gidx)] = pair.a_tilde

    diff = b - a_coarse
    local = x_local.T @ problem.a_ll @ x_local - pair.a_tilde
    c_glob = gidx[problem.decoupled]
    row = np.abs(b[c_glob]).copy()
    col = np.abs(b[:, c_glob]).copy()
    row[c_glob] = 0.0
    col[c_glob] = 0.0

    outside = b - a
    outside_local = outside.copy()
    outside_local[np.ix_(gidx, gidx)] = 0.0
    ext = np.setdiff1d(np.arange(n), gidx)
    return GlobalVerifyReport(
        local_error=float(np.linalg.norm(local)),
        global_error=float(np.linalg.norm(diff)),
        max_decoupled_offdiag=float(max(row.max(), col.max())),
        coupling_block_max=float(np.abs(outside[np.ix_(gidx, ext)]).max()),
        external_block_max=float(np.abs(outside[np.ix_(ext, ext)]).max()),
        objective_error=residual_and_error(problem, pair).norm,
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


def fit_decay_rate(ms, errors, stagnation_rel=0.1):
    """Least-squares decay rate of log(error) vs m, skipping stagnated points.

    A point is stagnated when the relative improvement from the previous kept
    point falls below stagnation_rel.  Returns (rate, r_squared, n_used);
    rate is the negated slope, positive for decaying error.
    """
    ms = np.asarray(ms, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = [0]
    for i in range(1, len(errors)):
        prev = errors[keep[-1]]
        if (prev - errors[i]) / prev >= stagnation_rel:
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


def problem_for(m, lam, p=1, q=1):
    """The local problem at decay length m and shift lam: scalar, or p x q supernodes."""
    if (p, q) == (1, 1):
        return extract_local_scalar(m, lam)
    return extract_local_supernode(m, p, q, lam)


def _sweep_point(args):
    # A point is a small dense problem: BLAS threads only spin on it, and
    # their count moves the last digits, so each point runs on one thread.
    with single_thread():
        lam, m, p, q, opts = args
        problem = problem_for(m, lam, p, q)
        point = dict(lam=lam, m=m, p=p, q=q, n_local=problem.n_local,
                     n_pattern=problem.target_pattern.n_entries)
        try:
            pair, trace, _ = linearized_minimize(problem, opts)
            final = trace.iterations[-1]
            return SweepRecord(
                **point,
                error=final.error,
                iterations=trace.n_steps,
                cond_y=condition_of_y(pair),
                cond_eq7_estimate=final.cond_eq7_estimate,
                null_dim=final.null_dim,
                status="ok" if trace.converged else "max_iter",
            )
        except NumericalFailure as exc:
            return SweepRecord(
                **point,
                error=math.nan,
                iterations=0,
                cond_y=math.nan,
                cond_eq7_estimate=math.nan,
                null_dim=-1,
                status=f"failed: {exc}",
            )


def run_sweep(lambdas, ms, p=1, q=1, opts=MinimizeOptions(), jobs=1):
    """Minimize over the (lambda, m) grid; rows sorted by (lambda, m).

    Points are independent, so jobs > 1 distributes them over at most one
    process per point.  Each point runs on one BLAS thread (blas.single_thread)
    and the caller's thread count is restored after it, so on a given machine
    the records are identical and identically ordered whatever jobs or the
    caller's BLAS thread count is; where no OpenBLAS thread control is found,
    that holds only at a fixed BLAS thread count.  Numerical failures become
    explicit failure records, never invented values.
    """
    points = [(lam, m, p, q, opts) for lam in sorted(lambdas) for m in sorted(ms)]
    # The pool starts all of its workers on the first submit.
    workers = min(jobs, len(points))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_point, points))
    return [_sweep_point(pt) for pt in points]
