"""Linearized minimization of the coarsening error norm.

Linearizing A_LL - (Y+dY)^T (A~+dA) (Y+dY) around the current pair gives the
residual

    L(dY, dA) = R - Y^T dA Y - K^T dY - dY^T K,      K = P_I A~ Y,

with R the current residual and P_I the interior-row selector.  Rotating into
the span Q and null space Q_null of K's rows splits L into three blocks; the
choice

    dY = 1/2 (K^+)^T (R - Y^T dA Y) (I + Q_null Q_null^T)

zeroes the two blocks that involve dY, leaving only the projected problem

    min over pattern dA of || Q_null^T (R - Y^T dA Y) Q_null ||_F

which is a linear least squares in the free values of dA.  Its normal
equations have closed-form entries in G = Y Q_null Q_null^T Y^T and are
solved by a truncated SVD: the system is singular by construction, because
interior diagonal gauge directions dA = D A~ + A~ D lie in its null space.
A full line search along (dY, dA) then guards the nonlinear terms.

Each outer step computes the residual R once and hands it to the assembly
and to dY.  The step's results are bit-for-bit those of the direct
formulas, which the tests keep as a reference: near a stop, a change in the
last bit can decide whether a minimization stops or runs on.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailure
from .transform import (
    ConvergenceTrace,
    IterationRecord,
    initial_guess,
    residual_and_error,
)

LINE_SEARCH_ABSCISSAE = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])
_LINE_SEARCH_VANDER = np.vander(LINE_SEARCH_ABSCISSAE, 7)


@dataclass
class SubspaceSplit:
    """Right singular subspaces of K = P_I A~ Y, plus what the pseudo-inverse needs."""

    q: np.ndarray  # (n_local, rank): span of K's rows
    q_null: np.ndarray  # (n_local, n_local - rank): orthonormal complement
    sigma: np.ndarray  # (rank,) retained singular values
    u: np.ndarray  # (n_interior, rank) left singular vectors

    @property
    def rank(self):
        return self.q.shape[1]


@dataclass
class NormalSystem:
    """Normal equations of the projected dA least-squares problem."""

    matrix: np.ndarray
    rhs: np.ndarray
    basis: tuple  # (rows, cols) index arrays of the free positions, rows <= cols
    n_interior: int
    expected_null: int | None  # n_interior when A~ had full rank, else None
    _eig: tuple | None = field(default=None, repr=False)

    def eig(self):
        """Eigenpairs by descending |w|: (vectors, singular values |w|, signs of w).

        This is the eigh that np.linalg.svd(hermitian=True) wraps, ordered as
        it orders it, with one copy of the vectors where it makes two.  The
        copy must be C-ordered: products with a Fortran-ordered v[:, order]
        take another BLAS path and round differently.
        """
        if self._eig is None:
            w, v = np.linalg.eigh(self.matrix)
            s = np.abs(w)
            order = np.argsort(s)[::-1]
            self._eig = (v.take(order, axis=1), s[order], np.copysign(1.0, w)[order])
        return self._eig

    @property
    def sigma(self):
        return self.eig()[1]


@dataclass(frozen=True)
class TruncationPolicy:
    """How solve_for_da decides which singular values are numerically null.

    kind "threshold" drops sigma < rel_tol * sigma_max (the default policy);
    kind "gap" splits at the largest consecutive sigma ratio among the
    smaller half of the spectrum.  Values below the noise floor of the
    normal-matrix assembly (n * eps * sigma_max) are one indistinguishable
    plateau: ratios inside it are meaningless, so only cuts whose upper side
    clears the floor are candidates.
    """

    kind: str = "threshold"
    rel_tol: float = 1e-8

    def null_count(self, s):
        n = len(s)
        if n == 0:
            return 0
        if s[0] <= 0.0:
            return n
        if self.kind == "threshold":
            return int(np.sum(s < self.rel_tol * s[0]))
        if self.kind == "gap":
            floor = max(n, 16) * np.finfo(float).eps * s[0]
            best, cut = 0.0, n
            for i in range(n // 2, n - 1):
                if s[i] < floor:
                    break  # everything from here down is noise
                ratio = s[i] / s[i + 1] if s[i + 1] > 0.0 else np.inf
                if ratio > best:
                    best, cut = ratio, i + 1
            return n - cut if best >= 10.0 else 0
        raise ValueError(f"unknown truncation policy kind: {self.kind!r}")


def summarize_spectrum(s, policy):
    """(null_dim, gap_ratio, cond_retained, cond_eq7_estimate) of a descending spectrum.

    The condition numbers are NaN when the policy truncates everything.
    """
    null_dim = policy.null_count(s)
    retained = len(s) - null_dim
    if retained == 0:
        return null_dim, (1.0 if null_dim else 0.0), math.nan, math.nan
    cond = float(s[0] / s[retained - 1])
    gap = float(s[retained] / s[retained - 1]) if null_dim else 0.0
    return null_dim, gap, cond, math.sqrt(cond)


@dataclass
class SolveDiagnostics:
    null_dim: int
    gap_ratio: float
    cond_retained: float
    cond_eq7_estimate: float
    rhs_null_component: float
    rhs_norm: float


def split_spaces(problem, pair, rank_tol=1e-12):
    """SVD split of K = P_I A~ Y into span (q) and null space (q_null)."""
    k = (pair.a_tilde @ pair.full_y())[: problem.n_interior]
    u, s, vt = np.linalg.svd(k, full_matrices=True)
    rank = 0
    if s.size and s[0] > 0.0:
        rank = int(np.sum(s > rank_tol * s[0]))
    return SubspaceSplit(
        q=vt[:rank].T.copy(),
        q_null=vt[rank:].T.copy(),
        sigma=s[:rank].copy(),
        u=u[:, :rank].copy(),
    )


def build_normal_system(problem, pair, split, residual=None):
    """Assemble the dA normal equations from G and M without forming the operator.

    With G = Y Qn Qn^T Y^T and M = Y Qn (Qn^T R Qn) Qn^T Y^T, the entries are

        N_kl  = Tr(B_k G B_l G),  rhs_k = Tr(B_k M)

    over the symmetrized pattern basis B_k, i.e. O(n_pattern^2) work given G.
    `residual` is R at `pair` when the caller already has it.

    G is symmetrized first, so G_ji = G_ij^T exactly and N comes out exactly
    symmetric: each entry and its mirror are the same two products, summed.
    """
    if problem.target_pattern.n_entries == 0:
        raise ValueError("target pattern has no free positions")
    y = pair.full_y()
    z = y @ split.q_null
    g = z @ z.T
    g = 0.5 * (g + g.T)
    r = residual_and_error(problem, pair).residual if residual is None else residual
    t = split.q_null.T @ r @ split.q_null
    m = z @ t @ z.T
    m = 0.5 * (m + m.T)

    i_idx, j_idx = problem.target_pattern.index_arrays
    delta = np.where(i_idx == j_idx, 2.0, 1.0)  # diagonal positions count once

    # Columns first, then whole rows: G is symmetric, so the column
    # gathers are the rows G_i, G_j transposed, and every P x P gather
    # copies contiguous rows.
    g_ti = g.take(i_idx, axis=1)
    g_tj = g.take(j_idx, axis=1)
    matrix = g_ti.take(i_idx, axis=0)  # G_ii
    matrix *= g_tj.take(j_idx, axis=0)  # G_jj
    gij = g_tj.take(i_idx, axis=0)
    matrix += gij * gij.T
    matrix *= np.outer(2.0 / delta, 1.0 / delta)  # 2 / (delta_k delta_l), exactly
    rhs = (2.0 / delta) * m[i_idx, j_idx]

    return NormalSystem(
        matrix=matrix,
        rhs=rhs,
        basis=(i_idx, j_idx),
        n_interior=problem.n_interior,
        expected_null=problem.n_interior if split.rank == problem.n_interior else None,
    )


def _embed_da(values, basis, n):
    rows, cols = basis
    da = np.zeros((n, n))
    da[rows, cols] = values
    da[cols, rows] = values
    return da


def solve_for_da(system, policy=TruncationPolicy(), n_local=None):
    """Truncated-SVD solve of the normal equations; returns (dA, diagnostics).

    Truncated directions are always dropped from the solution.  A warning is
    emitted when the detected null dimension disagrees with the gauge count
    n_interior (only meaningful when A~ had full rank).
    """
    u, s, sign = system.eig()
    n = len(s)
    null_dim, gap_ratio, cond_retained, cond_eq7 = summarize_spectrum(s, policy)
    retained = n - null_dim

    if system.expected_null is not None and null_dim != system.expected_null:
        warnings.warn(
            f"detected null dimension {null_dim} != interior count "
            f"{system.expected_null} for a full-rank A~",
            RuntimeWarning,
            stacklevel=2,
        )

    rhs_norm = float(np.linalg.norm(system.rhs))
    if retained == 0:
        coeffs = np.zeros(n)
        rhs_null = rhs_norm
    else:
        proj = u[:, :retained].T @ system.rhs
        coeffs = u[:, :retained] @ (proj / s[:retained] * sign[:retained])
        rhs_null = float(np.linalg.norm(u[:, retained:].T @ system.rhs))

    if n_local is None:
        n_local = 1 + int(system.basis[1].max())
    da = _embed_da(coeffs, system.basis, n_local)
    diagnostics = SolveDiagnostics(
        null_dim=null_dim,
        gap_ratio=gap_ratio,
        cond_retained=cond_retained,
        cond_eq7_estimate=cond_eq7,
        rhs_null_component=rhs_null,
        rhs_norm=rhs_norm,
    )
    return da, diagnostics


def compute_dy(problem, pair, da, split, residual=None):
    """dY = 1/2 (K^+)^T (R - Y^T dA Y)(I + Qn Qn^T); zero when K has rank 0.

    `residual` is R at `pair` when the caller already has it.
    """
    n_i, n_l = problem.n_interior, problem.n_local
    if split.rank == 0:
        return np.zeros((n_i, n_l))
    y = pair.full_y()
    r = residual_and_error(problem, pair).residual if residual is None else residual
    w = r - y.T @ da @ y
    w = 0.5 * (w + w.T)
    pinv_t = (split.u / split.sigma[None, :]) @ split.q.T
    w2 = w + (w @ split.q_null) @ split.q_null.T
    return 0.5 * pinv_t @ w2


def _linearized_residual_matrix(problem, pair, dy, da):
    """L = R - Y^T dA Y - K^T dY - dY^T K at the given step."""
    y = pair.full_y()
    r = residual_and_error(problem, pair).residual
    k = (pair.a_tilde @ y)[: problem.n_interior]
    return r - y.T @ da @ y - k.T @ dy - dy.T @ k


def linearized_residual(problem, pair, dy, da):
    """|| R - Y^T dA Y - K^T dY - dY^T K ||_F at the given step."""
    return float(np.linalg.norm(_linearized_residual_matrix(problem, pair, dy, da)))


def rotated_block_norms(problem, pair, split, dy, da):
    """Squared Frobenius norms of the three rotated blocks of the linearized residual.

    Returns (span/span, 2 * span/null, null/null); their sum equals the
    squared full linearized residual.
    """
    l = _linearized_residual_matrix(problem, pair, dy, da)
    qq = split.q.T @ l @ split.q
    qn = split.q.T @ l @ split.q_null
    nn = split.q_null.T @ l @ split.q_null
    return (
        float(np.sum(qq**2)),
        2.0 * float(np.sum(qn**2)),
        float(np.sum(nn**2)),
    )


def line_objective(problem, pair, dy, da):
    """Squared error norm along the step, g(alpha), a degree-6 polynomial.

    Returns g as a function of alpha; the full Y is built once for all calls.
    """
    n_i = problem.n_interior
    y0 = pair.full_y()

    def g(alpha):
        y = y0.copy()
        y[:n_i] += alpha * dy
        at = pair.a_tilde + alpha * da
        s = y.T @ (at @ y)
        s = 0.5 * (s + s.T)
        return float(np.sum((problem.a_ll - s) ** 2))

    return g


def fit_line_polynomial(g):
    """Exact degree-6 fit of g via 7 evaluations; returns (coeffs, scale).

    g is a line_objective.  coeffs are highest-degree-first for the scaled
    variable alpha/scale.  The abscissae shrink when evaluations overflow
    (trust scaling).
    """
    scale = 1.0
    for _ in range(60):
        vals = np.array([g(scale * t) for t in LINE_SEARCH_ABSCISSAE])
        if np.all(np.isfinite(vals)):
            return np.linalg.solve(_LINE_SEARCH_VANDER, vals), scale
        scale *= 0.25
    raise NumericalFailure("line search could not evaluate the objective finitely")


def line_search(problem, pair, dy, da, alpha_max=4.0):
    """Exact line search on the degree-6 polynomial g; returns (alpha, error).

    Candidates are the real critical points in (0, alpha_max]; the best one
    that improves on g(0) wins, otherwise alpha = 0.  The returned error is
    the (non-squared) norm at the chosen alpha, never above the current one.
    """
    g_of = line_objective(problem, pair, dy, da)
    coeffs, scale = fit_line_polynomial(g_of)
    g0 = g_of(0.0)

    deriv = np.polyder(coeffs)
    if np.any(deriv != 0.0):
        roots = np.roots(deriv)
    else:
        roots = np.array([])
    best_alpha, best_g = 0.0, g0
    for root in roots:
        if abs(root.imag) > 1e-8 * max(1.0, abs(root.real)):
            continue
        alpha = float(root.real) * scale
        if not (0.0 < alpha <= alpha_max):
            continue
        g = g_of(alpha)
        if np.isfinite(g) and g < best_g:
            best_alpha, best_g = alpha, g
    return best_alpha, float(np.sqrt(best_g))


@dataclass(frozen=True)
class MinimizeOptions:
    max_iter: int = 200
    rel_tol: float = 1e-10  # relative error change considered stagnant
    patience: int = 3  # consecutive stagnant iterations before stopping
    abs_tol: float = 1e-13  # error below which we stop outright
    rank_tol: float = 1e-12
    policy: TruncationPolicy = TruncationPolicy()
    alpha_max: float = 4.0


def linearized_minimize(problem, opts=MinimizeOptions()):
    """Outer loop: split, solve for dA, form dY, line-search, update.

    Returns (pair, trace, diagnostics) with one diagnostics entry per visited
    state, including the converged one.  Raises NumericalFailure (with the
    partial trace attached) if the error turns non-finite.
    """
    pair = initial_guess(problem)
    trace = ConvergenceTrace()
    diags = []
    alpha_prev = 0.0
    err_prev = None
    stagnant = 0

    for k in range(opts.max_iter + 1):
        report = residual_and_error(problem, pair)
        err = report.norm
        if not np.isfinite(err):
            raise NumericalFailure("linearized minimize produced a non-finite error", trace)

        split = split_spaces(problem, pair, rank_tol=opts.rank_tol)
        system = build_normal_system(problem, pair, split, report.residual)
        da, diag = solve_for_da(system, policy=opts.policy, n_local=problem.n_local)
        diags.append(diag)
        trace.iterations.append(
            IterationRecord(
                iteration=k,
                error=err,
                alpha=alpha_prev,
                null_dim=diag.null_dim,
                gap_ratio=diag.gap_ratio,
                cond_retained=diag.cond_retained,
                cond_eq7_estimate=diag.cond_eq7_estimate,
            )
        )

        if err < opts.abs_tol:
            trace.converged = True
            break
        if err_prev is not None:
            stagnant = stagnant + 1 if abs(err_prev - err) < opts.rel_tol * err_prev else 0
            if stagnant >= opts.patience:
                trace.converged = True
                break
        err_prev = err
        if k == opts.max_iter:
            break

        dy = compute_dy(problem, pair, da, split, report.residual)
        alpha_prev, _ = line_search(problem, pair, dy, da, alpha_max=opts.alpha_max)
        pair.y_rows += alpha_prev * dy
        pair.a_tilde += alpha_prev * da

    return pair, trace, diags
