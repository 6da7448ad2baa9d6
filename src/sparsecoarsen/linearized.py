"""The minimization loop, and the linearized and steepest-descent steps it takes.

Both minimizers run one loop (_descend): from the initial guess, each state
is evaluated once (residual_and_error) and a step turns that into a
direction (dY, dA); the state is recorded, the stop rules are applied, and
an exact line search along the direction gives the next state.
steepest_descent steps along the negative gradient; linearized_minimize
steps as follows.

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
solved through their symmetric eigendecomposition (eigh), dropping the
eigenvalues whose |w| is below the fraction NULL_REL_TOL of the largest:
the system is singular by construction, because interior diagonal gauge
directions dA = D A~ + A~ D lie in its null space.  The line search then
guards the nonlinear terms.

A NormalSystem keeps its eigenpairs (eig) and what the null cut makes of
them (diagnostics, one SolveDiagnostics).  That one object is what
solve_for_da returns, what the trace records as a state's `solve`, and what
analysis.spectrum_at reports.  Every system is assembled into an
EigenWorkspace, where LAPACK's dsyevd solves it in place; a minimization
keeps one for all its steps, and dsyevd's work array is the step's one
n_pattern^2-sized scratch.

The solver's rules are fixed module constants, not options: NULL_REL_TOL
(the null cut), RANK_TOL (the rank of K), ABS_TOL and PATIENCE (the stop
rules) and ALPHA_MAX (the line search's longest step).  Only the iteration
cap and the stagnation tolerance are MinimizeOptions; steepest descent's
defaults are STEEPEST_DESCENT_OPTIONS.

A minimization of either kind stops at the first of these, recorded as the
trace's stop_reason:

- abs_tol: the error is below ABS_TOL;
- stagnated: PATIENCE consecutive steps each changed the error by less than
  rel_tol relative.  The default 1e-8 sits above the error's rounding noise
  (mirror problems agree to about 3e-11, BLAS thread counts move it by up
  to 2e-9), so noise cannot decide whether a creeping run stops;
- no_descent: the line search returned alpha = 0, so the next state would
  be this one and would repeat this step's bits;
- max_iter: max_iter steps were taken;
- failed: a NumericalFailure is raised, with the partial trace attached.

The stop rules read the errors but never enter the arithmetic of a step, so
tightening rel_tol only extends a trace: the default trace is a prefix of the
trace at any smaller rel_tol.

Every phase reads the state's one evaluation, its ErrorReport: the split
takes K = (A~ Y)[:n_I], the assembly and dY take Y and R, the gradient and
linearized_residual take Y, A~ Y and R, and the line search takes
g(0) = sum(R**2).  The results are bit-for-bit those of the direct
formulas, which the tests keep as a reference: near a stop, a change in the
last bit can decide whether a minimization stops or runs on.  The phases
are called by their module names at call time, so a tracer that replaces
one sees every call.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .blas import find_dsyevd, single_thread
from .errors import NumericalFailure
from .transform import initial_guess, objective_gradient, residual_and_error

LINE_SEARCH_ABSCISSAE = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])
_LINE_SEARCH_VANDER = np.vander(LINE_SEARCH_ABSCISSAE, 7)

# Normal-system |eigenvalues| below this fraction of the largest are null.
# The gauge plateau sits near roundoff; from m = 6 on, the squared
# conditioning pushes physical values below the cut too (a known miscount).
NULL_REL_TOL = 1e-8
# Singular values of K = P_I A~ Y at or below this fraction of the largest
# are dropped from its span: K is one product, so its noise floor is near eps.
RANK_TOL = 1e-12
# An error below this is zero at the O(1) scale of the stencil entries.
ABS_TOL = 1e-13
# Consecutive stagnant steps before stopping: one flat step can be a fluke.
PATIENCE = 3
# Longest line-search step: far beyond the full step alpha = 1 the
# linearization the step came from says nothing.
ALPHA_MAX = 4.0
# Rows of the normal matrix assembled, and of its eigenvectors sorted, at a
# time: the block temporaries stay small against the n_pattern^2 matrix.
BLOCK_ROWS = 64


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
class SolveDiagnostics:
    """The null cut's reading of a normal system's spectrum (NormalSystem.diagnostics).

    Every field is a Python scalar, so a record outlives none of the
    system's arrays.
    """

    null_dim: int
    gap_ratio: float
    cond_retained: float
    cond_eq7_estimate: float
    rhs_null_component: float
    rhs_norm: float


class EigenWorkspace:
    """The buffers of one n x n symmetric eigensolve, kept from step to step.

    matrix is Fortran-ordered.  build_normal_system writes N into matrix.T
    in C order; N is exactly symmetric, so that memory is N in either order.
    eigh() runs numpy's own dsyevd (blas.find_dsyevd) on it in place, as
    np.linalg.eigh calls it, so the eigenvalues land in w, the eigenvectors
    overwrite matrix, and the bits are eigh's.  The work arrays are sized by
    dsyevd's own query, as eigh sizes them: the blocking of the reduction
    depends on lwork, and the bits on the blocking.  Where the binding is
    absent, eigh() is np.linalg.eigh of matrix, and work still has the size
    LAPACK asks for at least, 1 + 6n + 2n^2.

    work is the step's one n^2-sized scratch, and dsyevd needs it only
    while it runs.  Before the solve, build_normal_system gathers G's
    columns into it; after the solve, NormalSystem.eig sorts the
    eigenvectors into vectors, a C-ordered n x n view of its head.  So a
    workspace holds 3 n^2 doubles, matrix and work, on either path, and
    it holds one system at a time: each assembly overwrites the last.
    """

    def __init__(self, n):
        self.matrix = np.empty((n, n), order="F")
        self._dsyevd = find_dsyevd()
        if self._dsyevd is None:
            self.work = np.empty(1 + 6 * n + 2 * n * n)
        else:
            self.w = np.empty(n)
            work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
            self._run(self._args(work, -1, iwork, -1))  # the size query
            self.work = np.empty(int(work[0]))
            self.iwork = np.empty(int(iwork[0]), dtype=np.int64)
            self._solve_args = self._args(self.work, len(self.work), self.iwork, len(self.iwork))
        self.vectors = self.work[: n * n].reshape(n, n)

    def _args(self, work, lwork, iwork, liwork):
        n = len(self.w)
        return (102, b"V", b"L", n, self.matrix.ctypes.data, max(n, 1), self.w.ctypes.data,
                work.ctypes.data, lwork, iwork.ctypes.data, liwork)

    def _run(self, args):
        if self._dsyevd(*args) != 0:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def eigh(self):
        """(w, v) of the symmetric matrix, as np.linalg.eigh(matrix) returns them.

        With the binding, w and v are this workspace's w and matrix.
        """
        if self._dsyevd is None:
            return np.linalg.eigh(self.matrix)
        self._run(self._solve_args)
        return self.w, self.matrix


@dataclass(frozen=True)
class NormalSystem:
    """Normal equations of the projected dA least-squares problem.

    The system lives in its workspace, where build_normal_system assembled
    it: matrix is the workspace's matrix, and eig solves it there in place,
    overwriting matrix with the eigenvectors and sorting them into the
    work array.  So matrix is valid until eig, and eig (with diagnostics,
    read from it) is valid until the next assembly in the same workspace.
    """

    rhs: np.ndarray
    basis: tuple  # (rows, cols) index arrays of the free positions, rows <= cols
    expected_null: int | None  # n_interior when A~ had full rank, else None
    workspace: EigenWorkspace = field(repr=False, compare=False)

    @property
    def matrix(self):
        """N, the C-ordered view of the workspace's matrix; valid until eig."""
        return self.workspace.matrix.T

    @cached_property
    def eig(self):
        """Eigenpairs by descending |w|: (vectors, singular values |w|, signs of w).

        This is the eigh that np.linalg.svd(hermitian=True) wraps, ordered as
        it orders it, with one copy of the vectors where it makes two.  The
        copy must be C-ordered: products with a Fortran-ordered v[:, order]
        take another BLAS path and round differently.  It is gathered into
        the workspace's vectors, the head of its work array, which dsyevd
        has finished with, BLOCK_ROWS rows at a time with mode="clip": take
        copies a Fortran-ordered source to C order first, and mode="raise"
        buffers its output, so one gather of the whole matrix would make
        another n^2 array.  Both eigensolve paths sort into the same view.
        Computed once and kept with the system.
        """
        w, v = self.workspace.eigh()
        s = np.abs(w)
        order = np.argsort(s)[::-1]
        vectors = self.workspace.vectors
        for start in range(0, len(order), BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            v[rows].take(order, axis=1, out=vectors[rows], mode="clip")
        return vectors, s[order], np.copysign(1.0, w)[order]

    @cached_property
    def diagnostics(self):
        """The SolveDiagnostics of this system: where the null cut falls in eig.

        Singular values below the fraction NULL_REL_TOL of s[0] are null,
        and all are when s[0] <= 0.  The condition numbers are NaN when
        everything is null.  rhs_null_component is the norm of the rhs in
        the null directions.
        """
        u, s, _ = self.eig
        n = len(s)
        null_dim = n if n == 0 or s[0] <= 0.0 else int(np.sum(s < NULL_REL_TOL * s[0]))
        retained = n - null_dim
        rhs_norm = float(np.linalg.norm(self.rhs))
        if retained == 0:
            return SolveDiagnostics(null_dim, 1.0 if null_dim else 0.0,
                                    math.nan, math.nan, rhs_norm, rhs_norm)
        cond = float(s[0] / s[retained - 1])
        return SolveDiagnostics(
            null_dim=null_dim,
            gap_ratio=float(s[retained] / s[retained - 1]) if null_dim else 0.0,
            cond_retained=cond,
            cond_eq7_estimate=math.sqrt(cond),
            rhs_null_component=float(np.linalg.norm(u[:, retained:].T @ self.rhs)),
            rhs_norm=rhs_norm,
        )


def split_spaces(problem, report):
    """SVD split of the report's K = P_I A~ Y into span (q) and null space (q_null)."""
    u, s, vt = np.linalg.svd(report.ay[: problem.n_interior], full_matrices=True)
    rank = 0
    if s.size and s[0] > 0.0:
        rank = int(np.sum(s > RANK_TOL * s[0]))
    return SubspaceSplit(
        q=vt[:rank].T.copy(),
        q_null=vt[rank:].T.copy(),
        sigma=s[:rank].copy(),
        u=u[:, :rank].copy(),
    )


def _symmetrized(x):
    """0.5 (x + x^T), formed with one temporary: the bits of the plain expression."""
    s = x + x.T
    s *= 0.5
    return s


def build_normal_system(problem, report, split, workspace):
    """Assemble the dA normal equations from G and M without forming the operator.

    With G = Y Qn Qn^T Y^T and M = Y Qn (Qn^T R Qn) Qn^T Y^T, the entries are

        N_kl  = Tr(B_k G B_l G),  rhs_k = Tr(B_k M)

    over the symmetrized pattern basis B_k, i.e. O(n_pattern^2) work given G.
    Y and R are read from the state's report.

    G is symmetrized first, so G_ji = G_ij^T exactly and N comes out exactly
    symmetric: each entry and its mirror are the same two products, summed.
    N is assembled into the workspace's matrix (an EigenWorkspace of
    n_pattern), and G's two column gathers, 2 n_local n_pattern doubles, go
    into its work array, which the last eigensolve there has finished
    with.  The system is valid as long as the workspace holds it
    (NormalSystem).  A workspace of another size, or a work array too small
    for the gathers, raises ValueError.
    """
    if problem.target_pattern.n_entries == 0:
        raise ValueError("target pattern has no free positions")
    z = report.y @ split.q_null
    g = _symmetrized(z @ z.T)
    t = split.q_null.T @ report.residual @ split.q_null
    m = _symmetrized(z @ t @ z.T)
    del z, t

    i_idx, j_idx = problem.target_pattern.index_arrays
    delta = np.where(i_idx == j_idx, 2.0, 1.0)  # diagonal positions count once
    row_scale = 2.0 / delta
    col_scale = 1.0 / delta
    rhs = row_scale * m[i_idx, j_idx]
    del m

    n_pattern = len(i_idx)
    gathers_shape = (2, len(g), n_pattern)
    if workspace.matrix.shape != (n_pattern, n_pattern):
        raise ValueError(f"workspace of shape {workspace.matrix.shape} for "
                         f"{n_pattern} pattern entries")
    if math.prod(gathers_shape) > len(workspace.work):
        raise ValueError(f"G's gathers of shape {gathers_shape} do not fit in a "
                         f"workspace work array of {len(workspace.work)}")
    matrix = workspace.matrix.T  # C-ordered, so the row blocks are contiguous
    gathers = workspace.work[: math.prod(gathers_shape)].reshape(gathers_shape)
    # Columns first, then rows, one block of rows at a time into N itself:
    # G is symmetric, so the column gathers are the rows G_i, G_j
    # transposed, and every gather copies contiguous rows.  The weights
    # 2 / (delta_k delta_l) are powers of two, applied rows first, so the
    # bytes are those of one multiplication by their product.
    g_ti = g.take(i_idx, axis=1, out=gathers[0], mode="clip")
    g_tj = g.take(j_idx, axis=1, out=gathers[1], mode="clip")
    for start in range(0, n_pattern, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        block = matrix[rows]
        g_ti.take(i_idx[rows], axis=0, out=block)  # G_ii
        block *= g_tj.take(j_idx[rows], axis=0)  # G_jj
        cross = g_tj.take(i_idx[rows], axis=0)  # G_ij
        cross *= g_ti.take(j_idx[rows], axis=0)  # G_ji, which is G_ij^T
        block += cross
        block *= row_scale[rows, None]
        block *= col_scale

    return NormalSystem(
        rhs=rhs,
        basis=(i_idx, j_idx),
        expected_null=problem.n_interior if split.rank == problem.n_interior else None,
        workspace=workspace,
    )


def _embed_da(values, basis, n):
    rows, cols = basis
    da = np.zeros((n, n))
    da[rows, cols] = values
    da[cols, rows] = values
    return da


def solve_for_da(system, n_local):
    """Solve the normal equations on their non-null eigenpairs; returns (dA, diagnostics).

    diagnostics is system.diagnostics, whose null directions are dropped
    from the solution.  A warning is emitted when the detected null
    dimension disagrees with the gauge count n_interior (only meaningful
    when A~ had full rank).
    """
    u, s, sign = system.eig
    diagnostics = system.diagnostics
    if system.expected_null is not None and diagnostics.null_dim != system.expected_null:
        warnings.warn(
            f"detected null dimension {diagnostics.null_dim} != interior count "
            f"{system.expected_null} for a full-rank A~",
            RuntimeWarning,
            stacklevel=2,
        )

    retained = len(s) - diagnostics.null_dim
    proj = u[:, :retained].T @ system.rhs
    coeffs = u[:, :retained] @ (proj / s[:retained] * sign[:retained])
    return _embed_da(coeffs, system.basis, n_local), diagnostics


def compute_dy(problem, report, da, split):
    """dY = 1/2 (K^+)^T (R - Y^T dA Y)(I + Qn Qn^T) at the report's Y, R; zero at rank 0."""
    if split.rank == 0:
        return np.zeros((problem.n_interior, problem.n_local))
    y = report.y
    w = y.T @ da @ y
    np.subtract(report.residual, w, out=w)
    w = _symmetrized(w)
    w2 = (w @ split.q_null) @ split.q_null.T
    w2 += w
    del w
    pinv_t = (split.u / split.sigma[None, :]) @ split.q.T
    pinv_t *= 0.5
    return pinv_t @ w2


def linearized_residual(problem, report, dy, da):
    """|| R - Y^T dA Y - K^T dY - dY^T K ||_F at the report's state, K = (A~ Y)[:n_I]."""
    y = report.y
    k = report.ay[: problem.n_interior]
    return float(np.linalg.norm(report.residual - y.T @ da @ y - k.T @ dy - dy.T @ k))


def line_objective(problem, pair, report, dy, da):
    """Squared error norm along the step, g(alpha), a degree-6 polynomial.

    Returns g as a function of alpha, starting from the report's Y.
    """
    n_i = problem.n_interior

    def g(alpha):
        y = report.y.copy()
        y[:n_i] += alpha * dy
        at = alpha * da
        at += pair.a_tilde
        ay = at @ y
        del at
        s = y.T @ ay
        del y, ay
        s = _symmetrized(s)
        np.subtract(problem.a_ll, s, out=s)
        s *= s
        return float(np.sum(s))

    return g


def fit_line_polynomial(g, g0):
    """Exact degree-6 fit of g from g0 = g(0) and 6 evaluations; returns (coeffs, scale).

    g is a line_objective.  coeffs are highest-degree-first for the scaled
    variable alpha/scale.  The abscissae shrink when evaluations overflow
    (trust scaling); the first abscissa is 0 at every scale, where g0 stands in.
    """
    scale = 1.0
    for _ in range(60):
        vals = np.array([g0] + [g(scale * t) for t in LINE_SEARCH_ABSCISSAE[1:]])
        if np.all(np.isfinite(vals)):
            return np.linalg.solve(_LINE_SEARCH_VANDER, vals), scale
        scale *= 0.25
    raise NumericalFailure("line search could not evaluate the objective finitely")


def line_search(problem, pair, report, dy, da):
    """Exact line search on the degree-6 polynomial g; returns (alpha, error).

    g(0) is sum(R**2) of the report, as g forms it.  Candidates are the real
    critical points in (0, ALPHA_MAX]; the best one that improves on g(0)
    wins, otherwise alpha = 0.  The returned error is the (non-squared) norm
    at the chosen alpha, never above the current one.
    """
    g_of = line_objective(problem, pair, report, dy, da)
    g0 = float(np.sum(report.residual**2))
    coeffs, scale = fit_line_polynomial(g_of, g0)

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
        if not (0.0 < alpha <= ALPHA_MAX):
            continue
        g = g_of(alpha)
        if np.isfinite(g) and g < best_g:
            best_alpha, best_g = alpha, g
    return best_alpha, float(np.sqrt(best_g))


@dataclass(frozen=True)
class MinimizeOptions:
    max_iter: int = 200
    rel_tol: float = 1e-8  # relative error change considered stagnant


# Steepest descent converges far more slowly than the linearized method.
STEEPEST_DESCENT_OPTIONS = MinimizeOptions(max_iter=1000, rel_tol=1e-12)


@dataclass
class IterationRecord:
    iteration: int
    error: float  # || A_LL - Y^T A~ Y ||_F at this state
    alpha: float  # step length that led to this state; 0.0 at the start
    solve: SolveDiagnostics | None = None  # linearized: this state's dA solve


# The stop rules of _descend, in the module docstring's order.
STOP_REASONS = ("abs_tol", "stagnated", "no_descent", "max_iter", "failed")


@dataclass
class ConvergenceTrace:
    iterations: list = field(default_factory=list)
    stop_reason: str | None = None  # one of STOP_REASONS once the run ends

    @property
    def converged(self):
        """True when the run ended on its own stop rule, not on the cap or a failure."""
        return self.stop_reason in ("abs_tol", "stagnated", "no_descent")

    @property
    def final_error(self):
        return self.iterations[-1].error

    @property
    def n_steps(self):
        return len(self.iterations) - 1


@single_thread()
def _descend(problem, step, opts):
    """The loop of both minimizers (module docstring); returns (pair, trace).

    step(problem, pair, report) returns the direction and the record's
    `solve`: (dY, dA, solve).  A NumericalFailure leaves with the partial
    trace attached.
    """
    pair = initial_guess(problem)
    trace = ConvergenceTrace()
    alpha = 0.0
    err_prev = None
    stagnant = 0

    try:
        for k in range(opts.max_iter + 1):
            report = residual_and_error(problem, pair)
            err = report.norm
            if not np.isfinite(err):
                raise NumericalFailure("minimization produced a non-finite error")

            dy, da, solve = step(problem, pair, report)
            trace.iterations.append(
                IterationRecord(iteration=k, error=err, alpha=alpha, solve=solve))

            if err < ABS_TOL:
                trace.stop_reason = "abs_tol"
                break
            if err_prev is not None:
                stagnant = stagnant + 1 if abs(err_prev - err) < opts.rel_tol * err_prev else 0
                if stagnant >= PATIENCE:
                    trace.stop_reason = "stagnated"
                    break
            err_prev = err
            if k == opts.max_iter:
                trace.stop_reason = "max_iter"
                break

            alpha, _ = line_search(problem, pair, report, dy, da)
            if alpha == 0.0:  # the next state would be this one
                trace.stop_reason = "no_descent"
                break
            pair.y_rows += alpha * dy
            pair.a_tilde += alpha * da
            del report, dy, da  # not held while the next state is evaluated and solved
    except NumericalFailure as exc:
        trace.stop_reason = "failed"
        exc.trace = trace
        raise

    return pair, trace


class _LinearizedStep:
    """Split, normal system, dA solve, dY; one instance per minimization.

    Its EigenWorkspace is made on the first call, since n_pattern is fixed
    for a problem, and every step assembles and solves its normal system
    there; it goes with the minimization.  No split or system outlives its
    step, and no step makes a fresh n_pattern^2 array: the workspace is 3
    n_pattern^2 doubles, its matrix and dsyevd's work array, which holds
    G's column gathers during the assembly and the sorted eigenvectors
    after the solve; the rest of a step is n_local^2 temporaries, formed in
    place where that keeps the bits.
    """

    def __init__(self):
        self.workspace = None

    def __call__(self, problem, pair, report):
        if self.workspace is None:
            self.workspace = EigenWorkspace(problem.target_pattern.n_entries)
        split = split_spaces(problem, report)
        system = build_normal_system(problem, report, split, self.workspace)
        da, solve = solve_for_da(system, problem.n_local)
        return compute_dy(problem, report, da, split), da, solve


def _gradient_step(problem, pair, report):
    """The negative gradient in the joint (Y, A~) variables."""
    grad_y, grad_a = objective_gradient(problem, report)
    return -grad_y, -grad_a, None


def linearized_minimize(problem, opts=MinimizeOptions()):
    """Minimize the error norm by linearized steps (module docstring).

    Returns (pair, trace, diagnostics).  The trace has one IterationRecord
    per visited state, including the last one, whose `solve` is that
    state's SolveDiagnostics; diagnostics lists those same objects.
    """
    pair, trace = _descend(problem, _LinearizedStep(), opts)
    return pair, trace, [rec.solve for rec in trace.iterations]


def steepest_descent(problem, opts=STEEPEST_DESCENT_OPTIONS):
    """Minimize the error norm along the negative gradient; returns (pair, trace).

    Each record's `solve` is None.
    """
    return _descend(problem, _gradient_step, opts)
