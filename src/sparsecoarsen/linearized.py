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
the system is singular by construction, because the gauge directions
dA = D^T A~ + A~ D (LocalProblem.gauge_dim, lattice.gauge_basis) lie in
its null space.  The line search then guards the nonlinear terms.

Where the gauge is the interior diagonal directions alone (gauge_dim ==
n_interior: every scalar region, and 2-node supernodes at m = 1), a step
pins it instead of leaving it all to the cut (gauge_pins): dA_ii = 0 at
each interior diagonal with |A~_ii| above PIN_REL_TOL of max |A~|.  N is
then assembled over the other free values only, solved with the same cut,
and the solution, zero at the pins, is projected onto the orthogonal
complement of the gauge basis (GaugePins.unpin).  Wherever the cut drops
the gauge alone, that is the unpinned min-norm step in exact arithmetic,
from an eigensolve 1 - ((n_pattern - n_I)/n_pattern)^3 cheaper (64% at
scalar m = 10).  Where nothing is pinned (lambda = 4, where A~'s
diagonal is near zero, and every other supernode region), the step is the
unpinned one bit for bit.

A NormalSystem owns the buffers of the normal equations and holds the
state last assembled into it (build_normal_system).  solve_for_da and
analysis.spectrum_at each solve it in place (eigh(), LAPACK's dsyevd) and
cut its spectrum with null_cut, the one place the cut is made, into the
SolveDiagnostics the trace records as a state's `solve`: its null_dim
counts the pins plus the cut, and its condition numbers are the pinned
system's.  spectrum_at never pins.  A minimization makes one NormalSystem
and assembles every step into it, and dsyevd's work array is the step's
one n_pattern^2-sized scratch.

The solver's rules are fixed module constants, not options: NULL_REL_TOL
(the null cut), PIN_REL_TOL (the pins), RANK_TOL (the rank of K), ABS_TOL
and PATIENCE (the stop rules) and ALPHA_MAX (the line search's longest
step).  Only the iteration cap and the stagnation tolerance are
MinimizeOptions; steepest descent's defaults are STEEPEST_DESCENT_OPTIONS.

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

import numpy as np

from .blas import find_dsyevd, single_thread
from .errors import NumericalFailure
from .lattice import gauge_basis
from .transform import (initial_guess, objective_gradient, residual_and_error,
                        symmetrized)

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
# Rows of N assembled at a time: the block temporaries stay small against N.
BLOCK_ROWS = 64
# An interior diagonal A~_ii is pinned when |A~_ii| is above this fraction of
# max |A~|.  Over every state of the CLI's scalar grids the ratio is at
# least 0.27 away from lambda = 4 and at most 2.2e-14 at it, where nothing
# is pinned; (2,1) m=1 at lambda = 3 and 5 passes 8.4e-5 on the way.
PIN_REL_TOL = 1e-3


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
    """The null cut's reading of a normal system's spectrum (null_cut).

    null_dim counts the free values the system was pinned at (gauge_pins)
    plus the eigenvalues the cut drops; the other fields read the solved
    system's spectrum, so a pinned step reports the pinned system's
    conditioning.  Every field is a Python scalar, so a record outlives
    none of the system's arrays.
    """

    null_dim: int
    gap_ratio: float
    cond_retained: float
    cond_eq7_estimate: float
    rhs_null_component: float
    rhs_norm: float


@dataclass
class GaugePins:
    """The interior diagonals a state pins at dA_ii = 0 (gauge_pins).

    pinned and free split the target pattern's free values, ascending; the
    free ones are the normal system's unknowns.  basis holds the gauge
    directions at the state's A~ (lattice.gauge_basis), gauge_dim of them.
    """

    pinned: np.ndarray
    free: np.ndarray
    basis: tuple
    gauge_dim: int

    def unpin(self, coeffs):
        """Every free value from the free ones' coeffs: zero at the pins, then off the gauge.

        The projection onto the orthogonal complement of the basis B solves
        B^T B c = B^T x and subtracts B c, with B^T B and both products
        formed from the triplets.  They are sorted by row, so the pairs of
        triplets that share a row, which make B^T B, lie d apart for d
        below the longest run of one row.
        """
        rows, cols, values = self.basis
        x = np.zeros(len(self.pinned) + len(self.free))
        x[self.free] = coeffs
        gram = np.zeros((self.gauge_dim, self.gauge_dim))
        np.add.at(gram, (cols, cols), values * values)
        for d in range(1, len(rows)):
            same = rows[d:] == rows[:-d]
            if not same.any():
                break
            a, b = cols[:-d][same], cols[d:][same]
            products = values[:-d][same] * values[d:][same]
            np.add.at(gram, (a, b), products)
            np.add.at(gram, (b, a), products)
        btx = np.bincount(cols, weights=values * x[rows], minlength=self.gauge_dim)
        c = np.linalg.solve(gram, btx)
        x -= np.bincount(rows, weights=values * c[cols], minlength=len(x))
        return x


def gauge_pins(problem, a_tilde):
    """The GaugePins of a state with this A~, or None where nothing is pinned.

    Only where the gauge is the interior diagonal directions alone
    (gauge_dim == n_interior: scalar regions, and 2-node supernodes at
    m = 1): there direction i is the only one with an entry, 2 A~_ii, at
    free value (i, i), so dA_ii = 0 fixes it wherever that entry is not
    small.  Each interior diagonal with |A~_ii| > PIN_REL_TOL max |A~| is
    pinned; the test is strict, so an all-zero A~ pins nothing.
    """
    if problem.gauge_dim != problem.n_interior:
        return None
    rows, cols = problem.target_pattern.index_arrays
    diagonal = np.flatnonzero((rows == cols) & (rows < problem.n_interior))
    large = np.abs(a_tilde[rows[diagonal], rows[diagonal]]) > PIN_REL_TOL * np.abs(a_tilde).max()
    if not large.any():
        return None
    pinned = diagonal[large]
    return GaugePins(pinned=pinned, free=np.delete(np.arange(len(rows)), pinned),
                     basis=gauge_basis(problem, a_tilde), gauge_dim=problem.gauge_dim)


class NormalSystem:
    """The dA normal equations, in buffers made once and reused for each state.

    NormalSystem(n, n_local) has n unknowns.  build_normal_system assembles
    a state into the system, over the last one: N into matrix, and rhs,
    pattern (the target SparsityPattern: it owns the map of the free values
    into dA), pins (the GaugePins the state was assembled with, whose free
    values are the unknowns; None when they all are) and expected_null (the
    problem's gauge_dim when A~ had full rank, else None).  eigh() solves
    it in place, so matrix holds N until then and the eigenvectors after;
    nothing is cached, so call it once per assembly.

    N is exactly symmetric, so the C-ordered matrix is N in column-major
    order too.  eigh() runs numpy's own dsyevd (blas.find_dsyevd) on it, as
    np.linalg.eigh calls it: the eigenvalues land in w, the eigenvectors
    overwrite matrix, and the bits are eigh's.  The work arrays are sized
    by dsyevd's own query, as eigh sizes them: the bits depend on the
    blocking, and the blocking on lwork.  Without the binding, eigh() calls
    np.linalg.eigh on matrix, and work has LAPACK's minimum size,
    1 + 6n + 2n^2.

    work is the one n^2-sized scratch: it holds G's column gathers before
    the solve, dsyevd's work during it and the sort's gather after it.  So
    a system holds 3 n^2 doubles, matrix and work, on either path.  The
    gathers of a region of n_local nodes, 2 n_local n doubles, fit in that
    unless n is far below n_local; work is then made that long, and dsyevd
    still gets the queried lwork.
    """

    def __init__(self, n, n_local=0):
        self.matrix = np.empty((n, n))
        self.rhs = self.pattern = self.expected_null = self.pins = None
        gathers = 2 * n_local * n
        self._dsyevd = find_dsyevd()
        if self._dsyevd is None:
            self.work = np.empty(max(1 + 6 * n + 2 * n * n, gathers))
        else:
            self.w = np.empty(n)
            work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
            self._run(self._args(work, -1, iwork, -1))  # the size query
            lwork = int(work[0])
            self.work = np.empty(max(lwork, gathers))
            self.iwork = np.empty(int(iwork[0]), dtype=np.int64)
            self._solve_args = self._args(self.work, lwork, self.iwork, len(self.iwork))

    def _args(self, work, lwork, iwork, liwork):
        n = len(self.w)
        return (102, b"V", b"L", n, self.matrix.ctypes.data, max(n, 1), self.w.ctypes.data,
                work.ctypes.data, lwork, iwork.ctypes.data, liwork)

    def _run(self, args):
        if self._dsyevd(*args) != 0:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def eigh(self):
        """Solve in place; returns (u, s, sign), the eigenpairs by descending |w|.

        This is the eigh that np.linalg.svd(hermitian=True) wraps, ordered as
        it orders it.  dsyevd leaves the vectors in matrix's rows, and the
        fallback copies eigh's there, so one sort serves both: a gather of
        the rows into work's head (mode="raise" would buffer it), copied back
        transposed.  So u is matrix, C-ordered: a Fortran-ordered u takes
        another BLAS path and rounds differently.
        """
        if self._dsyevd is None:
            w, v = np.linalg.eigh(self.matrix.T)
            np.copyto(self.matrix, v.T)
        else:
            self._run(self._solve_args)
            w = self.w
        s = np.abs(w)
        order = np.argsort(s)[::-1]
        head = self.work[: self.matrix.size].reshape(self.matrix.shape)
        self.matrix.take(order, axis=0, out=head, mode="clip")
        np.copyto(self.matrix, head.T)
        return self.matrix, s[order], np.copysign(1.0, w)[order]


def null_cut(u, s, rhs, pinned=0):
    """The SolveDiagnostics of a descending spectrum s with vectors u (NormalSystem.eigh).

    Singular values below the fraction NULL_REL_TOL of s[0] are null, and
    all are when s[0] <= 0; null_dim counts them and the `pinned` free
    values the system was solved without.  The condition numbers are NaN
    when everything is null.  rhs_null_component is the norm of rhs in the
    null directions.
    """
    n = len(s)
    cut = n if n == 0 or s[0] <= 0.0 else int(np.sum(s < NULL_REL_TOL * s[0]))
    retained = n - cut
    rhs_norm = float(np.linalg.norm(rhs))
    if retained == 0:
        return SolveDiagnostics(pinned + cut, 1.0 if cut else 0.0,
                                math.nan, math.nan, rhs_norm, rhs_norm)
    cond = float(s[0] / s[retained - 1])
    return SolveDiagnostics(
        null_dim=pinned + cut,
        gap_ratio=float(s[retained] / s[retained - 1]) if cut else 0.0,
        cond_retained=cond,
        cond_eq7_estimate=math.sqrt(cond),
        rhs_null_component=float(np.linalg.norm(u[:, retained:].T @ rhs)),
        rhs_norm=rhs_norm,
    )


def split_spaces(problem, report):
    """SVD split of the report's K = P_I A~ Y into span (q) and null space (q_null)."""
    u, s, vt = np.linalg.svd(report.ay[: problem.n_interior], full_matrices=True)
    rank = int(np.sum(s > RANK_TOL * s[0]))
    return SubspaceSplit(
        q=vt[:rank].T.copy(),
        q_null=vt[rank:].T.copy(),
        sigma=s[:rank].copy(),
        u=u[:, :rank].copy(),
    )


def build_normal_system(problem, report, split, system, pins=None):
    """Assemble the dA normal equations into `system` without forming the operator.

    With G = Y Qn Qn^T Y^T and M = Y Qn (Qn^T R Qn) Qn^T Y^T, the entries are

        N_kl  = Tr(B_k G B_l G),  rhs_k = Tr(B_k M)

    over the pattern's basis B_k = embed(e_k), i.e. O(n^2) work given G
    for n unknowns.  Y and R are read from the state's report.  With pins
    (GaugePins), k and l run over the free values pins.free alone, and the
    system keeps pins for solve_for_da; without, over every free value.

    G is symmetrized first, so G_ji = G_ij^T exactly and N comes out exactly
    symmetric: each entry and its mirror are the same two products, summed.
    N is assembled into the system's matrix, and G's two column gathers,
    2 n_local n doubles, go into its work array, which the last
    eigensolve there has finished with.  A system of another size, or a
    work array too small for the gathers, raises ValueError.
    """
    pattern = problem.target_pattern
    if pattern.n_entries == 0:
        raise ValueError("target pattern has no free positions")
    i_idx, j_idx = pattern.index_arrays
    multiplicity = pattern.multiplicity
    if pins is not None:
        i_idx, j_idx, multiplicity = i_idx[pins.free], j_idx[pins.free], multiplicity[pins.free]
    n = len(i_idx)
    gathers_shape = (2, problem.n_local, n)
    if system.matrix.shape != (n, n):
        raise ValueError(f"normal system of shape {system.matrix.shape} for "
                         f"{n} unpinned pattern entries")
    if math.prod(gathers_shape) > len(system.work):
        raise ValueError(f"G's gathers of shape {gathers_shape} do not fit in a "
                         f"work array of {len(system.work)}")

    z = report.y @ split.q_null
    g = symmetrized(z @ z.T)
    t = split.q_null.T @ report.residual @ split.q_null
    m = symmetrized(z @ t @ z.T)
    del z, t

    col_scale = 0.5 * multiplicity
    system.rhs = multiplicity * m[i_idx, j_idx]
    system.pattern = pattern
    system.pins = pins
    system.expected_null = problem.gauge_dim if split.rank == problem.n_interior else None
    del m

    gathers = system.work[: math.prod(gathers_shape)].reshape(gathers_shape)
    # Columns first, then rows, one block of rows at a time into N itself:
    # G is symmetric, so the column gathers are the rows G_i, G_j
    # transposed, and every gather copies contiguous rows.  For free values
    # k, l at (i, j), (i', j'), N_kl = c_k c_l (G_ii' G_jj' + G_ij' G_ji') / 2
    # with c = multiplicity: powers of two, applied rows first, so the bytes
    # are those of one multiplication by their product.
    g_ti = g.take(i_idx, axis=1, out=gathers[0], mode="clip")
    g_tj = g.take(j_idx, axis=1, out=gathers[1], mode="clip")
    for start in range(0, n, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        block = system.matrix[rows]  # C-ordered, so the row blocks are contiguous
        g_ti.take(i_idx[rows], axis=0, out=block)  # G_ii
        block *= g_tj.take(j_idx[rows], axis=0)  # G_jj
        cross = g_tj.take(i_idx[rows], axis=0)  # G_ij
        cross *= g_ti.take(j_idx[rows], axis=0)  # G_ji, which is G_ij^T
        block += cross
        block *= multiplicity[rows, None]
        block *= col_scale


def solve_for_da(system):
    """Solve the normal equations on their non-null eigenpairs; returns (dA, diagnostics).

    The solution is dA's free values, which system.pattern embeds.
    diagnostics is null_cut's reading of system.eigh(), whose null
    directions are dropped from the solution; its null_dim counts the pins
    too.  A pinned system's solution is zero at the pins and then projected
    off the gauge (GaugePins.unpin).  A warning is emitted when the
    detected null dimension disagrees with the gauge count expected_null
    (only meaningful when A~ had full rank).
    """
    u, s, sign = system.eigh()
    pinned = 0 if system.pins is None else len(system.pins.pinned)
    diagnostics = null_cut(u, s, system.rhs, pinned)
    if system.expected_null is not None and diagnostics.null_dim != system.expected_null:
        warnings.warn(
            f"detected null dimension {diagnostics.null_dim} != gauge count "
            f"{system.expected_null} for a full-rank A~",
            RuntimeWarning,
            stacklevel=2,
        )

    retained = len(s) + pinned - diagnostics.null_dim
    proj = u[:, :retained].T @ system.rhs
    coeffs = u[:, :retained] @ (proj / s[:retained] * sign[:retained])
    if system.pins is not None:
        coeffs = system.pins.unpin(coeffs)
    return system.pattern.embed(coeffs), diagnostics


def compute_dy(problem, report, da, split):
    """dY = 1/2 (K^+)^T (R - Y^T dA Y)(I + Qn Qn^T) at the report's Y, R; zero at rank 0."""
    y = report.y
    w = y.T @ da @ y
    np.subtract(report.residual, w, out=w)
    w = symmetrized(w)
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
        s = symmetrized(s)
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

    best_alpha, best_g = 0.0, g0
    for root in np.roots(np.polyder(coeffs)):
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


def _gradient_step(problem, pair, report):
    """The negative gradient in the joint (Y, A~) variables."""
    grad_y, grad_a = objective_gradient(problem, report)
    return -grad_y, -grad_a, None


def linearized_minimize(problem, opts=MinimizeOptions()):
    """Minimize the error norm by linearized steps (module docstring).

    Returns (pair, trace, diagnostics).  The trace has one IterationRecord
    per visited state, including the last one, whose `solve` is that
    state's SolveDiagnostics; diagnostics lists those same objects.

    Every step assembles and solves in one NormalSystem, sized for the
    free values its state leaves unpinned (gauge_pins), so no step makes a
    fresh n_pattern^2 array.  A step that leaves another number unpinned
    than the last makes a new one; on the CLI's grids only (2,1) m=1 at
    lambda = 3 and 5 do, where one diagonal drops below PIN_REL_TOL and
    comes back (20, 21 and 20 unknowns).  The
    rest of a step is n_local^2 temporaries, formed in place where that
    keeps the bits, and no split outlives its step.  The system is made at
    the first step, after the first state's arrays: made before them, the
    same buffers left the large_region benchmark's peak RSS 0.5-2 MB higher
    (glibc's heap placed them worse; x86_64 Linux, 2 cores).
    """
    system = None

    def step(problem, pair, report):
        """Pins, split, normal system (assembled into `system`), dA solve, dY."""
        nonlocal system
        pins = gauge_pins(problem, pair.a_tilde)
        n = problem.target_pattern.n_entries if pins is None else len(pins.free)
        if system is None or len(system.matrix) != n:
            system = NormalSystem(n, problem.n_local)
        split = split_spaces(problem, report)
        build_normal_system(problem, report, split, system, pins)
        da, solve = solve_for_da(system)
        return compute_dy(problem, report, da, split), da, solve

    pair, trace = _descend(problem, step, opts)
    return pair, trace, [rec.solve for rec in trace.iterations]


def steepest_descent(problem, opts=STEEPEST_DESCENT_OPTIONS):
    """Minimize the error norm along the negative gradient; returns (pair, trace).

    Each record's `solve` is None.
    """
    return _descend(problem, _gradient_step, opts)
