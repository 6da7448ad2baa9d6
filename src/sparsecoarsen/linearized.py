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
the gauge alone, that is the unpinned min-norm step in exact arithmetic.

A scalar region, its pattern and A_LL are invariant under the reflections
x -> -x and y -> -y about the decoupled node, and so are the iterates: the
initial guess is, and a step from an invariant state is.  N then commutes
with the reflection group K, and in the orthonormal basis of orbit sums of
the unknowns it splits into four blocks, one per character of K, of about
n/4 unknowns each (Faessler & Stiefel, 1992).  The unknowns'
lattice.OrbitStacks (lattice.reflection_blocks) forms them from N's rows
at each orbit's least member, as it forms the node blocks (below).  The
rhs is invariant, so it lies in the trivial character's block: dA is
solved there alone, through that block's eigenvectors, and the other
three blocks are solved for their eigenvalues only.  The cut and every
SolveDiagnostics field read the four spectra merged, which is N's spectrum
to rounding.  The unknowns are the pinned system's, or every free value
where nothing is pinned (lambda = 4, where A~'s diagonal is near zero).
Where K does not map the problem and the unknowns onto themselves (every
supernode region, whose decoupled node is a supernode's corner, and a
pinned set that splits an orbit) the group is the identity alone, whose
one block is N itself, bit for bit the full system.  The blocks'
eigensolves cost about 1/16 of N's: a scalar m = 10 step's dA
solve went from 24.5 to 3.9 ms (x86_64, one BLAS thread).

Every product of a step works in the same way on the region's nodes.  K
maps the nodes and the interior onto themselves, so the orthonormal orbit
sums of the nodes (LocalProblem.node_blocks, lattice.NodeBlocks) split them
into four character blocks, and Y, A~, dA, A_LL, R, K = P_I A~ Y and dY of
an invariant state are block diagonal there; the interior blocks are the
interior orbits of the node blocks.  residual_and_error stacks Y and A~
once per state and forms A~ Y and R = A_LL - Y^T A~ Y on the (4, n0, n0)
stacks, and the report holds them (ErrorReport.parts).  split_spaces
decomposes each block K_c on its own, reads the rank once on the merged
singular values, and hands q, q_null, u and sigma on as zero-padded
stacks; the assembly forms Z = Y Q_null, G, Q_null^T R Q_null and M on
them and reads G whole and M at the pattern's entries back in node
coordinates (NodeBlocks.unstack), where the normal equations are gathered;
dA, solved in node coordinates, is stacked once per step, compute_dy forms
dY's six products on the stacks, and dY is read back in node coordinates
once, for the update; the line search's g(alpha) chains the same stacks.
The state itself stays in node coordinates, so A~'s zero pattern and Y's
identity boundary rows stay exact.  Node coordinates are the one-part case
of every phase, so each has one body: there the parts are the matrices
themselves and the split holds one part's columns.  Node blocks exist only
in scalar regions of lattice.BLOCKS_MIN_NODES nodes or more (m >= 6),
where they save more than their numpy calls cost.  A state the reflections
do not map onto itself (LocalProblem.reflection_invariant; every state of
a minimization passes) is read in node coordinates.  A scalar lambda = 3.5,
m = 10 step took 12.8 ms with the split and line search alone in the
blocks and 10.7 ms with every product there (x86_64, one BLAS thread, best
of 5; per step, node coordinates -> blocks: residual 1.0 -> 0.5, split 2.4
-> 1.8, assembly 2.2 -> 2.4 of which 1.0 reads G, M and dY back, dA solve
3.2 -> 3.4, dY 1.8 -> 0.3, line search 1.9 -> 1.1 ms).

A NormalSystem owns the buffers of the normal equations and holds the
state last assembled into it (build_normal_system).  solve_for_da and
analysis.spectrum_at read it through one body, cut_spectrum: it solves the
system in place (eigh() on the first block, LAPACK's dsyevd, and eigvals()
on the others) and cuts the merged spectrum with null_cut, the one place
the cut is made, into the SolveDiagnostics
the trace records as a state's `solve`: its null_dim counts the pins plus
the cut, and its condition numbers are the pinned system's.  spectrum_at
never pins.  A minimization makes one NormalSystem, in its state's
blocks, and assembles every step into it, and the system's work array is
the step's one scratch of the first block's size squared.

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
- failed: a NumericalFailure is raised, with the partial trace attached; a
  library solve's LinAlgError is raised as one, and cut_spectrum raises one
  on a non-finite spectrum.

The stop rules read the errors but never enter the arithmetic of a step, so
tightening rel_tol only extends a trace: the default trace is a prefix of the
trace at any smaller rel_tol.

Every phase reads the state's one evaluation, its ErrorReport, in its
parts: the split takes K = (A~ Y)[:n_I], the assembly and dY take Y and R,
line_objective takes Y and A~ and g(0) = sum(R**2), and the gradient and
linearized_residual take Y, A~ Y and R in node coordinates.  In node
coordinates the results are bit-for-bit those
of the direct formulas, which the tests keep as a reference: near a stop,
a change in the last bit can decide whether a minimization stops or runs
on.  The phases are called by their module names at call time, so a
tracer that replaces one sees every call.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .blas import find_dsyevd, single_thread
from .errors import NumericalFailure
from .lattice import OrbitStacks, gauge_basis, reflection_blocks
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
    """Right singular subspaces of K = P_I A~ Y, plus what the pseudo-inverse needs.

    In node coordinates the shapes are those below.  In a report's node
    blocks (split_spaces) each array is a stack of the blocks' arrays,
    zero-padded to (4, n0, width) and (4, width) for the largest block's n0
    and the widest block: u over each block's interior orbits, sigma padded
    with 1.0, where u and q are zero; ranks then holds each block's rank.
    """

    q: np.ndarray  # (n_local, rank): span of K's rows
    q_null: np.ndarray  # (n_local, n_local - rank): orthonormal complement
    sigma: np.ndarray  # (rank,) retained singular values
    u: np.ndarray  # (n_interior, rank) left singular vectors
    ranks: tuple = None  # in the node blocks, each block's rank

    @property
    def rank(self):
        return self.q.shape[1] if self.ranks is None else sum(self.ranks)


@dataclass
class SolveDiagnostics:
    """The null cut's reading of a normal system's spectrum (null_cut).

    null_dim counts the free values the system was pinned at (gauge_pins)
    plus the eigenvalues the cut drops; the other fields read the solved
    system's spectrum, its blocks' merged, so a pinned step reports the
    pinned system's conditioning.  Every field is a Python scalar, so a
    record outlives none of the system's arrays.
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

    NormalSystem(n, n_local, orbits) has n unknowns, in the character
    blocks of their OrbitStacks (lattice.reflection_blocks), by default of
    the identity alone.  build_normal_system assembles a state into it,
    over the last one: B_c^T N B_c into blocks, one zero-padded stack
    (OrbitStacks.shape) whose first block, the trivial one, is matrix; rhs
    over the n unknowns; pattern (the target SparsityPattern, which embeds
    the free values into dA); pins (the GaugePins the state was assembled
    with, whose free values are the unknowns, or None) and expected_null
    (the problem's gauge_dim when A~ had full rank, else None).  eigh()
    solves matrix in place, so it holds the block until then and its
    eigenvectors after; eigvals() solves the others for their eigenvalues
    alone.  Nothing is cached, so call each once per assembly.

    Under the identity, matrix is N itself.  N is exactly symmetric, so the
    C-ordered matrix is N in column-major order too; a block of K's is
    symmetric to the state's symmetry defect, and both solvers read the
    same triangle of it.  eigh() runs numpy's own dsyevd (blas.find_dsyevd)
    on it, as np.linalg.eigh calls it: the eigenvalues land in w, the
    eigenvectors overwrite matrix, and the bits are eigh's.  The work
    arrays are sized by dsyevd's own query, as eigh sizes them: the bits
    depend on the blocking, and the blocking on lwork.  Without the
    binding, eigh() calls np.linalg.eigh on matrix, and work has LAPACK's
    minimum size, 1 + 6 n0 + 2 n0^2.

    work is the one n0^2-sized scratch: it holds G's gathers before the
    solve, dsyevd's work during it and the sort's gather after it.  The
    gathers of a region of n_local nodes are 2 n_local doubles per orbit of
    the unknowns: G's columns at every unknown under the identity, G's rows
    at the least members under K.  If they do not fit, work is made that
    long, and dsyevd still gets the queried lwork.
    """

    def __init__(self, n, n_local=0, orbits=None):
        self.n = n
        self.orbits = OrbitStacks(np.arange(n)[None]) if orbits is None else orbits
        if self.orbits.n != n:
            raise ValueError(f"orbit stacks of {self.orbits.n} unknowns for {n}")
        self.blocks = np.empty(self.orbits.shape)
        self.matrix = self.blocks[0]
        n0 = len(self.matrix)
        self.rhs = self.pattern = self.expected_null = self.pins = None
        gathers = 2 * n_local * len(self.orbits.least)
        self._dsyevd = find_dsyevd()
        if self._dsyevd is None:
            self.work = np.empty(max(1 + 6 * n0 + 2 * n0 * n0, gathers))
        else:
            self.w = np.empty(n0)
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
        """Solve the first block in place; returns its eigenpairs (u, s, sign) by descending |w|.

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

    def eigvals(self):
        """|eigenvalues| of the blocks after the first (np.linalg.eigvalsh); empty for one block.

        eigvalsh reads the triangle eigh() reads, on either path.
        """
        sizes = self.orbits.sizes[1:]
        return np.abs(np.concatenate([np.linalg.eigvalsh(b[:k, :k].T)
                                      for b, k in zip(self.blocks[1:], sizes)] or [np.empty(0)]))


def _null_count(s, top):
    """How many values of s the null cut drops in a spectrum whose largest value is top."""
    return len(s) if top <= 0.0 else int(np.sum(s < NULL_REL_TOL * top))


def null_cut(u, s, rhs, pinned=0, rest=()):
    """The null cut of a solved block's (u, s, rhs) and the other blocks' values rest.

    s is descending with u's columns (NormalSystem.eigh) and rhs is in the
    block's coordinates; rest holds the other blocks' |eigenvalues|
    (NormalSystem.eigvals), empty for one block.  The cut reads the merged
    spectrum of all blocks: values below the fraction NULL_REL_TOL of its
    largest are null, and all are when that is <= 0; null_dim counts them
    and the `pinned` free values the system was solved without, and the
    condition numbers, NaN when everything is null, read the merged
    spectrum too.  rhs_null_component is the norm of rhs in the block's
    null directions: rhs lies in the trivial block.  Returns the
    SolveDiagnostics, how many of s's leading values the cut keeps, and the
    merged spectrum, descending.
    """
    sigma = s if len(rest) == 0 else np.sort(np.concatenate((s, rest)))[::-1]
    n = len(sigma)
    cut = _null_count(sigma, sigma[0] if n else 0.0)
    retained = n - cut
    kept = len(s) - _null_count(s, sigma[0] if n else 0.0)
    rhs_norm = float(np.linalg.norm(rhs))
    if retained == 0:
        return (SolveDiagnostics(pinned + cut, 1.0 if cut else 0.0,
                                 math.nan, math.nan, rhs_norm, rhs_norm), kept, sigma)
    cond = float(sigma[0] / sigma[retained - 1])
    return SolveDiagnostics(
        null_dim=pinned + cut,
        gap_ratio=float(sigma[retained] / sigma[retained - 1]) if cut else 0.0,
        cond_retained=cond,
        cond_eq7_estimate=math.sqrt(cond),
        rhs_null_component=float(np.linalg.norm(u[:, kept:].T @ rhs)),
        rhs_norm=rhs_norm,
    ), kept, sigma


def cut_spectrum(system):
    """Solve the system in place (eigh(), eigvals()) and cut its spectrum (null_cut).

    Returns (sigma, diagnostics, kept, rhs): the merged spectrum, the cut's
    reading, counting system.pins, the first block's (u, s, sign) that it
    keeps, and rhs in that block, the trivial one (OrbitStacks.project).  A
    non-finite spectrum raises NumericalFailure: from 26 unknowns on,
    dsyevd returns NaN eigenvalues of a NaN matrix without an error.
    """
    u, s, sign = system.eigh()
    rest = system.eigvals()
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(rest))):
        raise NumericalFailure("the normal system's spectrum is not finite")
    rhs = system.orbits.project(system.rhs)
    pinned = 0 if system.pins is None else len(system.pins.pinned)
    diagnostics, kept, sigma = null_cut(u, s, rhs, pinned, rest)
    return sigma, diagnostics, (u[:, :kept], s[:kept], sign[:kept]), rhs


def split_spaces(problem, report):
    """SVD split of the report's K = P_I A~ Y into span (q) and null space (q_null).

    One body over the parts of K, in the report's parts (ErrorReport.parts):
    K itself, the one part, in node coordinates; in the node blocks, each
    block's K_c, its interior orbits' rows of (A~ Y)_c.  Each part is
    decomposed on its own, and the rank is read once on the merged singular
    values at RANK_TOL of the largest.  The one part's q, q_null, sigma and
    u are its own arrays; the blocks' are zero-padded into stacks
    (SubspaceSplit), so the assembly and dY take them as they take Y.
    """
    n_i, nodes = problem.n_interior, report.nodes
    ay = report.parts[2]
    if nodes is None:
        parts = [ay[:n_i]]
    else:
        parts = [ay[c, :n_ic, :k] for c, (n_ic, k) in enumerate(zip(nodes.interior,
                                                                   nodes.orbits.sizes))]
    svds = [np.linalg.svd(k_c, full_matrices=True) for k_c in parts]
    top = max(s[0] for _, s, _ in svds if len(s))
    ranks = [int(np.sum(s > RANK_TOL * top)) for _, s, _ in svds]

    def laid_out(arrays, rows=None, fill=0.0):
        """The one part's array, C-ordered, as svd(K)'s .T.copy() is; or the blocks', stacked."""
        if nodes is None:
            return arrays[0].copy()
        shape = np.max([a.shape for a in arrays], axis=0)
        if rows is not None:
            shape[0] = rows
        out = np.full((len(arrays), *shape), fill)
        for o, a in zip(out, arrays):
            o[tuple(slice(k) for k in a.shape)] = a
        return out

    return SubspaceSplit(
        q=laid_out([vt[:r].T for (_, _, vt), r in zip(svds, ranks)]),
        q_null=laid_out([vt[r:].T for (_, _, vt), r in zip(svds, ranks)]),
        sigma=laid_out([s[:r] for (_, s, _), r in zip(svds, ranks)], fill=1.0),
        u=laid_out([u[:, :r] for (u, _, _), r in zip(svds, ranks)],
                   rows=None if nodes is None else len(ay[0])),
        ranks=None if nodes is None else tuple(ranks),
    )


def build_normal_system(problem, report, split, system, pins=None):
    """Assemble the dA normal equations into `system`'s blocks without forming the operator.

    With G = Y Qn Qn^T Y^T and M = Y Qn (Qn^T R Qn) Qn^T Y^T, the entries are

        N_kl  = Tr(B_k G B_l G),  rhs_k = Tr(B_k M)

    over the pattern's basis B_k = embed(e_k), i.e. O(n^2) work given G
    for n unknowns.  Y and R are read from the state's report.  With pins
    (GaugePins), k and l run over the free values pins.free alone, and the
    system keeps pins for solve_for_da; without, over every free value.
    rhs is over the unknowns.  N's rows at the unknowns' least members are
    gathered, N(k_a, g k_b), and OrbitStacks.combine makes the blocks.

    G is symmetrized first, so G_ji = G_ij^T exactly and N comes out exactly
    symmetric: each entry and its mirror are the same two products, summed.
    G's gathers, 2 n_local doubles per orbit, go into the system's work
    array, which the last eigensolve there has finished with.  A system of
    another size, or a work array too small for the gathers, raises
    ValueError.
    """
    pattern = problem.target_pattern
    if pattern.n_entries == 0:
        raise ValueError("target pattern has no free positions")
    i_idx, j_idx = pattern.index_arrays
    multiplicity = pattern.multiplicity
    if pins is not None:
        i_idx, j_idx, multiplicity = i_idx[pins.free], j_idx[pins.free], multiplicity[pins.free]
    n = len(i_idx)
    if system.n != n:
        raise ValueError(f"normal system of {system.n} unknowns for "
                         f"{n} unpinned pattern entries")
    orbits, n_local = system.orbits, problem.n_local
    gathers_size = 2 * n_local * len(orbits.least)
    if gathers_size > len(system.work):
        raise ValueError(f"G's gathers of {gathers_size} doubles do not fit in a "
                         f"work array of {len(system.work)}")

    y, _, _, residual = report.parts
    q_null_t = split.q_null.swapaxes(-1, -2)
    z = y @ split.q_null
    g = report.unstack(symmetrized(z @ z.swapaxes(-1, -2)))
    t = q_null_t @ residual @ split.q_null
    m = report.unstack(symmetrized(z @ t @ z.swapaxes(-1, -2)), at=(i_idx, j_idx))
    del z, t

    system.rhs = multiplicity * m
    system.pattern = pattern
    system.pins = pins
    system.expected_null = problem.gauge_dim if split.rank == problem.n_interior else None
    del m

    # Row a of the sums is N(k_a, g k_b) over every g and b.  For free
    # values k, l at (i, j), (i', j'), with c = multiplicity,
    # N_kl = c_k c_l (G_ii' G_jj' + G_ij' G_ji') / 2:
    # powers of two, applied rows first, so the bytes are those of one
    # multiplication by their product.  The four G factors are gathered one
    # band of rows at a time, in place in the sums.  Under the identity the
    # sums are N itself, and G's columns are gathered first (G is
    # symmetric, so they are the rows G_i, G_j transposed, and every gather
    # copies contiguous rows); under K, G's rows at the least members, then
    # their images' columns.  Either way the products and sums are the same.
    rows, cols = orbits.least, orbits.members.ravel()
    row_idx, col_idx = (i_idx[rows], j_idx[rows]), (i_idx[cols], j_idx[cols])
    by_rows = len(orbits.members) > 1
    shape = (2, len(rows), n_local) if by_rows else (2, n_local, len(cols))
    gathers = system.work[: math.prod(shape)].reshape(shape)
    if by_rows:
        by_row = [g.take(r, axis=0, out=out, mode="clip") for r, out in zip(row_idx, gathers)]
        sums = np.empty(orbits.sums_shape)
    else:
        by_col = [g.take(c, axis=1, out=out, mode="clip") for c, out in zip(col_idx, gathers)]
        sums = system.matrix

    def factor(r, c, band, out=None):
        """G at rows row_idx[r][band] and columns col_idx[c]; 0 is i, 1 is j."""
        if by_rows:
            return by_row[r][band].take(col_idx[c], axis=1, out=out)
        return by_col[c].take(row_idx[r][band], axis=0, out=out)

    row_scale, col_scale = multiplicity[rows], 0.5 * multiplicity[cols]
    entries = sums.reshape(len(rows), len(cols))  # C-ordered, so the bands are contiguous
    for start in range(0, len(rows), BLOCK_ROWS):
        band = slice(start, start + BLOCK_ROWS)
        terms = factor(0, 0, band, out=entries[band])  # G_ii'
        terms *= factor(1, 1, band)  # G_jj'
        cross = factor(0, 1, band)  # G_ij'
        cross *= factor(1, 0, band)  # G_ji', which is G_ij'^T
        terms += cross
        terms *= row_scale[band, None]
        terms *= col_scale
    orbits.combine(sums, out=system.blocks)


def solve_for_da(system):
    """Solve the normal equations on their non-null eigenpairs; returns (dA, diagnostics).

    The solution is dA's free values, which system.pattern embeds.  It is
    solved in the first block alone, on the eigenpairs that cut_spectrum
    keeps: the state's rhs lies in the trivial block.  diagnostics is
    null_cut's reading of every block's spectrum merged, and null_dim
    counts the pins too.  A pinned system's solution is zero at the pins
    and then projected off the gauge (GaugePins.unpin).  A warning is
    emitted when the detected null dimension disagrees with the gauge count
    expected_null (only meaningful when A~ had full rank).
    """
    _, diagnostics, (u, s, sign), rhs = cut_spectrum(system)
    if system.expected_null is not None and diagnostics.null_dim != system.expected_null:
        warnings.warn(
            f"detected null dimension {diagnostics.null_dim} != gauge count "
            f"{system.expected_null} for a full-rank A~",
            RuntimeWarning,
            stacklevel=2,
        )

    proj = u.T @ rhs
    coeffs = system.orbits.expand(u @ (proj / s * sign))
    if system.pins is not None:
        coeffs = system.pins.unpin(coeffs)
    return system.pattern.embed(coeffs), diagnostics


def compute_dy(report, da, split):
    """dY = 1/2 (K^+)^T (R - Y^T dA Y)(I + Qn Qn^T) at the report's Y, R; zero at rank 0.

    dA, the split and dY are in the report's parts: dY is the interior rows
    in node coordinates, and in the node blocks the stack of the n_local x
    n_local dY with zero boundary rows.
    """
    y, _, _, residual = report.parts
    w = y.swapaxes(-1, -2) @ da @ y
    np.subtract(residual, w, out=w)
    w = symmetrized(w)
    w2 = (w @ split.q_null) @ split.q_null.swapaxes(-1, -2)
    w2 += w
    del w
    pinv_t = (split.u / split.sigma[..., None, :]) @ split.q.swapaxes(-1, -2)
    pinv_t *= 0.5
    return pinv_t @ w2


def linearized_residual(problem, report, dy, da):
    """|| R - Y^T dA Y - K^T dY - dY^T K ||_F at the report's state, K = (A~ Y)[:n_I]."""
    y = report.y
    k = report.ay[: problem.n_interior]
    return float(np.linalg.norm(report.residual - y.T @ da @ y - k.T @ dy - dy.T @ k))


def line_objective(problem, report, dy, da):
    """Squared error norm along the step, g(alpha), a degree-6 polynomial.

    Returns (g, g(0)), g as a function of alpha from the report's Y.  dY
    and dA are in the report's parts (ErrorReport.parts), as are Y and A~:
    the node-coordinate matrices, or the node blocks' stacks, where g sums
    the blocks' errors.  dY is read zero-padded to Y's rows.  One body makes
    each g(alpha), a chain of products, and g(0) is the report's sum(R**2),
    which is g(0) bit for bit.
    """
    y, a_tilde, _, residual = report.parts
    padded = np.zeros_like(y)
    padded[..., : dy.shape[-2], :] = dy
    dy = padded
    a_ll = problem.a_ll if report.nodes is None else report.nodes.a_ll

    def g(alpha):
        y_at = alpha * dy
        y_at += y
        at = alpha * da
        at += a_tilde
        ay = at @ y_at
        del at
        s = y_at.swapaxes(-1, -2) @ ay
        del y_at, ay
        s = symmetrized(s)
        np.subtract(a_ll, s, out=s)
        s *= s
        return float(np.sum(s))

    return g, float(np.sum(residual**2))


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


def line_search(problem, report, dy, da):
    """Exact line search on the degree-6 polynomial g; returns (alpha, error).

    g and its g(0) are line_objective's, so the fit's g(0) is g's, bit for
    bit, and g is never evaluated at 0 here.
    Candidates are the real critical points in (0, ALPHA_MAX]; the best one
    that improves on g(0) wins, otherwise alpha = 0.  The returned error is
    the (non-squared) norm at the chosen alpha, never above the current one.
    """
    g_of, g0 = line_objective(problem, report, dy, da)
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
    `solve`: (dY, dA, parts, solve), dY's interior rows and dA in node
    coordinates, which update the state, and parts, the two in the report's
    parts (ErrorReport.stack), which the line search reads.  A
    NumericalFailure, or a LinAlgError of a library solve, leaves as a
    NumericalFailure with the partial trace attached.
    """
    # Any node blocks are made before the first state's arrays: made among a
    # step's temporaries, they left the large_region benchmark's peak RSS
    # about 3 MB higher (glibc placed the next global_verify's arrays worse).
    _ = problem.node_blocks
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

            dy, da, parts, solve = step(problem, pair, report)
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

            alpha, _ = line_search(problem, report, *parts)
            if alpha == 0.0:  # the next state would be this one
                trace.stop_reason = "no_descent"
                break
            pair.y_rows += alpha * dy
            pair.a_tilde += alpha * da
            del report, dy, da, parts  # not held while the next state is evaluated and solved
    except (NumericalFailure, np.linalg.LinAlgError) as exc:
        trace.stop_reason = "failed"
        failure = exc if isinstance(exc, NumericalFailure) else NumericalFailure(str(exc))
        failure.trace = trace
        if failure is exc:
            raise
        raise failure from exc

    return pair, trace


def _gradient_step(problem, pair, report):
    """The negative gradient in the joint (Y, A~) variables."""
    grad_y, grad_a = objective_gradient(problem, report)
    dy, da = -grad_y, -grad_a
    return dy, da, (report.stack(dy), report.stack(da)), None


def linearized_minimize(problem, opts=MinimizeOptions()):
    """Minimize the error norm by linearized steps (module docstring).

    Returns (pair, trace, diagnostics).  The trace has one IterationRecord
    per visited state, including the last one, whose `solve` is that
    state's SolveDiagnostics; diagnostics lists those same objects.

    Every step assembles and solves in one NormalSystem, made for the
    free values its state leaves unpinned (gauge_pins), in their
    reflection blocks (lattice.reflection_blocks), so no step makes a
    fresh array of N's size; under K the assembly's character sums, about
    the blocks' size, are made per step.  A step that pins another set
    than the last makes a new one; on the CLI's grids only (2,1) m=1 at
    lambda = 3 and 5 do, where one diagonal drops below PIN_REL_TOL and
    comes back (20, 21 and 20 unknowns).  The rest of a step is n_local^2
    temporaries, formed in place where that keeps the bits, and no split
    outlives its step.  The system is made at
    the first step, after the first state's arrays: made before them, the
    same buffers left the large_region benchmark's peak RSS 0.5-2 MB higher
    (glibc's heap placed them worse; x86_64 Linux, 2 cores).
    """
    system, pinned = None, None

    def step(problem, pair, report):
        """Pins, split, normal system (assembled into `system`), dA solve, dY."""
        nonlocal system, pinned
        pins = gauge_pins(problem, pair.a_tilde)
        now = np.empty(0, dtype=np.intp) if pins is None else pins.pinned
        if system is None or not np.array_equal(now, pinned):
            orbits = reflection_blocks(problem, None if pins is None else pins.free)
            system = NormalSystem(orbits.n, problem.n_local, orbits)
            pinned = now
        split = split_spaces(problem, report)
        build_normal_system(problem, report, split, system, pins)
        da, solve = solve_for_da(system)
        da_parts = report.stack(da)
        dy = compute_dy(report, da_parts, split)
        return report.unstack(dy)[: problem.n_interior], da, (dy, da_parts), solve

    pair, trace = _descend(problem, step, opts)
    return pair, trace, [rec.solve for rec in trace.iterations]


def steepest_descent(problem, opts=STEEPEST_DESCENT_OPTIONS):
    """Minimize the error norm along the negative gradient; returns (pair, trace).

    Each record's `solve` is None.
    """
    return _descend(problem, _gradient_step, opts)
