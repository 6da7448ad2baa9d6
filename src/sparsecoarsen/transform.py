"""Transformation pairs, the Frobenius error norm, and its gradient.

A pair (Y, A~) transforms the local operator as A_LL ~= Y^T A~ Y, where Y is
the inverse transformation restricted to the region: its boundary rows are
identity rows (so couplings to the exterior are preserved exactly) and only
the interior rows are free.  A~ is symmetric and confined to the target
sparsity pattern.  The quantity minimized is

    error(Y, A~) = || A_LL - Y^T A~ Y ||_F

which is invariant under the gauge (Y, A~) -> (E^-1 Y, E^T A~ E) for any
invertible E that is the identity on the boundary and keeps A~ in the
pattern.  interior_scaling applies the diagonal case E = D.  For supernode
regions E may be block-diagonal over the interior supernodes, as long as the
decoupled node's row and column of E stay diagonal so that its row of A~
stays empty (TestGaugeFreedom.test_error_invariant_under_block_gauge).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blas import single_thread
from .errors import NumericalFailure


@dataclass
class TransformPair:
    """Free variables of one transformation: interior rows of Y, and A~."""

    y_rows: np.ndarray  # (n_interior, n_local)
    a_tilde: np.ndarray  # (n_local, n_local) symmetric, zero off-pattern

    @property
    def n_interior(self):
        return self.y_rows.shape[0]

    @property
    def n_local(self):
        return self.y_rows.shape[1]

    def full_y(self):
        """Full square Y: free interior rows stacked over identity boundary rows.

        Relies on the region ordering placing interior nodes first.
        """
        n_i, n_l = self.y_rows.shape
        out = np.zeros((n_l, n_l))
        out[:n_i] = self.y_rows
        out[np.arange(n_i, n_l), np.arange(n_i, n_l)] = 1.0
        return out

    def copy(self):
        return TransformPair(self.y_rows.copy(), self.a_tilde.copy())


@dataclass(eq=False)
class ErrorReport:
    """One evaluation of a state, and the products it was formed from.

    norm is ||R||_F for R = A_LL - Y^T A~ Y, and a_tilde the pair's own A~.
    parts holds what the products were formed from and in, (Y, A~, A~ Y,
    R), R exactly symmetric: the node-coordinate matrices, Y the full Y
    (TransformPair.full_y), or, where nodes is the problem's NodeBlocks,
    their (4, n0, n0) stacks (NodeBlocks.stack).  A step's phases read and
    form every matrix in the parts' coordinates (stack and unstack map
    them).  y, residual and ay are Y, R and A~ Y in node coordinates: the
    parts themselves, or read back from the blocks on first use.
    """

    norm: float
    a_tilde: np.ndarray
    parts: tuple
    nodes: object = None

    @cached_property
    def y(self):
        return self.unstack(self.parts[0])

    @cached_property
    def residual(self):
        return self.unstack(self.parts[3])

    @cached_property
    def ay(self):
        return self.unstack(self.parts[2])

    def unstack(self, x, at=None):
        """The matrix x of the parts' coordinates in node coordinates, or its x[rows, cols].

        at is (rows, cols), index arrays of one shape (NodeBlocks.unstack).
        """
        if self.nodes is None:
            return x if at is None else x[at]
        return self.nodes.unstack(x, at)

    def stack(self, matrix):
        """An n_local x n_local matrix, or dY's interior rows, in the parts' coordinates.

        In the blocks, interior rows are read zero-padded to n_local rows.
        A direction formed at a state that the reflections map onto itself
        is mapped too, so one they do not map, checked beside the state's A~
        (NodeBlocks.stack), raises NumericalFailure.
        """
        if self.nodes is None:
            return matrix
        n = len(self.a_tilde)
        if len(matrix) < n:
            matrix = np.concatenate((matrix, np.zeros((n - len(matrix), n))))
        blocks = self.nodes.stack((matrix,), beside=(self.a_tilde,))
        if blocks is None:
            raise NumericalFailure("a step the reflections do not map onto itself")
        return blocks[0]


def initial_guess(problem):
    """Y = identity, A~ = the local operator masked to the target pattern."""
    n_l, n_i = problem.n_local, problem.n_interior
    y_rows = np.eye(n_l)[:n_i].copy()
    a_tilde = np.where(problem.target_pattern.mask(), problem.a_ll, 0.0)
    return TransformPair(y_rows=y_rows, a_tilde=a_tilde)


def symmetrized(x):
    """0.5 (x + x^T), formed with one temporary: the bits of the plain expression.

    A stack of matrices, as NodeBlocks holds, is symmetrized matrix by matrix.
    """
    s = x + x.swapaxes(-1, -2)
    s *= 0.5
    return s


def residual_and_error(problem, pair):
    """The state's ErrorReport: R = A_LL - Y^T A~ Y, symmetrized exactly, and its norm.

    A~ Y and Y^T (A~ Y) are formed in the problem's node blocks where it has
    them and the reflections map Y and A~ onto themselves (NodeBlocks.stack),
    else in node coordinates.
    """
    y = pair.full_y()
    nodes = problem.node_blocks
    stacks = None if nodes is None else nodes.stack((y, pair.a_tilde))
    if stacks is None:
        nodes, stacks = None, (y, pair.a_tilde)
    y_parts, a_tilde = stacks
    ay = a_tilde @ y_parts
    a_ll = problem.a_ll if nodes is None else nodes.a_ll
    residual = a_ll - symmetrized(y_parts.swapaxes(-1, -2) @ ay)
    return ErrorReport(norm=float(np.linalg.norm(residual)), a_tilde=pair.a_tilde,
                       parts=(y_parts, a_tilde, ay, residual), nodes=nodes)


def objective_gradient(problem, report):
    """Gradient of the squared error norm in the free variables at a report's state.

    `report` is the state's residual_and_error; the gradient reads its Y,
    A~ Y and residual R = A_LL - Y^T A~ Y.  Returns (grad_y, grad_a).
    grad_y is (n_interior, n_local).  grad_a is the pattern's embed of the
    derivative with respect to each free value, -2 multiplicity P with
    P = sym(Y R Y^T) at its positions: an off-diagonal free value fills
    (i, j) and (j, i), so both carry its derivative.
    """
    y, residual = report.y, report.residual
    grad_y = -4.0 * (report.ay @ residual)[: problem.n_interior]

    pattern = problem.target_pattern
    p = symmetrized(y @ residual @ y.T)[pattern.index_arrays]
    return grad_y, pattern.embed((-2.0 * pattern.multiplicity) * p)


def interior_scaling(pair, d):
    """Gauge map (Y, A~) -> (D^-1 Y, D A~ D) for diagonal d over the interior."""
    d = np.asarray(d, dtype=float)
    if d.shape != (pair.n_interior,):
        raise ValueError("scale vector must have one entry per interior node")
    if np.any(d == 0.0):
        raise ValueError("scale factors must be nonzero")
    full = np.ones(pair.n_local)
    full[: pair.n_interior] = d
    return TransformPair(
        y_rows=pair.y_rows / d[:, None],
        a_tilde=pair.a_tilde * full[:, None] * full[None, :],
    )


@single_thread()
def condition_of_y(pair):
    """2-norm condition number of Y after fixing the gauge by row normalization."""
    norms = np.linalg.norm(pair.y_rows, axis=1)
    if np.any(norms == 0.0) or not np.all(np.isfinite(norms)):
        raise NumericalFailure("Y has a zero or non-finite interior row")
    fixed = interior_scaling(pair, norms)
    s = np.linalg.svd(fixed.full_y(), compute_uv=False)
    if s[-1] <= 0.0 or not np.all(np.isfinite(s)):
        raise NumericalFailure("row-normalized Y is singular")
    return float(s[0] / s[-1])
