import dataclasses
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsecoarsen.lattice import (
    LocalProblem,
    SparsityPattern,
    extract_local_scalar,
    extract_local_supernode,
    reflection_blocks,
)
from sparsecoarsen.linearized import (
    LINE_SEARCH_ABSCISSAE,
    NULL_REL_TOL,
    PIN_REL_TOL,
    RANK_TOL,
    MinimizeOptions,
    NormalSystem,
    SubspaceSplit,
    build_normal_system,
    compute_dy,
    fit_line_polynomial,
    gauge_pins,
    line_objective,
    line_search,
    linearized_minimize,
    linearized_residual,
    null_cut,
    solve_for_da,
    split_spaces,
    steepest_descent,
)
from sparsecoarsen import lattice, linearized, transform
from sparsecoarsen.analysis import spectrum_at
from sparsecoarsen.errors import NumericalFailure
from sparsecoarsen.transform import initial_guess, residual_and_error

from test_lattice import dense_blocks, dense_gauge_basis, node_reflections
from test_transform import random_state


def basis_matrix(i, j, n):
    """Symmetric unit basis element for one free pattern position."""
    b = np.zeros((n, n))
    b[i, j] = 1.0
    b[j, i] = 1.0
    return b


def materialized_system(problem, pair, split):
    """Independent assembly: stack the operator columns and form A^T A.

    Column k holds vec(Qn^T Y^T B_k Y Qn); the normal matrix and rhs follow
    from the explicit least-squares operator, with no shared intermediates
    beyond the subspace itself.
    """
    n = problem.n_local
    z = pair.full_y() @ split.q_null
    r = residual_and_error(problem, pair).residual
    cols = []
    for i, j in problem.target_pattern.positions():
        cols.append((z.T @ basis_matrix(i, j, n) @ z).ravel())
    op = np.array(cols).T
    target = (split.q_null.T @ r @ split.q_null).ravel()
    return op.T @ op, op.T @ target


def gap_null_count(s):
    """Null count of a descending spectrum at its largest drop.

    Splits at the largest consecutive ratio among the smaller half of the
    spectrum and needs a drop of at least 10.  Values below the noise floor
    of the normal-matrix assembly (n * eps * s[0]) are one indistinguishable
    plateau: ratios inside it are meaningless, so only cuts whose upper side
    clears the floor are candidates.  An independent check on the solver's
    relative cut, which it must agree with where the gauge null space is clean.
    """
    n = len(s)
    if n == 0:
        return 0
    if s[0] <= 0.0:
        return n
    floor = max(n, 16) * np.finfo(float).eps * s[0]
    best, cut = 0.0, n
    for i in range(n // 2, n - 1):
        if s[i] < floor:
            break  # everything from here down is noise
        ratio = s[i] / s[i + 1] if s[i + 1] > 0.0 else np.inf
        if ratio > best:
            best, cut = ratio, i + 1
    return n - cut if best >= 10.0 else 0


def direct_normal_system(problem, pair, split):
    """The direct assembly: four np.ix_ gathers, then a symmetrization pass."""
    z = pair.full_y() @ split.q_null
    g = z @ z.T
    g = 0.5 * (g + g.T)
    r = residual_and_error(problem, pair).residual
    t = split.q_null.T @ r @ split.q_null
    m = z @ t @ z.T
    m = 0.5 * (m + m.T)
    basis = problem.target_pattern.positions()
    i_idx = np.array([i for i, _ in basis])
    j_idx = np.array([j for _, j in basis])
    delta = np.where(i_idx == j_idx, 2.0, 1.0)
    gii = g[np.ix_(i_idx, i_idx)]
    gjj = g[np.ix_(j_idx, j_idx)]
    gij = g[np.ix_(i_idx, j_idx)]
    gji = g[np.ix_(j_idx, i_idx)]
    matrix = 2.0 / np.outer(delta, delta) * (gii * gjj + gij * gji)
    matrix = 0.5 * (matrix + matrix.T)
    rhs = (2.0 / delta) * m[i_idx, j_idx]
    return matrix, rhs


def outer_weighted_normal_system(problem, report, split):
    """The whole-matrix assembly: P x P gathers, then one np.outer weighting.

    The row-blocked assembly must reproduce it bit for bit.
    """
    z = report.y @ split.q_null
    g = z @ z.T
    g = 0.5 * (g + g.T)
    t = split.q_null.T @ report.residual @ split.q_null
    m = z @ t @ z.T
    m = 0.5 * (m + m.T)
    i_idx, j_idx = problem.target_pattern.index_arrays
    delta = np.where(i_idx == j_idx, 2.0, 1.0)
    g_ti = g.take(i_idx, axis=1)
    g_tj = g.take(j_idx, axis=1)
    matrix = g_ti.take(i_idx, axis=0)
    matrix *= g_tj.take(j_idx, axis=0)
    gij = g_tj.take(i_idx, axis=0)
    matrix += gij * gij.T
    matrix *= np.outer(2.0 / delta, 1.0 / delta)
    rhs = (2.0 / delta) * m[i_idx, j_idx]
    return matrix, rhs


def columns_first_blocks(problem, report, split, blocks, pins=None):
    """Each block's B^T N B, whole, from G's columns at every orbit member, then its rows.

    The columns-first order, which the identity block keeps; the rows-first
    gathers of the orbit blocks must reproduce its bits.
    """
    z = report.y @ split.q_null
    g = z @ z.T
    g = 0.5 * (g + g.T)
    i_idx, j_idx = problem.target_pattern.index_arrays
    multiplicity = problem.target_pattern.multiplicity
    if pins is not None:
        i_idx, j_idx, multiplicity = i_idx[pins.free], j_idx[pins.free], multiplicity[pins.free]
    out = []
    for block in blocks:
        rows, cols = block.members[:, 0], block.members.ravel()
        g_ti, g_tj = g[:, i_idx[cols]], g[:, j_idx[cols]]
        terms = g_ti[i_idx[rows]] * g_tj[j_idx[rows]]
        terms += g_tj[i_idx[rows]] * g_ti[j_idx[rows]]
        terms *= (multiplicity[rows] * block.norms)[:, None]
        terms *= 0.5 * multiplicity[cols] * block.weights.ravel()
        out.append(terms.reshape(len(rows), len(block), -1).sum(axis=2))
    return out


def direct_solve(matrix, rhs, positions, n_local):
    """The direct solve: svd(hermitian=True), a truncated solve, a loop embed.

    Singular values below 1e-8 * s[0] are null.  Returns dA and the
    SolveDiagnostics fields in declaration order.
    """
    u, s, vt = np.linalg.svd(matrix, hermitian=True)
    null_dim = int(np.sum(s < 1e-8 * s[0]))
    retained = len(s) - null_dim
    rhs_norm = float(np.linalg.norm(rhs))
    if retained == 0:
        coeffs = np.zeros(len(s))
        cond, gap, rhs_null = np.nan, (1.0 if null_dim else 0.0), rhs_norm
    else:
        proj = u[:, :retained].T @ rhs
        coeffs = vt[:retained].T @ (proj / s[:retained])
        cond = float(s[0] / s[retained - 1])
        gap = float(s[retained] / s[retained - 1]) if null_dim else 0.0
        rhs_null = float(np.linalg.norm(u[:, retained:].T @ rhs))
    da = np.zeros((n_local, n_local))
    for v, (i, j) in zip(coeffs, positions):
        da[i, j] = v
        da[j, i] = v
    fields = (null_dim, gap, cond, float(np.sqrt(cond)), rhs_null, rhs_norm)
    return da, fields


def rotated_block_norms(problem, pair, split, dy, da):
    """Squared Frobenius norms of the three rotated blocks of the linearized residual.

    L = R - Y^T dA Y - K^T dY - dY^T K is formed from the pair directly.
    Returns (span/span, 2 * span/null, null/null); their sum equals the
    squared full linearized residual.
    """
    y = pair.full_y()
    k = (pair.a_tilde @ y)[: problem.n_interior]
    r = residual_and_error(problem, pair).residual
    l = r - y.T @ da @ y - k.T @ dy - dy.T @ k
    qq = split.q.T @ l @ split.q
    qn = split.q.T @ l @ split.q_null
    nn = split.q_null.T @ l @ split.q_null
    return (
        float(np.sum(qq**2)),
        2.0 * float(np.sum(qn**2)),
        float(np.sum(nn**2)),
    )


def direct_split(problem, report):
    """The node-coordinate split: one SVD of K, its rank at RANK_TOL of the largest value."""
    u, s, vt = np.linalg.svd(report.ay[: problem.n_interior], full_matrices=True)
    rank = int(np.sum(s > RANK_TOL * s[0]))
    return SubspaceSplit(q=vt[:rank].T.copy(), q_null=vt[rank:].T.copy(),
                         sigma=s[:rank].copy(), u=u[:, :rank].copy())


def direct_line_objective(problem, pair, report, dy, da):
    """The node-coordinate g(alpha): the whole residual along the step, formed in place."""
    n_i = problem.n_interior

    def g(alpha):
        y = report.y.copy()
        y[:n_i] += alpha * dy
        at = alpha * da
        at += pair.a_tilde
        s = y.T @ (at @ y)
        s = 0.5 * (s + s.T)
        np.subtract(problem.a_ll, s, out=s)
        s *= s
        return float(np.sum(s))

    return g


BYTE_IDENTITY_CASES = (
    [("scalar", m, None) for m in (1, 2, 3, 4)]
    + [("supernode", m, (2, 1)) for m in (1, 2, 3)]
)


# Supernode regions from m = 2 on, and scalar regions from m = 6 on, meet
# the known null-dimension miscount: the NULL_REL_TOL cut drops physical
# directions too, so it counts more than the gauge.
KNOWN_MISCOUNT = pytest.mark.filterwarnings(
    "ignore:detected null dimension:RuntimeWarning")


# (p, q, m) after a few steps, where the gauge stands clear of the physical
# spectrum.  Not (2,2): it has 8 more exact null directions than the gauge
# at m = 2.  Not (2,1) m = 4 or (3,1) m = 3: at lambda = 0 physical values
# reach 1e-16 of the largest there.
GAUGE_GATE_CASES = ([(1, 1, m) for m in (2, 3, 4, 5)]
                    + [(p, q, m) for p, q in ((2, 1), (1, 2)) for m in (2, 3)]
                    + [(3, 1, 2)])


@functools.lru_cache(maxsize=None)
def gauge_gate_state(p, q, m, lam):
    """(problem, pair) after 5 linearized steps, shared by the gauge gates: read only."""
    problem = extract_local_supernode(m, p, q, lam)
    return problem, linearized_minimize(problem, MinimizeOptions(max_iter=5))[0]


def diagonal_problem(a00):
    """A 2-node diagonal operator on a diagonal pattern: the initial guess is exact."""
    return LocalProblem(
        a_ll=np.diag([a00, 3.0]),
        n_interior=1,
        gauge_dim=1,
        decoupled=0,
        target_pattern=SparsityPattern(dim=2,
                                       entries=frozenset({(0, 0), (1, 1)})),
        coords=np.array([[0, 0], [1, 0]]),
        lam=0.0,
        node_ids=((0,), (1,)),
    )


def case_problem(kind, m, dims, lam=0.0):
    if kind == "scalar":
        return extract_local_scalar(m, lam)
    return extract_local_supernode(m, *dims, lam)


def case_state(problem, state, m):
    return initial_guess(problem) if state == "initial" else random_state(problem, seed=10 + m)


def reads_node_coordinates(problem, state):
    """Whether the split and g read case_state's state in node coordinates.

    Node blocks read the initial state of a scalar problem; a random one,
    which the reflections do not map onto itself, is read in node
    coordinates, as every state is where the problem has no node blocks.
    """
    return problem.node_blocks is None or state == "random"


@pytest.fixture
def active_blocks(monkeypatch):
    """The scalar problems a test makes have node blocks at every size."""
    monkeypatch.setattr(lattice, "BLOCKS_MIN_NODES", 0)


def linearized_phases(problem, pair, pins=None):
    """(report, split, system) at one state, formed as the linearized step forms them.

    The system is assembled with the given pins, and with none by default.
    """
    report = residual_and_error(problem, pair)
    split = split_spaces(problem, report)
    n = problem.target_pattern.n_entries if pins is None else len(pins.free)
    system = NormalSystem(n, problem.n_local)
    build_normal_system(problem, report, split, system, pins)
    return report, split, system


def full_system_step(problem, pair, report):
    """The linearized step with no pins, in a fresh system: the reference for unpinned states."""
    split = split_spaces(problem, report)
    system = NormalSystem(problem.target_pattern.n_entries, problem.n_local)
    build_normal_system(problem, report, split, system)
    da, solve = solve_for_da(system)
    return compute_dy(report, da, split), da, solve


class TestByteIdentity:
    """The step's shortcuts reproduce the direct formulas bit for bit.

    Near a stop, one flipped last bit can decide between stopping and
    running on to max_iter, so agreement to a tolerance is not enough.
    """

    @pytest.mark.parametrize("kind,m,dims", BYTE_IDENTITY_CASES)
    @pytest.mark.parametrize("state", ["initial", "random"])
    def test_assembly_and_solve_match_direct_formulas(self, kind, m, dims, state):
        problem = case_problem(kind, m, dims)
        pair = case_state(problem, state, m)
        _, split, system = linearized_phases(problem, pair)
        matrix, rhs = direct_normal_system(problem, pair, split)
        assert np.array_equal(system.matrix, matrix)
        assert np.array_equal(system.rhs, rhs)
        assert np.array_equal(system.matrix, system.matrix.T)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            da, diag = solve_for_da(system)
        ref_da, ref_fields = direct_solve(matrix, rhs,
                                          problem.target_pattern.positions(),
                                          problem.n_local)
        assert np.array_equal(da, ref_da)
        assert np.array_equal(np.array(dataclasses.astuple(diag), dtype=float),
                              np.array(ref_fields, dtype=float), equal_nan=True)

    @pytest.mark.parametrize("kind,m,dims", BYTE_IDENTITY_CASES)
    @pytest.mark.parametrize("state", ["initial", "random"])
    @pytest.mark.parametrize("active", [False, True], ids=["as_made", "active"])
    def test_report_holds_what_the_phases_formed(self, monkeypatch, kind, m, dims, state,
                                                 active):
        # The phases read Y, K and g(0) from the one report of a state; g(0)
        # comes with g, bit for bit.
        if active:
            monkeypatch.setattr(lattice, "BLOCKS_MIN_NODES", 0)
        problem = case_problem(kind, m, dims)
        pair = case_state(problem, state, m)
        report, split, system = linearized_phases(problem, pair)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            da, _ = solve_for_da(system)
        dy = compute_dy(report, da, split)
        assert np.array_equal(report.y, pair.full_y())
        assert np.array_equal(report.ay[: problem.n_interior],
                              (pair.a_tilde @ pair.full_y())[: problem.n_interior])
        g, g0 = line_objective(problem, pair, report, dy, da)
        assert g(0.0) == g0
        if reads_node_coordinates(problem, state):  # g(0) is sum(R**2) itself
            assert float(np.sum(report.residual**2)) == g0
        else:  # the node blocks' g(0) sums their squares, which are others
            assert g0 == pytest.approx(float(np.sum(report.residual**2)), rel=1e-13)

    @pytest.mark.parametrize("kind,m,dims,state,active", [
        (*case, state, active) for case in BYTE_IDENTITY_CASES
        for state in ("initial", "random") for active in (False, True)
        if not (active and case[0] == "scalar" and state == "initial")],
        ids=lambda x: {False: "as_made", True: "active"}.get(x) if isinstance(x, bool) else None)
    def test_node_coordinate_split_and_g_are_the_node_formulas(self, monkeypatch, kind, m,
                                                                dims, state, active):
        # Where the problem has no node blocks, and where the reflections
        # do not map the state onto itself, the split and g keep the
        # node-coordinate formulas' bits, and their layout.
        if active:
            monkeypatch.setattr(lattice, "BLOCKS_MIN_NODES", 0)
        problem = case_problem(kind, m, dims)
        assert reads_node_coordinates(problem, state)
        pair = case_state(problem, state, m)
        report, split, system = linearized_phases(problem, pair)
        want = direct_split(problem, report)
        for name in ("q", "q_null", "sigma", "u"):
            got, ref = getattr(split, name), getattr(want, name)
            assert np.array_equal(got, ref) and got.flags.c_contiguous == ref.flags.c_contiguous
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            da, _ = solve_for_da(system)
        dy = compute_dy(report, da, split)
        g, g0 = line_objective(problem, pair, report, dy, da)
        ref_g = direct_line_objective(problem, pair, report, dy, da)
        assert g0 == ref_g(0.0)
        for alpha in LINE_SEARCH_ABSCISSAE:
            assert g(alpha) == ref_g(alpha)


def two_step_line_search(problem, pair, dy, da):
    """The line search with g(0) evaluated at alpha = 0, twice."""
    g_of, _ = line_objective(problem, pair, residual_and_error(problem, pair), dy, da)
    vals = np.array([g_of(t) for t in LINE_SEARCH_ABSCISSAE])
    coeffs = np.linalg.solve(np.vander(LINE_SEARCH_ABSCISSAE, 7), vals)
    g0 = g_of(0.0)
    deriv = np.polyder(coeffs)
    roots = np.roots(deriv) if np.any(deriv != 0.0) else np.array([])
    best_alpha, best_g = 0.0, g0
    for root in roots:
        if abs(root.imag) > 1e-8 * max(1.0, abs(root.real)):
            continue
        alpha = float(root.real)
        if not (0.0 < alpha <= linearized.ALPHA_MAX):
            continue
        g = g_of(alpha)
        if np.isfinite(g) and g < best_g:
            best_alpha, best_g = alpha, g
    return best_alpha, float(np.sqrt(best_g))


class TestLineSearchReadsG0:
    @pytest.mark.parametrize("kind,m,dims", BYTE_IDENTITY_CASES)
    @pytest.mark.parametrize("state", ["initial", "random"])
    @pytest.mark.parametrize("active", [False, True], ids=["as_made", "active"])
    def test_g0_from_report_and_same_bits(self, monkeypatch, kind, m, dims, state, active):
        if active:
            monkeypatch.setattr(lattice, "BLOCKS_MIN_NODES", 0)
        problem = case_problem(kind, m, dims)
        pair = case_state(problem, state, m)
        report, split, system = linearized_phases(problem, pair)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            da, _ = solve_for_da(system)
        dy = compute_dy(report, da, split)
        expected = two_step_line_search(problem, pair, dy, da)

        at_zero, fitted_g0, evaluations = [], [], []
        original, fit = linearized.line_objective, linearized.fit_line_polynomial
        symmetrized = linearized.symmetrized  # once per evaluation of g, in either basis

        def counted(*args):
            g, g0 = original(*args)

            def wrapped(alpha):
                at_zero.append(alpha == 0.0)
                return g(alpha)

            return wrapped, g0

        def recorded_fit(g, g0):
            fitted_g0.append(g0)
            return fit(g, g0)

        def counted_symmetrized(x):
            evaluations.append(1)
            return symmetrized(x)

        monkeypatch.setattr(linearized, "line_objective", counted)
        monkeypatch.setattr(linearized, "fit_line_polynomial", recorded_fit)
        monkeypatch.setattr(linearized, "symmetrized", counted_symmetrized)
        got = line_search(problem, pair, report, dy, da)
        # The fit's g0 is g(0) bit for bit, and line_search never evaluates
        # g at 0.  Where g reads node coordinates g0 is read from the
        # report, and g is never evaluated at 0: in a problem without node
        # blocks, and for a state the reflections move.  Where g reads the
        # blocks, line_objective evaluates g(0) once.
        in_blocks = not reads_node_coordinates(problem, state)
        assert at_zero and not any(at_zero)
        assert len(evaluations) == len(at_zero) + in_blocks
        assert fitted_g0 == [original(problem, pair, report, dy, da)[0](0.0)]
        if reads_node_coordinates(problem, state):
            assert fitted_g0 == [float(np.sum(report.residual**2))]
        assert got == expected  # alpha and error, bit for bit


class TestSplitSpaces:
    def test_orthonormal_and_complete(self):
        problem = extract_local_scalar(2, 0.0)
        split = linearized_phases(problem, initial_guess(problem))[1]
        n = problem.n_local
        q, qn = split.q, split.q_null
        assert q.shape[1] + qn.shape[1] == n
        np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-12)
        np.testing.assert_allclose(qn.T @ qn, np.eye(qn.shape[1]), atol=1e-12)
        np.testing.assert_allclose(q.T @ qn, 0.0, atol=1e-12)

    def test_rank_equals_interior_at_start(self):
        for m in (1, 2, 3):
            problem = extract_local_scalar(m, 0.0)
            split = linearized_phases(problem, initial_guess(problem))[1]
            assert split.rank == problem.n_interior

    @KNOWN_MISCOUNT
    @pytest.mark.parametrize("lam", [0.0, 1.0, 3.5, 4.0])
    @pytest.mark.parametrize("m", [1, 2, 4, 6, 8])
    def test_block_split_is_the_svd_split(self, monkeypatch, active_blocks, m, lam):
        # At every state of a minimization, rank 0 included (lambda = 4,
        # m = 1, where the initial K is zero)
        problem = extract_local_scalar(m, lam)
        assert problem.node_blocks is not None
        for _, report in minimization_states(problem, monkeypatch):
            split, want = split_spaces(problem, report), direct_split(problem, report)
            assert split.rank == want.rank
            np.testing.assert_allclose(split.q_null @ split.q_null.T,
                                       want.q_null @ want.q_null.T, rtol=0.0, atol=1e-13)
            if want.rank:
                np.testing.assert_allclose(np.sort(split.sigma)[::-1], want.sigma,
                                           rtol=0.0, atol=1e-13 * want.sigma[0])
                np.testing.assert_allclose((split.u * split.sigma) @ split.q.T,
                                           report.ay[: problem.n_interior],
                                           rtol=0.0, atol=1e-13 * want.sigma[0])

    def test_zero_operator_has_rank_zero(self):
        # lam = 4 zeroes the diagonal, so the masked m=1 A~ vanishes entirely
        problem = extract_local_scalar(1, 4.0)
        pair = initial_guess(problem)
        assert np.all(pair.a_tilde == 0.0)
        split = linearized_phases(problem, pair)[1]
        assert split.rank == 0
        assert split.q_null.shape == (5, 5)


class TestNormalSystem:
    @pytest.mark.parametrize("m,lam", [(1, 0.0), (2, 0.0), (2, 3.5)])
    def test_matches_materialized_operator(self, m, lam):
        problem = extract_local_scalar(m, lam)
        for pair in (initial_guess(problem), random_state(problem, seed=m)):
            _, split, system = linearized_phases(problem, pair)
            ref_matrix, ref_rhs = materialized_system(problem, pair, split)
            scale = np.abs(ref_matrix).max()
            np.testing.assert_allclose(system.matrix, ref_matrix,
                                       atol=1e-12 * scale)
            np.testing.assert_allclose(system.rhs, ref_rhs,
                                       atol=1e-12 * max(scale, 1.0))

    def test_matches_materialized_operator_supernode(self):
        problem = extract_local_supernode(1, 2, 1, 0.0)
        pair = random_state(problem, seed=4)
        _, split, system = linearized_phases(problem, pair)
        ref_matrix, ref_rhs = materialized_system(problem, pair, split)
        scale = np.abs(ref_matrix).max()
        np.testing.assert_allclose(system.matrix, ref_matrix,
                                   atol=1e-12 * scale)
        np.testing.assert_allclose(system.rhs, ref_rhs,
                                   atol=1e-12 * max(scale, 1.0))

    def test_rhs_vanishes_at_initial_guess(self):
        # the residual lives entirely in the span part at the start, so the
        # projected least squares problem starts from a zero right-hand side
        for m in (1, 2, 3):
            problem = extract_local_scalar(m, 0.0)
            pair = initial_guess(problem)
            system = linearized_phases(problem, pair)[2]
            assert np.all(system.rhs == 0.0)

    @KNOWN_MISCOUNT
    @pytest.mark.parametrize("lam", [0.0, 2.0, 3.5])
    @pytest.mark.parametrize("p,q,m", GAUGE_GATE_CASES + [(2, 2, 2)])
    def test_gauge_directions_are_null(self, p, q, m, lam):
        # The gauge's block basis, lattice.gauge_basis (checked against
        # dA = D^T A~ + A~ D in test_lattice).  (2,2) is checked here, not in
        # the count gate: N has more null directions there than the gauge.
        problem, pair = gauge_gate_state(p, q, m, lam)
        system = linearized_phases(problem, pair)[2]
        basis = dense_gauge_basis(problem, pair.a_tilde)
        assert np.linalg.matrix_rank(basis) == problem.gauge_dim
        scale = np.linalg.norm(basis)
        assert np.linalg.norm(system.matrix @ basis) <= \
            1e-12 * np.linalg.norm(system.matrix, 2) * scale
        assert np.abs(system.rhs @ basis).max() <= \
            1e-12 * max(np.linalg.norm(system.rhs), 1.0) * scale

    def test_empty_pattern_rejected(self):
        problem = LocalProblem(
            a_ll=np.eye(2),
            n_interior=1,
            gauge_dim=1,
            decoupled=0,
            target_pattern=SparsityPattern(dim=2, entries=frozenset()),
            coords=np.array([[0, 0], [1, 0]]),
            lam=0.0,
            node_ids=((0,), (1,)),
            )
        pair = initial_guess(problem)
        with pytest.raises(ValueError):
            linearized_phases(problem, pair)


ASSEMBLY_CASES = (
    [("scalar", m, None) for m in range(1, 9)]
    + [("supernode", m, (2, 1)) for m in (1, 2, 3, 4)]
    + [("supernode", 2, (1, 2)), ("supernode", 2, (2, 2))]
)


class TestBlockedAssembly:
    @pytest.mark.parametrize("kind,m,dims", ASSEMBLY_CASES)
    @pytest.mark.parametrize("state", ["initial", "random"])
    def test_matches_outer_weighted_assembly(self, kind, m, dims, state):
        problem = case_problem(kind, m, dims)
        pair = case_state(problem, state, m)
        report, split, system = linearized_phases(problem, pair)
        matrix, rhs = outer_weighted_normal_system(problem, report, split)
        assert np.array_equal(system.matrix, matrix)
        assert np.array_equal(system.rhs, rhs)

    @pytest.mark.parametrize("m", [2, 4, 7])
    @pytest.mark.parametrize("pinned", [False, True])
    def test_reflection_blocks_match_the_columns_first_assembly(self, m, pinned):
        problem = extract_local_scalar(m, 0.0)
        pair = random_state(problem, seed=m)
        report = residual_and_error(problem, pair)
        split = split_spaces(problem, report)
        pins = gauge_pins(problem, pair.a_tilde) if pinned else None
        blocks = reflection_blocks(problem, None if pins is None else pins.free)
        assert len(blocks) == 4 and (pins is None) != pinned
        system = NormalSystem(sum(map(len, blocks)), problem.n_local, blocks)
        build_normal_system(problem, report, split, system, pins)
        want = columns_first_blocks(problem, report, split, blocks, pins)
        for got, ref in zip([system.matrix] + system.others, want, strict=True):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("kind,m,dims", [("supernode", 4, (2, 1)),
                                             ("scalar", 8, None)])
    def test_holds_under_one_pattern_squared_array(self, kind, m, dims):
        # The matrix and G's gathers are the system's, made before the
        # trace starts; what the assembly makes is G, M and row blocks.
        problem = case_problem(kind, m, dims)
        pair = random_state(problem, seed=m)
        report = residual_and_error(problem, pair)
        split = split_spaces(problem, report)
        n_pattern = problem.target_pattern.n_entries
        system = NormalSystem(n_pattern)
        tracemalloc.start()
        try:
            build_normal_system(problem, report, split, system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n_pattern**2


def unit_cut(s, rhs=None):
    """null_cut of the descending spectrum s on unit vectors, with a zero rhs by default."""
    s = np.asarray(s, dtype=float)
    return null_cut(np.eye(len(s)), s, np.zeros(len(s)) if rhs is None else np.asarray(rhs))


# Spectra over many decades, with exact zeros and either sign.
SPECTRA = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.floats(-30.0, 3.0).map(lambda e: 10.0**e)),
              st.sampled_from([1.0, -1.0])).map(lambda vs: vs[0] * vs[1]),
    min_size=1, max_size=12)


class TestNullCount:
    def test_threshold_counts_below_relative_cut(self):
        s = [1.0, 1e-3, 1e-9, 1e-14, 1e-16]
        assert unit_cut(s).null_dim == 3
        # the cut is strict: a value exactly at NULL_REL_TOL * s[0] is kept
        assert unit_cut([2.0, 2.0 * NULL_REL_TOL]).null_dim == 0

    def test_zero_and_empty_spectra(self):
        zero = unit_cut(np.zeros(3))
        assert (zero.null_dim, zero.gap_ratio) == (3, 1.0)
        assert math.isnan(zero.cond_retained) and math.isnan(zero.cond_eq7_estimate)
        empty = unit_cut(np.zeros(0))
        assert (empty.null_dim, empty.gap_ratio) == (0, 0.0)

    def test_rhs_norms_split_at_the_cut(self):
        # on unit vectors the null component is rhs[2:]
        diag = unit_cut([1.0, 0.5, 1e-12, 0.0], rhs=[3.0, 0.0, 4.0, 12.0])
        assert diag.null_dim == 2
        assert diag.rhs_norm == 13.0
        assert diag.rhs_null_component == pytest.approx(math.sqrt(160.0), rel=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(SPECTRA)
    def test_cut_reads_the_given_spectrum(self, values):
        # the eigenpairs of diag(values), sorted by descending |w| as eigh() sorts them
        s = -np.sort(-np.abs(values))
        diag = unit_cut(s)
        n = len(values)
        retained = int(np.sum(s >= NULL_REL_TOL * s[0])) if s[0] > 0.0 else 0
        assert diag.null_dim + retained == n
        if retained:
            assert diag.cond_retained == s[0] / s[retained - 1]
            assert diag.cond_eq7_estimate**2 == pytest.approx(diag.cond_retained,
                                                              rel=1e-15)
        else:
            assert math.isnan(diag.cond_retained)
        if diag.null_dim and retained:
            assert diag.gap_ratio < 1.0
        elif diag.null_dim:
            assert diag.gap_ratio == 1.0  # everything is null
        else:
            assert diag.gap_ratio == 0.0

    def test_cut_reads_every_blocks_spectrum(self):
        # merged: 8, 4, 2, 3e-8, 1e-9, cut at 8e-8; rhs is the solved
        # block's, whose null direction is its second
        diag = null_cut(np.eye(2), np.array([4.0, 1e-9]), np.array([3.0, 4.0]), pinned=1,
                        rest=np.array([8.0, 3e-8, 2.0]))
        assert diag == linearized.SolveDiagnostics(
            null_dim=3, gap_ratio=1.5e-8, cond_retained=4.0, cond_eq7_estimate=2.0,
            rhs_null_component=4.0, rhs_norm=5.0)

    @settings(max_examples=100, deadline=None)
    @given(SPECTRA, SPECTRA)
    def test_split_spectrum_cuts_as_its_merge(self, values, rest):
        # the counts and condition numbers do not see where the blocks split
        s = -np.sort(-np.abs(values))
        whole = unit_cut(np.sort(np.abs(values + rest))[::-1])
        split = null_cut(np.eye(len(s)), s, np.zeros(len(s)), rest=np.abs(rest))
        assert (split.null_dim, split.gap_ratio) == (whole.null_dim, whole.gap_ratio)
        assert np.array_equal([split.cond_retained], [whole.cond_retained], equal_nan=True)

    def test_gap_picks_largest_lower_half_drop(self):
        s = np.array([1.0, 0.5, 0.2, 0.1, 1e-12, 3e-13])
        assert gap_null_count(s) == 2

    def test_gap_requires_a_real_drop(self):
        s = np.array([1.0, 0.8, 0.6, 0.4, 0.3, 0.2])
        assert gap_null_count(s) == 0

    def test_gap_ignores_ratios_inside_noise_plateau(self):
        # junk below the assembly noise floor can contain huge internal
        # ratios; the cut must still land at the physical boundary above it
        s = np.array([1.0, 0.5, 0.2, 0.1, 1e-16, 1e-40])
        assert gap_null_count(s) == 2


class TestGaugeCount:
    @KNOWN_MISCOUNT
    @pytest.mark.parametrize("lam", [0.0, 2.0, 3.5])
    @pytest.mark.parametrize("p,q,m", GAUGE_GATE_CASES)
    def test_normal_matrix_null_space_is_the_gauge(self, p, q, m, lam):
        # Exactly gauge_dim values under a 1e-13 relative cut, and a drop of
        # at least 1e3 to them from the next one (4.9e3 at the least here).
        problem, pair = gauge_gate_state(p, q, m, lam)
        _, split, system = linearized_phases(problem, pair)
        assert split.rank == problem.n_interior  # where expected_null is set
        assert system.expected_null == problem.gauge_dim
        s = system.eigh()[1]
        retained = len(s) - problem.gauge_dim
        assert int(np.sum(s < 1e-13 * s[0])) == problem.gauge_dim
        assert s[retained - 1] >= 1e3 * s[retained]


class TestSolveForDa:
    def test_detects_gauge_null_space(self):
        problem = extract_local_scalar(2, 0.0)
        pair = initial_guess(problem)
        system = linearized_phases(problem, pair)[2]
        da, diag = solve_for_da(system)
        assert diag.null_dim == problem.n_interior
        assert diag.cond_eq7_estimate == \
            pytest.approx(math.sqrt(diag.cond_retained))
        assert np.all(da == 0.0)  # zero rhs at the start

    def test_da_symmetric_and_patterned(self):
        problem = extract_local_scalar(2, 3.5)
        pair = random_state(problem, seed=6)
        system = linearized_phases(problem, pair)[2]
        da, _ = solve_for_da(system)
        assert np.array_equal(da, da.T)
        assert np.all(da[~problem.target_pattern.mask()] == 0.0)

    def test_warns_on_miscounted_null(self):
        problem = extract_local_scalar(2, 0.0)
        pair = initial_guess(problem)
        system = linearized_phases(problem, pair)[2]
        assert system.expected_null == problem.gauge_dim
        system.expected_null = problem.gauge_dim + 1
        with pytest.warns(RuntimeWarning, match="detected null dimension"):
            solve_for_da(system)

    def test_returns_the_null_cut_of_the_systems_eigenpairs(self):
        problem = extract_local_scalar(2, 0.0)
        pair = random_state(problem, seed=5)
        system, twin = (linearized_phases(problem, pair)[2] for _ in range(2))
        _, diag = solve_for_da(system)
        u, s, _ = twin.eigh()
        assert diag == null_cut(u, s, twin.rhs)

    def test_everything_truncated_gives_zero(self):
        problem = extract_local_scalar(1, 0.0)
        pair = random_state(problem, seed=1)
        system = linearized_phases(problem, pair)[2]
        system.matrix[...] = 0.0  # before eigh(), which solves what matrix holds
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            da, diag = solve_for_da(system)
        assert np.all(da == 0.0)
        assert diag.null_dim == len(system.rhs)
        assert math.isnan(diag.cond_retained)
        assert diag.rhs_null_component == diag.rhs_norm


def sorted_eigh(matrix):
    """np.linalg.eigh, sorted by descending |w| as NormalSystem.eigh sorts it."""
    w, v = np.linalg.eigh(matrix)
    s = np.abs(w)
    order = np.argsort(s)[::-1]
    return v.take(order, axis=1), s[order], np.copysign(1.0, w)[order]


def matrix_system(matrix, rhs=None):
    """A fresh NormalSystem holding this matrix, with a zero rhs by default."""
    n = len(matrix)
    system = NormalSystem(n)
    system.matrix[...] = matrix
    system.rhs = np.zeros(n) if rhs is None else np.asarray(rhs, dtype=float)
    system.pattern = SparsityPattern.from_pairs(n, [(k, k) for k in range(n)])
    return system


def assert_eig_equal(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(a, b)
    assert got[0].flags.c_contiguous  # products read the vectors C-ordered


NORMAL_SYSTEM_CASES = [("scalar", 4, None), ("scalar", 7, None), ("supernode", 4, (2, 1))]


class TestInPlaceEigensolve:
    """eigh() through the dsyevd binding gives np.linalg.eigh's bits, in place."""

    @pytest.fixture(params=["binding", "numpy"])
    def binding(self, request, monkeypatch):
        if request.param == "numpy":
            monkeypatch.setattr(linearized, "find_dsyevd", lambda: None)
        elif linearized.find_dsyevd() is None:
            pytest.skip("numpy's OpenBLAS exports no LAPACKE dsyevd here")
        return request.param

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 64, 65, 200])
    def test_random_symmetric(self, binding, n):
        x = np.random.default_rng(n).standard_normal((n, n))
        matrix = x + x.T
        assert_eig_equal(matrix_system(matrix).eigh(), sorted_eigh(matrix))

    @pytest.mark.parametrize("kind,m,dims", NORMAL_SYSTEM_CASES)
    @pytest.mark.parametrize("lam", [0.0, 2.0, 4.0])
    def test_normal_systems(self, binding, kind, m, dims, lam):
        problem = case_problem(kind, m, dims, lam)
        report = residual_and_error(problem, random_state(problem, seed=m))
        split = split_spaces(problem, report)
        system = NormalSystem(problem.target_pattern.n_entries)
        build_normal_system(problem, report, split, system)
        want = sorted_eigh(system.matrix)  # before eigh(), which overwrites matrix
        got = system.eigh()
        assert_eig_equal(got, want)
        assert got[0] is system.matrix  # the sorted vectors are left in matrix

    @pytest.mark.parametrize("kind,m,dims", NORMAL_SYSTEM_CASES)
    def test_same_eigenpairs_on_both_paths(self, monkeypatch, kind, m, dims):
        if linearized.find_dsyevd() is None:
            pytest.skip("numpy's OpenBLAS exports no LAPACKE dsyevd here")
        problem = case_problem(kind, m, dims, 2.0)
        pair = random_state(problem, seed=m)
        bound = linearized_phases(problem, pair)[2]
        monkeypatch.setattr(linearized, "find_dsyevd", lambda: None)
        fallback = linearized_phases(problem, pair)[2]
        assert np.array_equal(bound.matrix, fallback.matrix)
        got, want = bound.eigh(), fallback.eigh()
        assert_eig_equal(got, want)
        assert got[0] is bound.matrix and want[0] is fallback.matrix

    def test_eigh_sorts_in_place(self, binding):
        n = 200
        x = np.random.default_rng(1).standard_normal((n, n))
        system = matrix_system(x + x.T)
        tracemalloc.start()
        try:
            u = system.eigh()[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if binding == "binding":
            assert peak < 8 * n * n / 2  # the gather goes into work, not a copy
        assert u is system.matrix

    def test_work_array_has_lapacks_minimum(self, binding):
        for n in (0, 1, 2, 7, 64):
            system = NormalSystem(n)
            assert len(system.work) >= (1 if n <= 1 else 1 + 6 * n + 2 * n * n)
            assert len(system.work) >= n * n  # the sort's gather fits in it

    def test_assembly_gathers_g_into_the_work_array(self, binding):
        problem = extract_local_scalar(8, 0.0)
        report = residual_and_error(problem, random_state(problem, seed=8))
        split = split_spaces(problem, report)
        n_pattern = problem.target_pattern.n_entries
        system = NormalSystem(n_pattern)
        system.work[...] = np.nan  # the gathers, then dsyevd and the sort, overwrite it
        tracemalloc.start()
        try:
            build_normal_system(problem, report, split, system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 * problem.n_local * n_pattern  # less than the gathers alone
        fresh = NormalSystem(n_pattern)
        build_normal_system(problem, report, split, fresh)
        assert np.array_equal(system.matrix, fresh.matrix)

    @pytest.mark.parametrize("kind,m,dims", [("scalar", 4, None), ("supernode", 2, (2, 1))])
    def test_reused_system_solves_as_a_fresh_one(self, binding, kind, m, dims):
        # A minimization assembles every step into one system, over the
        # last step's eigenvectors in matrix and its gathers and sort in
        # work; none of it may leak in.
        problem = case_problem(kind, m, dims)
        n_pattern = problem.target_pattern.n_entries
        states = [residual_and_error(problem, random_state(problem, seed=seed))
                  for seed in (m, m + 1)]
        splits = [split_spaces(problem, report) for report in states]
        reused, fresh = NormalSystem(n_pattern), NormalSystem(n_pattern)
        build_normal_system(problem, states[0], splits[0], reused)
        first = null_cut(*reused.eigh()[:2], reused.rhs)  # solved in place, as a step solves it
        build_normal_system(problem, states[1], splits[1], reused)
        build_normal_system(problem, states[1], splits[1], fresh)
        assert np.array_equal(reused.matrix, fresh.matrix)
        assert np.array_equal(reused.rhs, fresh.rhs)
        got, want = reused.eigh(), fresh.eigh()
        assert_eig_equal(got, want)
        assert null_cut(*got[:2], reused.rhs) == null_cut(*want[:2], fresh.rhs) != first

    @KNOWN_MISCOUNT
    def test_minimization_same_on_both_paths(self, monkeypatch):
        if linearized.find_dsyevd() is None:
            pytest.skip("numpy's OpenBLAS exports no LAPACKE dsyevd here")
        problems = [extract_local_scalar(4, 0.0), extract_local_supernode(2, 2, 1, 2.0)]
        bound = [linearized_minimize(problem) for problem in problems]
        monkeypatch.setattr(linearized, "find_dsyevd", lambda: None)
        for problem, (pair, trace, _) in zip(problems, bound):
            pair_np, trace_np, _ = linearized_minimize(problem)
            assert trace_np.iterations == trace.iterations
            assert np.array_equal(pair_np.y_rows, pair.y_rows)
            assert np.array_equal(pair_np.a_tilde, pair.a_tilde)

    def test_block_work_array_holds_the_rows_first_gathers(self, binding):
        # G's rows at the least members of the widest block, 2 n_local n0
        # doubles, where the columns at every orbit member took 4 times that
        problem = extract_local_scalar(10, 0.0)
        pins = gauge_pins(problem, initial_guess(problem).a_tilde)
        blocks = reflection_blocks(problem, pins.free)
        system = NormalSystem(len(pins.free), problem.n_local, blocks)
        n0 = len(blocks[0])
        assert n0 == max(map(len, blocks)) and blocks[0].members.size == 4 * n0
        assert len(system.work) == 2 * problem.n_local * n0 > 1 + 6 * n0 + 2 * n0**2

    def test_work_array_too_small_for_the_gathers_rejected(self):
        problem = extract_local_scalar(2, 0.0)
        report = residual_and_error(problem, initial_guess(problem))
        split = split_spaces(problem, report)
        system = NormalSystem(problem.target_pattern.n_entries)
        system.work = system.work[: 2 * problem.n_local * problem.target_pattern.n_entries - 1]
        with pytest.raises(ValueError, match="gathers"):
            build_normal_system(problem, report, split, system)

    def test_wrong_system_size_rejected(self):
        problem = extract_local_scalar(2, 0.0)
        report = residual_and_error(problem, initial_guess(problem))
        split = split_spaces(problem, report)
        system = NormalSystem(problem.target_pattern.n_entries + 1)
        with pytest.raises(ValueError, match="pattern entries"):
            build_normal_system(problem, report, split, system)


class TestOneNormalSystemPerMinimization:
    @pytest.fixture
    def constructions(self, monkeypatch):
        made = []

        class Spy(NormalSystem):
            def __init__(self, n, *args):
                made.append(n)
                super().__init__(n, *args)

        monkeypatch.setattr(linearized, "NormalSystem", Spy)
        return made

    def test_linearized_minimize_makes_one(self, constructions):
        # sized for the free values left when every interior diagonal is pinned
        problem = extract_local_scalar(4, 0.0)
        trace = linearized_minimize(problem)[1]
        assert trace.n_steps >= 3
        assert constructions == [problem.target_pattern.n_entries - problem.n_interior]

    def test_a_new_one_when_the_unpinned_count_changes(self, constructions, monkeypatch):
        pinning = linearized.gauge_pins
        calls = []

        def every_other_state(problem, a_tilde):
            calls.append(a_tilde)
            return pinning(problem, a_tilde) if len(calls) % 2 else None

        monkeypatch.setattr(linearized, "gauge_pins", every_other_state)
        problem = extract_local_scalar(3, 0.0)
        trace = linearized_minimize(problem, MinimizeOptions(max_iter=3))[1]
        n = problem.target_pattern.n_entries
        assert len(calls) == len(trace.iterations) == 4
        assert constructions == [n - problem.n_interior, n] * 2

    @KNOWN_MISCOUNT
    @pytest.mark.parametrize("kind,m,dims,lam,count", [
        ("scalar", 3, None, 0.0, 4), ("scalar", 3, None, 4.0, 4),
        ("supernode", 1, (2, 1), 0.0, 1), ("supernode", 3, (2, 1), 0.0, 1)])
    def test_scalar_systems_have_four_blocks_and_supernodes_one(self, monkeypatch, kind,
                                                                 m, dims, lam, count):
        made = []

        class Spy(NormalSystem):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(len(self.blocks))

        monkeypatch.setattr(linearized, "NormalSystem", Spy)
        linearized_minimize(case_problem(kind, m, dims, lam), MinimizeOptions(max_iter=3))
        assert made and set(made) == {count}

    def test_steepest_descent_makes_none(self, constructions):
        trace = steepest_descent(extract_local_scalar(2, 0.0), MinimizeOptions(max_iter=5))[1]
        assert trace.n_steps == 5
        assert constructions == []


class TestGaugePins:
    def test_pins_the_large_interior_diagonals_alone(self):
        # the test is strict: a diagonal at exactly PIN_REL_TOL max |A~| stays free
        problem = extract_local_scalar(3, 0.0)
        pattern = problem.target_pattern
        rows, cols = pattern.index_arrays
        a = pattern.embed(np.ones(pattern.n_entries))
        a[1, 1] = PIN_REL_TOL
        a[2, 2] = -2.0 * PIN_REL_TOL
        pins = gauge_pins(problem, a)
        interior = np.flatnonzero((rows == cols) & (rows < problem.n_interior))
        np.testing.assert_array_equal(pins.pinned, interior[rows[interior] != 1])
        np.testing.assert_array_equal(pins.free, np.setdiff1d(np.arange(len(rows)), pins.pinned))
        assert pins.gauge_dim == problem.gauge_dim

    def test_all_zero_a_tilde_pins_nothing(self):
        # scalar m=1 at lambda=4: the masked A~ vanishes, so no pin is
        # taken and the first record is the unpinned spectrum's reading
        problem = extract_local_scalar(1, 4.0)
        pair = initial_guess(problem)
        assert np.all(pair.a_tilde == 0.0)
        assert gauge_pins(problem, pair.a_tilde) is None
        trace = linearized_minimize(problem)[1]
        assert trace.iterations[0].solve == spectrum_at(problem, pair)[1]

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("lam", [0.0, 2.0, 3.5, 4.0])
    def test_no_pin_where_the_gauge_is_not_the_diagonals(self, m, lam):
        # (2,1) from m = 2 on has 2 n_I - 2 gauge directions, most of them
        # off the diagonal: pinning diagonals alone does not fix it
        problem = extract_local_supernode(m, 2, 1, lam)
        assert problem.gauge_dim != problem.n_interior
        for pair in (initial_guess(problem), random_state(problem, seed=m)):
            assert gauge_pins(problem, pair.a_tilde) is None

    def test_two_node_supernodes_pin_at_m1(self):
        problem = extract_local_supernode(1, 2, 1, 0.0)
        assert problem.gauge_dim == problem.n_interior == 2
        assert len(gauge_pins(problem, initial_guess(problem).a_tilde).pinned) == 2

    def test_unpin_zeroes_the_pins_then_projects_off_the_gauge(self):
        problem = extract_local_scalar(3, 1.0)
        pair = random_state(problem, seed=7)
        pins = gauge_pins(problem, pair.a_tilde)
        coeffs = np.random.default_rng(7).standard_normal(len(pins.free))
        start = np.zeros(problem.target_pattern.n_entries)
        start[pins.free] = coeffs
        basis = dense_gauge_basis(problem, pair.a_tilde)
        want = start - basis @ np.linalg.lstsq(basis, start, rcond=None)[0]
        np.testing.assert_allclose(pins.unpin(coeffs), want, rtol=0.0,
                                   atol=1e-13 * np.linalg.norm(start))

    @pytest.mark.parametrize("steps", [0, 2])
    @pytest.mark.parametrize("lam", [0.0, 1.0, 2.0, 3.5])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_pinned_step_is_the_min_norm_step(self, m, lam, steps):
        # Where the cut drops the gauge alone, the pinned solve projected off
        # the gauge is the full system's min-norm solve.  Each carries the
        # normal equations' rounding, about cond(N) eps of dA: at m=5,
        # lambda=0 both are 3e-9 from a least-squares solve of the operator.
        problem = extract_local_scalar(m, lam)
        pair = linearized_minimize(problem, MinimizeOptions(max_iter=steps))[0]
        pins = gauge_pins(problem, pair.a_tilde)
        assert len(pins.pinned) == problem.n_interior
        da_full, full = solve_for_da(linearized_phases(problem, pair)[2])
        da, pinned = solve_for_da(linearized_phases(problem, pair, pins)[2])
        assert pinned.null_dim == full.null_dim == problem.gauge_dim
        tol = max(1e-9, full.cond_retained * np.finfo(float).eps)
        assert np.linalg.norm(da - da_full) <= tol * np.linalg.norm(da_full)

    @KNOWN_MISCOUNT
    @pytest.mark.parametrize("kind,m,dims,lam",
                             [("scalar", 3, None, 4.0), ("scalar", 5, None, 4.0)]
                             + [("supernode", m, (2, 1), lam) for m in (3, 4) for lam in (0.0, 4.0)])
    def test_unpinned_minimization_is_the_full_system_one(self, monkeypatch, kind, m, dims, lam):
        # (2,1) regions solve in the one identity block: bit for bit, since
        # these rows' stops hang on last bits (item 2's saddles).  Scalar
        # regions solve in four reflection blocks, which cannot keep the
        # full system's bits: at each state the step is the full system's
        # dense min-norm solve, to the bound of
        # test_pinned_step_is_the_min_norm_step, and its record reads the
        # merged spectrum with the same null count.
        problem = case_problem(kind, m, dims, lam)
        pinning, taken, reports = linearized.gauge_pins, [], []
        evaluate = linearized.residual_and_error

        def spy(problem, a_tilde):
            taken.append(pinning(problem, a_tilde))
            return taken[-1]

        monkeypatch.setattr(linearized, "gauge_pins", spy)
        monkeypatch.setattr(linearized, "residual_and_error",
                            lambda *args: reports.append(evaluate(*args)) or reports[-1])
        pair, trace, _ = linearized_minimize(problem)
        assert len(taken) == len(reports) == len(trace.iterations) and not any(taken)
        if kind == "supernode":
            ref_pair, ref_trace = linearized._descend(problem, full_system_step, MinimizeOptions())
            assert trace.iterations == ref_trace.iterations
            assert trace.stop_reason == ref_trace.stop_reason
            assert np.array_equal(pair.y_rows, ref_pair.y_rows)
            assert np.array_equal(pair.a_tilde, ref_pair.a_tilde)
            return
        assert trace.n_steps >= 3
        n = problem.target_pattern.n_entries
        for report, rec in zip(reports, trace.iterations):
            split = split_spaces(problem, report)
            full = NormalSystem(n, problem.n_local)
            blocked = NormalSystem(n, problem.n_local, reflection_blocks(problem))
            assert len(blocked.blocks) == 4
            build_normal_system(problem, report, split, full)
            build_normal_system(problem, report, split, blocked)
            da_full, full_diag = solve_for_da(full)
            da, diag = solve_for_da(blocked)
            assert diag == rec.solve
            assert diag.null_dim == full_diag.null_dim
            tol = max(1e-9, full_diag.cond_retained * np.finfo(float).eps)
            assert np.linalg.norm(da - da_full) <= tol * np.linalg.norm(da_full)


def minimization_states(problem, monkeypatch):
    """(A~, report) of every state a linearized minimization visits, in order."""
    states, evaluate = [], linearized.residual_and_error

    def recorded(problem, pair):
        states.append((pair.a_tilde.copy(), evaluate(problem, pair)))
        return states[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(linearized, "residual_and_error", recorded)
        linearized_minimize(problem)
    return states


def symmetry_defect(problem, a_tilde, y):
    """The largest relative ||P X P^T - X||_F over the reflections P, for X = A~ and Y."""
    return max(np.linalg.norm(x[np.ix_(perm, perm)] - x) / np.linalg.norm(x)
               for perm in node_reflections(problem)[1:] for x in (a_tilde, y))


def block_slices(sizes):
    """The consecutive slices of blocks of these sizes."""
    ends = np.cumsum([0] + list(sizes))
    return [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]


class TestReflectionPremise:
    """The block phases' premise, along scalar minimizations.

    The reflections about the decoupled node map the region and the pattern
    onto themselves (test_lattice) and every state stays
    reflection-invariant.  So K, Y, A~ and A_LL are block diagonal in the
    node blocks (LocalProblem.node_blocks), which the split and the line
    search read, and N commutes with the reflections: it is block diagonal
    in reflection_blocks' orthonormal basis, and the assembled blocks are
    its diagonal blocks.
    """

    @KNOWN_MISCOUNT
    @pytest.mark.parametrize("lam", [0.0, 1.0, 3.5, 4.0])
    @pytest.mark.parametrize("m", range(2, 9))
    def test_states_are_symmetric_and_n_is_block_diagonal(self, monkeypatch, m, lam):
        problem = extract_local_scalar(m, lam)
        images = problem.reflection_images
        assert images is not None
        bases = {}
        states = minimization_states(problem, monkeypatch)
        # the node blocks at every size, as regions of BLOCKS_MIN_NODES have them
        nodes = lattice.NodeBlocks(problem.node_reflections, problem.n_interior, problem.a_ll,
                                   problem.reflection_invariant)
        assert len(nodes.blocks) == 4
        node_basis = dense_blocks(nodes.blocks, problem.n_local)
        interior = np.column_stack([b[: problem.n_interior, :k]
                                    for b, k in zip(node_basis, nodes.interior)])
        node_basis = np.column_stack(node_basis)
        sizes = [len(b) for b in nodes.blocks]
        for a_tilde, report in states:
            assert symmetry_defect(problem, a_tilde, report.y) <= 1e-10
            # K, Y, A~ and A_LL are block diagonal in the node blocks
            for x, rows, left in ((report.ay[: problem.n_interior], nodes.interior, interior),
                                  (report.y, sizes, node_basis), (a_tilde, sizes, node_basis),
                                  (problem.a_ll, sizes, node_basis)):
                rotated = left.T @ x @ node_basis
                for r, c in zip(block_slices(rows), block_slices(sizes)):
                    rotated[r, c] = 0.0
                assert np.abs(rotated).max() <= 1e-15 * np.linalg.norm(x)
        # N's blocks at every third state and the last, pinned and unpinned
        for a_tilde, report in states[::3] + states[-1:]:
            split = split_spaces(problem, report)
            pins = gauge_pins(problem, a_tilde)
            for free in [None] + ([] if pins is None else [pins.free]):
                n = len(images[0]) if free is None else len(free)
                key = None if free is None else free.tobytes()
                if key not in bases:
                    blocks = reflection_blocks(problem, free)
                    assert len(blocks) == 4
                    bases[key] = blocks, np.column_stack(dense_blocks(blocks, n))
                blocks, basis = bases[key]
                used = None if free is None else pins
                full = NormalSystem(n, problem.n_local)
                build_normal_system(problem, report, split, full, used)
                blocked = NormalSystem(n, problem.n_local, blocks)
                build_normal_system(problem, report, split, blocked, used)
                scale = np.linalg.norm(full.matrix, 2)
                rotated = basis.T @ full.matrix @ basis
                ends = np.cumsum([0] + [len(b) for b in blocks])
                for k, matrix in enumerate([blocked.matrix] + blocked.others):
                    inside = slice(ends[k], ends[k + 1])
                    np.testing.assert_allclose(matrix, rotated[inside, inside],
                                               rtol=0.0, atol=1e-12 * scale)
                    rotated[inside, inside] = 0.0
                assert np.abs(rotated).max() <= 1e-12 * scale


class TestNodeBlocksWhereRead:
    @pytest.mark.parametrize("kind,m,dims", [
        *[("scalar", m, None) for m in range(1, 6)],
        pytest.param("scalar", 6, None, marks=KNOWN_MISCOUNT),
        *[pytest.param("supernode", m, (2, 1), marks=KNOWN_MISCOUNT) for m in range(1, 5)]])
    def test_minimization_builds_node_blocks_only_where_read(self, monkeypatch, kind, m, dims):
        # Node blocks, and the invariance check they read, are built only
        # for a scalar region of BLOCKS_MIN_NODES nodes (m = 6): once per
        # problem.  spectrum_at reads the problem's one check.
        made = []

        def counted(*args):
            made.append(1)
            return node_blocks(*args)

        node_blocks = lattice.NodeBlocks
        monkeypatch.setattr(lattice, "NodeBlocks", counted)
        problem = case_problem(kind, m, dims)
        pair = linearized_minimize(problem, MinimizeOptions(max_iter=5))[0]
        read = kind == "scalar" and m >= 6
        assert len(made) == read
        assert ("reflection_invariant" in vars(problem)) == read
        check = problem.reflection_invariant
        spectrum_at(problem, pair)
        spectrum_at(problem, pair)
        assert len(made) == read and problem.reflection_invariant is check


class TestMinimizationMemory:
    @KNOWN_MISCOUNT
    @pytest.mark.parametrize("kind,m,dims", [("scalar", 8, None), ("supernode", 4, (2, 1))])
    def test_holds_under_three_point_nine_pattern_squared_arrays(self, kind, m, dims):
        # The system's matrix and work array are 3 n_pattern^2; the
        # eigenvectors are sorted in matrix through a gather in work, as G's
        # gathers are made in work; the rest of a step is n_local^2
        # temporaries, and no step's arrays outlive it.  The (2,1) m = 4
        # peak read 3.77 n_pattern^2, in the assembly.
        if linearized.find_dsyevd() is None:
            pytest.skip("numpy's OpenBLAS exports no LAPACKE dsyevd here")
        problem = case_problem(kind, m, dims)
        n_pattern = problem.target_pattern.n_entries
        tracemalloc.start()
        try:
            trace = linearized_minimize(problem, MinimizeOptions(max_iter=30))[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.n_steps >= 3
        assert peak <= 3.9 * 8 * n_pattern**2

    @KNOWN_MISCOUNT
    def test_pinned_scalar_holds_under_two_point_zero_five_pattern_squared_arrays(self):
        # The pinned system's four reflection blocks hold about
        # (n_pattern - n_I)^2 / 4 doubles, and G's gathers for one block,
        # rows first, 2 n_local n0 for its n0 unknowns: the peak read 2.01
        # n_pattern^2 at m = 8, in the assembly, with the node blocks' index
        # arrays held, where the one full pinned system read 3.03 and the
        # columns-first gathers 2.23.
        if linearized.find_dsyevd() is None:
            pytest.skip("numpy's OpenBLAS exports no LAPACKE dsyevd here")
        problem = extract_local_scalar(8, 0.0)
        n_pattern = problem.target_pattern.n_entries
        tracemalloc.start()
        try:
            trace = linearized_minimize(problem, MinimizeOptions(max_iter=30))[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.n_steps >= 3
        assert peak <= 2.05 * 8 * n_pattern**2


class TestComputeDy:
    def test_clears_span_blocks_of_linearized_residual(self):
        # after the optimal (dA, dY), only the null/null block may remain
        for m, lam in ((1, 0.0), (2, 0.0), (2, 3.5)):
            problem = extract_local_scalar(m, lam)
            pair = random_state(problem, seed=m + 40)
            report, split, system = linearized_phases(problem, pair)
            da, _ = solve_for_da(system)
            dy = compute_dy(report, da, split)
            r_norm = report.norm
            span_span, span_null, _ = rotated_block_norms(problem, pair,
                                                          split, dy, da)
            assert math.sqrt(span_span) <= 1e-10 * r_norm
            assert math.sqrt(span_null) <= 1e-10 * r_norm

    def test_block_norms_sum_to_residual(self):
        problem = extract_local_scalar(2, 0.0)
        pair = random_state(problem, seed=12)
        split = linearized_phases(problem, pair)[1]
        rng = np.random.default_rng(0)
        dy = 0.1 * rng.standard_normal((problem.n_interior, problem.n_local))
        da = np.where(problem.target_pattern.mask(),
                      rng.standard_normal((problem.n_local,) * 2), 0.0)
        da = 0.5 * (da + da.T)
        total = linearized_residual(problem, residual_and_error(problem, pair), dy, da)
        blocks = rotated_block_norms(problem, pair, split, dy, da)
        assert math.sqrt(sum(blocks)) == pytest.approx(total, rel=1e-10)

    def test_rank_zero_returns_zero_step(self):
        problem = extract_local_scalar(1, 4.0)
        pair = initial_guess(problem)
        report, split, _ = linearized_phases(problem, pair)
        dy = compute_dy(report, np.zeros((5, 5)), split)
        assert np.all(dy == 0.0)


class TestLineSearch:
    def test_abscissae_are_the_seven_stated_points(self):
        assert LINE_SEARCH_ABSCISSAE.tolist() == \
            [0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0]

    def test_polynomial_reproduces_g(self):
        problem = extract_local_scalar(2, 0.0)
        pair = random_state(problem, seed=3)
        report, split, system = linearized_phases(problem, pair)
        da, _ = solve_for_da(system)
        dy = compute_dy(report, da, split)
        g, g0 = line_objective(problem, pair, report, dy, da)
        coeffs, scale = fit_line_polynomial(g, g0)
        rng = np.random.default_rng(19)
        for alpha in rng.uniform(-2.0, 2.0, size=20):
            direct = g(alpha)
            fitted = np.polyval(coeffs, alpha / scale)
            assert fitted == pytest.approx(direct, rel=1e-9,
                                           abs=1e-12 * max(direct, 1.0))

    @KNOWN_MISCOUNT
    @pytest.mark.parametrize("lam", [0.0, 3.5, 4.0])
    @pytest.mark.parametrize("m", [1, 3, 5, 8])
    def test_block_g_is_the_node_g(self, monkeypatch, active_blocks, m, lam):
        # At every line search of a minimization, at the seven abscissae.
        # The absolute floor is the residual's own rounding, eps ||A_LL||^2:
        # near convergence g is small, and both forms of it carry that much.
        problem = extract_local_scalar(m, lam)
        assert problem.node_blocks is not None
        searches, search = [], linearized.line_search

        def recorded(problem, pair, *args):
            searches.append((pair.copy(), *args))
            return search(problem, pair, *args)

        with monkeypatch.context() as patch:
            patch.setattr(linearized, "line_search", recorded)
            linearized_minimize(problem)
        assert searches
        floor = 1e-15 * np.linalg.norm(problem.a_ll) ** 2
        for args in searches:
            g, g0 = line_objective(problem, *args)
            want = direct_line_objective(problem, *args)
            assert g0 == g(0.0)
            for alpha in LINE_SEARCH_ABSCISSAE:
                assert g(alpha) == pytest.approx(want(alpha), rel=1e-12, abs=floor)

    def test_step_improves_error(self):
        problem = extract_local_scalar(2, 0.0)
        pair = initial_guess(problem)
        report, split, system = linearized_phases(problem, pair)
        da, _ = solve_for_da(system)
        dy = compute_dy(report, da, split)
        alpha, err = line_search(problem, pair, report, dy, da)
        assert 0.0 < alpha <= 4.0
        assert err < report.norm

    def test_zero_direction_keeps_current_point(self):
        problem = extract_local_scalar(1, 0.0)
        pair = initial_guess(problem)
        zero_dy = np.zeros((problem.n_interior, problem.n_local))
        zero_da = np.zeros((problem.n_local,) * 2)
        report = residual_and_error(problem, pair)
        alpha, err = line_search(problem, pair, report, zero_dy, zero_da)
        assert alpha == 0.0
        assert err == pytest.approx(math.sqrt(8.0), rel=1e-12)

    def test_trust_scaling_shrinks_abscissae_on_overflow(self):
        # finite only for |alpha| <= 0.3: the abscissae reach +-2 * scale,
        # so scales 1 and 0.25 overflow and 0.0625 is the first that fits
        coeffs = np.array([3.0, -1.0, 2.0, 0.5, -4.0, 1.0, 7.0])

        def g(alpha):
            return float(np.polyval(coeffs, alpha)) if abs(alpha) <= 0.3 \
                else math.inf

        fitted, scale = fit_line_polynomial(g, g(0.0))
        assert scale == 0.0625
        np.testing.assert_array_equal(
            fitted, coeffs * scale ** np.arange(6, -1, -1))

    def test_never_finite_objective_raises(self):
        with pytest.raises(NumericalFailure,
                           match="could not evaluate the objective finitely"):
            fit_line_polynomial(lambda alpha: math.inf, 1.0)


class TestLinearizedMinimize:
    def test_m1_known_minimum(self):
        problem = extract_local_scalar(1, 0.0)
        pair, trace, _ = linearized_minimize(problem)
        assert trace.converged
        assert trace.final_error == pytest.approx(0.74382120488419345,
                                                  rel=1e-12)
        assert np.all(pair.a_tilde[~problem.target_pattern.mask()] == 0.0)

    def test_m2_known_minimum_and_step_count(self):
        problem = extract_local_scalar(2, 0.0)
        _, trace, _ = linearized_minimize(problem)
        assert trace.converged
        assert trace.final_error == pytest.approx(0.18213476251132724,
                                                  rel=1e-10)
        assert trace.n_steps <= 9

    def test_errors_monotone_and_numbered(self):
        problem = extract_local_scalar(3, 0.0)
        _, trace, _ = linearized_minimize(problem)
        errs = [rec.error for rec in trace.iterations]
        assert errs[0] == math.sqrt(8.0)
        assert all(b <= a for a, b in zip(errs, errs[1:]))
        assert [rec.iteration for rec in trace.iterations] == \
            list(range(len(errs)))

    def test_diagnostics_recorded_each_iteration(self):
        problem = extract_local_scalar(2, 0.0)
        _, trace, diags = linearized_minimize(problem)
        assert len(diags) == len(trace.iterations)
        for rec, diag in zip(trace.iterations, diags):
            assert rec.solve is diag
            assert rec.solve.null_dim == problem.n_interior
            assert rec.solve.cond_eq7_estimate > 0.0

    @pytest.mark.parametrize("kind,m,dims", [
        ("scalar", 3, None),
        pytest.param("supernode", 2, (2, 1), marks=KNOWN_MISCOUNT),
    ])
    def test_solve_records_hold_python_scalars(self, kind, m, dims):
        # a trace keeps no array of a step's system alive
        _, trace, _ = linearized_minimize(case_problem(kind, m, dims))
        zero = unit_cut(np.zeros(2))  # the all-null path
        for diag in [rec.solve for rec in trace.iterations] + [zero]:
            assert [type(v) for v in dataclasses.astuple(diag)] == \
                [int, float, float, float, float, float]

    def test_stuck_problem_stops_at_no_descent(self):
        # nothing to optimize at lam=4, m=1: the masked A~ is the zero matrix,
        # so the first line search returns alpha = 0 and the run ends there
        problem = extract_local_scalar(1, 4.0)
        _, trace, _ = linearized_minimize(problem)
        assert trace.stop_reason == "no_descent"
        assert trace.converged
        assert trace.final_error == pytest.approx(math.sqrt(8.0), rel=1e-14)
        assert trace.n_steps == 0

    def test_max_iter_reported_as_not_converged(self):
        problem = extract_local_scalar(3, 0.0)
        _, trace, _ = linearized_minimize(problem,
                                          MinimizeOptions(max_iter=2))
        assert trace.stop_reason == "max_iter"
        assert not trace.converged
        assert trace.n_steps == 2

    def test_abs_tol_stops_early(self):
        _, trace, _ = linearized_minimize(diagonal_problem(4.0))
        assert trace.final_error == 0.0 < linearized.ABS_TOL
        assert trace.stop_reason == "abs_tol"
        assert trace.converged
        assert trace.n_steps == 0

    def test_non_finite_operator_fails_with_trace(self):
        with pytest.raises(NumericalFailure) as caught:
            linearized_minimize(diagonal_problem(math.nan))
        trace = caught.value.trace
        assert trace.stop_reason == "failed"
        assert not trace.converged
        assert trace.iterations == []  # it fails at step 0, before any record

    @pytest.mark.parametrize("lam", [0.0, 2.0, 3.5])
    @pytest.mark.parametrize("kind,m,dims", [
        pytest.param(*case, marks=KNOWN_MISCOUNT) if case[0] == "supernode" and case[1] > 1
        else case for case in BYTE_IDENTITY_CASES])
    def test_default_trace_is_prefix_of_tighter_tol(self, kind, m, dims, lam):
        # the stop rules never enter a step's arithmetic: a looser rel_tol
        # only ends the same trace sooner
        problem = case_problem(kind, m, dims, lam)
        _, short, _ = linearized_minimize(problem)
        _, long, _ = linearized_minimize(problem, MinimizeOptions(rel_tol=1e-10))
        a = [(rec.error, rec.alpha) for rec in short.iterations]
        b = [(rec.error, rec.alpha) for rec in long.iterations]
        assert len(a) <= len(b)
        assert b[: len(a)] == a


class TestSharedLoop:
    """steepest_descent runs the linearized loop: its stop rules and records."""

    def test_steepest_descent_stops_at_abs_tol(self):
        _, trace = steepest_descent(diagonal_problem(4.0))
        assert trace.stop_reason == "abs_tol"
        assert trace.n_steps == 0

    def test_steepest_descent_stops_at_no_descent(self):
        # lam = 4, m = 1: A~ starts at zero, and so does the gradient
        _, trace = steepest_descent(extract_local_scalar(1, 4.0))
        assert trace.stop_reason == "no_descent"
        assert trace.n_steps == 0
        assert trace.final_error == math.sqrt(8.0)

    def test_steepest_descent_records_have_no_solve(self):
        _, trace = steepest_descent(extract_local_scalar(1, 0.0),
                                    MinimizeOptions(max_iter=5))
        assert [rec.solve for rec in trace.iterations] == [None] * 6

    @pytest.mark.parametrize("minimize", [linearized_minimize, steepest_descent],
                             ids=["linearized", "steepest"])
    @pytest.mark.parametrize("kind,m,dims", [("scalar", 3, None),
                                             pytest.param("scalar", 6, None, marks=KNOWN_MISCOUNT),
                                             pytest.param("supernode", 2, (2, 1),
                                                          marks=KNOWN_MISCOUNT)])
    def test_one_residual_per_state(self, monkeypatch, minimize, kind, m, dims):
        calls = []
        for module in (linearized, transform):
            original = module.residual_and_error

            def counted(*args, original=original):
                calls.append(1)
                return original(*args)

            monkeypatch.setattr(module, "residual_and_error", counted)
        alphas, at_zero = [], []
        line_objective, symmetrized = linearized.line_objective, linearized.symmetrized
        evaluations = []  # symmetrized runs once per evaluation of g

        def recorded(*args):
            before = len(evaluations)
            g, g0 = line_objective(*args)
            at_zero.append(len(evaluations) - before)

            def wrapped(alpha):
                alphas.append(alpha)
                return g(alpha)

            return wrapped, g0

        def counted_symmetrized(x):
            evaluations.append(1)
            return symmetrized(x)

        monkeypatch.setattr(linearized, "line_objective", recorded)
        monkeypatch.setattr(linearized, "symmetrized", counted_symmetrized)
        problem = case_problem(kind, m, dims)
        trace = minimize(problem, MinimizeOptions(max_iter=30))[1]
        assert trace.n_steps > 3
        assert len(calls) == len(trace.iterations)
        # Where the problem has no node blocks (m = 3 and the supernode),
        # g(0) is read from the report, never evaluated again; where it has
        # them (m = 6), line_objective evaluates it once per line search,
        # and the line search never does.
        has_blocks = problem.node_blocks is not None
        assert alphas and alphas.count(0.0) == 0
        assert at_zero == [has_blocks] * len(at_zero)


class TestOneBlasThread:
    """Every minimization runs on one BLAS thread, whatever the caller's count."""

    @pytest.mark.parametrize("kind,m,dims", [
        ("scalar", 5, None),
        pytest.param("supernode", 3, (2, 1), marks=KNOWN_MISCOUNT),
    ])
    def test_trace_independent_of_caller_blas_threads(
            self, caller_blas_threads, kind, m, dims):
        # Run on the caller's thread count, both traces differ between one
        # and two threads on two or more cores.
        problem = case_problem(kind, m, dims)
        runs = []
        for threads in (1, 2):
            with caller_blas_threads(threads):
                pair, trace, _ = linearized_minimize(problem)
            runs.append(([(rec.error, rec.alpha, trace.stop_reason)
                          for rec in trace.iterations],
                         pair.y_rows.tobytes(), pair.a_tilde.tobytes()))
        assert runs[0] == runs[1]

    def test_caller_count_restored_after_return_and_failure(
            self, monkeypatch, openblas):
        seen = []

        def recording(problem, pair):
            seen.append(openblas.get_threads())
            return residual_and_error(problem, pair)

        monkeypatch.setattr(linearized, "residual_and_error", recording)
        linearized_minimize(extract_local_scalar(1, 0.0))
        assert openblas.get_threads() == 2
        with pytest.raises(NumericalFailure):
            linearized_minimize(diagonal_problem(math.nan))
        assert openblas.get_threads() == 2
        assert len(seen) > 1 and set(seen) == {1}
