import dataclasses
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
)
from sparsecoarsen.linearized import (
    LINE_SEARCH_ABSCISSAE,
    NULL_REL_TOL,
    MinimizeOptions,
    NormalSystem,
    build_normal_system,
    compute_dy,
    fit_line_polynomial,
    line_objective,
    line_search,
    linearized_minimize,
    linearized_residual,
    solve_for_da,
    split_spaces,
    steepest_descent,
)
from sparsecoarsen import linearized, transform
from sparsecoarsen.errors import NumericalFailure
from sparsecoarsen.transform import initial_guess, residual_and_error

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


BYTE_IDENTITY_CASES = (
    [("scalar", m, None) for m in (1, 2, 3, 4)]
    + [("supernode", m, (2, 1)) for m in (1, 2, 3)]
)


# Supernode regions from m = 2 on, and scalar regions from m = 6 on, meet
# the known null-dimension miscount.
KNOWN_MISCOUNT = pytest.mark.filterwarnings(
    "ignore:detected null dimension:RuntimeWarning")


def diagonal_problem(a00):
    """A 2-node diagonal operator on a diagonal pattern: the initial guess is exact."""
    return LocalProblem(
        a_ll=np.diag([a00, 3.0]),
        interior=(0,),
        boundary=(1,),
        decoupled=0,
        target_pattern=SparsityPattern(dim=2,
                                       entries=frozenset({(0, 0), (1, 1)})),
        coords=np.array([[0, 0], [1, 0]]),
        lam=0.0,
        supernode_dims=(1, 1),
    )


def case_problem(kind, m, dims, lam=0.0):
    if kind == "scalar":
        return extract_local_scalar(m, lam)
    return extract_local_supernode(m, *dims, lam)


def case_state(problem, state, m):
    return initial_guess(problem) if state == "initial" else random_state(problem, seed=10 + m)


def linearized_phases(problem, pair):
    """(report, split, system) at one state, formed as the linearized step forms them."""
    report = residual_and_error(problem, pair)
    split = split_spaces(problem, report)
    workspace = linearized.EigenWorkspace(problem.target_pattern.n_entries)
    return report, split, build_normal_system(problem, report, split, workspace)


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
            da, diag = solve_for_da(system, n_local=problem.n_local)
        ref_da, ref_fields = direct_solve(matrix, rhs,
                                          problem.target_pattern.positions(),
                                          problem.n_local)
        assert np.array_equal(da, ref_da)
        assert np.array_equal(np.array(dataclasses.astuple(diag), dtype=float),
                              np.array(ref_fields, dtype=float), equal_nan=True)

    @pytest.mark.parametrize("kind,m,dims", BYTE_IDENTITY_CASES)
    @pytest.mark.parametrize("state", ["initial", "random"])
    def test_report_holds_what_the_phases_formed(self, kind, m, dims, state):
        # The phases read Y, K and g(0) from the one report of a state.
        problem = case_problem(kind, m, dims)
        pair = case_state(problem, state, m)
        report, split, system = linearized_phases(problem, pair)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            da, _ = solve_for_da(system, n_local=problem.n_local)
        dy = compute_dy(problem, report, da, split)
        assert np.array_equal(report.y, pair.full_y())
        assert np.array_equal(report.ay[: problem.n_interior],
                              (pair.a_tilde @ pair.full_y())[: problem.n_interior])
        g0 = line_objective(problem, pair, report, dy, da)(0.0)
        assert float(np.sum(report.residual**2)) == g0


def two_step_line_search(problem, pair, dy, da):
    """The line search with g(0) evaluated at alpha = 0, twice."""
    g_of = line_objective(problem, pair, residual_and_error(problem, pair), dy, da)
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
    def test_g0_from_report_and_same_bits(self, monkeypatch, kind, m, dims, state):
        problem = case_problem(kind, m, dims)
        pair = case_state(problem, state, m)
        report, split, system = linearized_phases(problem, pair)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            da, _ = solve_for_da(system, n_local=problem.n_local)
        dy = compute_dy(problem, report, da, split)
        expected = two_step_line_search(problem, pair, dy, da)

        at_zero = []
        original = linearized.line_objective

        def counted(*args):
            g = original(*args)

            def wrapped(alpha):
                at_zero.append(alpha == 0.0)
                return g(alpha)

            return wrapped

        monkeypatch.setattr(linearized, "line_objective", counted)
        got = line_search(problem, pair, report, dy, da)
        assert at_zero and not any(at_zero)
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

    def test_gauge_directions_are_null(self):
        problem = extract_local_scalar(2, 0.0)
        pair = random_state(problem, seed=2)
        system = linearized_phases(problem, pair)[2]
        scale = np.linalg.norm(system.matrix)
        rng = np.random.default_rng(8)
        for _ in range(5):
            d = np.zeros(problem.n_local)
            d[: problem.n_interior] = rng.standard_normal(problem.n_interior)
            gauge = np.diag(d) @ pair.a_tilde + pair.a_tilde @ np.diag(d)
            coeffs = np.array([
                gauge[i, j] for i, j in problem.target_pattern.positions()
            ])
            assert np.linalg.norm(system.matrix @ coeffs) <= \
                1e-12 * scale * np.linalg.norm(coeffs)
            assert abs(system.rhs @ coeffs) <= \
                1e-12 * max(np.linalg.norm(system.rhs), 1.0) * \
                np.linalg.norm(coeffs)

    def test_empty_pattern_rejected(self):
        problem = LocalProblem(
            a_ll=np.eye(2),
            interior=(0,),
            boundary=(1,),
            decoupled=0,
            target_pattern=SparsityPattern(dim=2, entries=frozenset()),
            coords=np.array([[0, 0], [1, 0]]),
            lam=0.0,
            supernode_dims=(1, 1),
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

    @pytest.mark.parametrize("kind,m,dims", [("supernode", 4, (2, 1)),
                                             ("scalar", 8, None)])
    def test_holds_under_one_pattern_squared_array(self, kind, m, dims):
        # The matrix and G's gathers are the workspace's, made before the
        # trace starts; what the assembly makes is G, M and row blocks.
        problem = case_problem(kind, m, dims)
        pair = random_state(problem, seed=m)
        report = residual_and_error(problem, pair)
        split = split_spaces(problem, report)
        n_pattern = problem.target_pattern.n_entries
        workspace = linearized.EigenWorkspace(n_pattern)
        tracemalloc.start()
        try:
            build_normal_system(problem, report, split, workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n_pattern**2


def diagonal_system(s, rhs=None):
    """A NormalSystem whose matrix is diag(s), with a zero rhs by default."""
    return workspace_system(np.diag(np.asarray(s, dtype=float)), rhs)


# Spectra over many decades, with exact zeros and either sign.
SPECTRA = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.floats(-30.0, 3.0).map(lambda e: 10.0**e)),
              st.sampled_from([1.0, -1.0])).map(lambda vs: vs[0] * vs[1]),
    min_size=1, max_size=12)


class TestNullCount:
    def test_threshold_counts_below_relative_cut(self):
        s = [1.0, 1e-3, 1e-9, 1e-14, 1e-16]
        assert diagonal_system(s).diagnostics.null_dim == 3
        # the cut is strict: a value exactly at NULL_REL_TOL * s[0] is kept
        assert diagonal_system([2.0, 2.0 * NULL_REL_TOL]).diagnostics.null_dim == 0

    def test_zero_and_empty_spectra(self):
        zero = diagonal_system(np.zeros(3)).diagnostics
        assert (zero.null_dim, zero.gap_ratio) == (3, 1.0)
        assert math.isnan(zero.cond_retained) and math.isnan(zero.cond_eq7_estimate)
        empty = diagonal_system(np.zeros(0)).diagnostics
        assert (empty.null_dim, empty.gap_ratio) == (0, 0.0)

    def test_rhs_norms_split_at_the_cut(self):
        # diag(s) has unit eigenvectors, so the null component is rhs[2:]
        diag = diagonal_system([1.0, 0.5, 1e-12, 0.0], rhs=[3.0, 0.0, 4.0, 12.0]).diagnostics
        assert diag.null_dim == 2
        assert diag.rhs_norm == 13.0
        assert diag.rhs_null_component == pytest.approx(math.sqrt(160.0), rel=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(SPECTRA)
    def test_cut_reads_the_returned_spectrum(self, values):
        system = diagonal_system(values)
        s = system.eig[1]
        diag = system.diagnostics
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


class TestSolveForDa:
    def test_detects_gauge_null_space(self):
        problem = extract_local_scalar(2, 0.0)
        pair = initial_guess(problem)
        system = linearized_phases(problem, pair)[2]
        da, diag = solve_for_da(system, n_local=problem.n_local)
        assert diag.null_dim == problem.n_interior
        assert diag.cond_eq7_estimate == \
            pytest.approx(math.sqrt(diag.cond_retained))
        assert np.all(da == 0.0)  # zero rhs at the start

    def test_da_symmetric_and_patterned(self):
        problem = extract_local_scalar(2, 3.5)
        pair = random_state(problem, seed=6)
        system = linearized_phases(problem, pair)[2]
        da, _ = solve_for_da(system, n_local=problem.n_local)
        assert np.array_equal(da, da.T)
        assert np.all(da[~problem.target_pattern.mask()] == 0.0)

    def test_warns_on_miscounted_null(self):
        problem = extract_local_scalar(2, 0.0)
        pair = initial_guess(problem)
        system = linearized_phases(problem, pair)[2]
        assert system.expected_null == problem.n_interior
        wrong = dataclasses.replace(system,
                                    expected_null=problem.n_interior + 1)
        with pytest.warns(RuntimeWarning, match="detected null dimension"):
            solve_for_da(wrong, n_local=problem.n_local)

    def test_returns_the_systems_diagnostics(self):
        problem = extract_local_scalar(2, 0.0)
        system = linearized_phases(problem, random_state(problem, seed=5))[2]
        _, diag = solve_for_da(system, n_local=problem.n_local)
        assert diag is system.diagnostics

    def test_everything_truncated_gives_zero(self):
        problem = extract_local_scalar(1, 0.0)
        pair = random_state(problem, seed=1)
        system = linearized_phases(problem, pair)[2]
        all_null = workspace_system(np.zeros_like(system.matrix)).workspace
        zero = dataclasses.replace(system, workspace=all_null)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            da, diag = solve_for_da(zero, n_local=problem.n_local)
        assert np.all(da == 0.0)
        assert diag.null_dim == len(system.rhs)
        assert math.isnan(diag.cond_retained)
        assert diag.rhs_null_component == diag.rhs_norm


def sorted_eigh(matrix):
    """np.linalg.eigh, sorted by descending |w| as NormalSystem.eig sorts it."""
    w, v = np.linalg.eigh(matrix)
    s = np.abs(w)
    order = np.argsort(s)[::-1]
    return v.take(order, axis=1), s[order], np.copysign(1.0, w)[order]


def workspace_system(matrix, rhs=None):
    """A NormalSystem of this matrix in a workspace of its own, with a zero rhs by default."""
    n = len(matrix)
    workspace = linearized.EigenWorkspace(n)
    workspace.matrix.T[...] = matrix
    return NormalSystem(rhs=np.zeros(n) if rhs is None else np.asarray(rhs, dtype=float),
                        basis=(np.arange(n), np.arange(n)), expected_null=None,
                        workspace=workspace)


def assert_eig_equal(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(a, b)
    assert got[0].flags.c_contiguous  # products read the vectors C-ordered


NORMAL_SYSTEM_CASES = [("scalar", 4, None), ("scalar", 7, None), ("supernode", 4, (2, 1))]


class TestInPlaceEigensolve:
    """eig through the dsyevd binding gives np.linalg.eigh's bits, in place."""

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
        assert_eig_equal(workspace_system(matrix).eig, sorted_eigh(matrix))

    @pytest.mark.parametrize("kind,m,dims", NORMAL_SYSTEM_CASES)
    @pytest.mark.parametrize("lam", [0.0, 2.0, 4.0])
    def test_normal_systems(self, binding, kind, m, dims, lam):
        problem = case_problem(kind, m, dims, lam)
        report = residual_and_error(problem, random_state(problem, seed=m))
        split = split_spaces(problem, report)
        workspace = linearized.EigenWorkspace(problem.target_pattern.n_entries)
        system = build_normal_system(problem, report, split, workspace)
        want = sorted_eigh(system.matrix)  # before eig, which overwrites matrix
        assert_eig_equal(system.eig, want)
        # The sorted vectors are the head of dsyevd's work array.
        assert np.shares_memory(system.eig[0], workspace.work)

    def test_workspace_system_sorts_into_the_workspace(self, binding):
        n = 200
        x = np.random.default_rng(1).standard_normal((n, n))
        system = workspace_system(x + x.T)
        tracemalloc.start()
        try:
            vectors = system.eig[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if binding == "binding":
            assert peak < 8 * n * n / 2  # row blocks, not a whole copy
        assert vectors is system.workspace.vectors

    def test_work_array_has_lapacks_minimum(self, binding):
        for n in (0, 1, 2, 7, 64):
            workspace = linearized.EigenWorkspace(n)
            assert len(workspace.work) >= (1 if n <= 1 else 1 + 6 * n + 2 * n * n)
            assert workspace.vectors.shape == (n, n)
            assert workspace.vectors.flags.c_contiguous

    def test_assembly_gathers_g_into_the_work_array(self, binding):
        problem = extract_local_scalar(8, 0.0)
        report = residual_and_error(problem, random_state(problem, seed=8))
        split = split_spaces(problem, report)
        n_pattern = problem.target_pattern.n_entries
        workspace = linearized.EigenWorkspace(n_pattern)
        workspace.work[...] = np.nan  # the gathers, then the vectors, overwrite it
        tracemalloc.start()
        try:
            system = build_normal_system(problem, report, split, workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 * problem.n_local * n_pattern  # less than the gathers alone
        fresh = build_normal_system(problem, report, split, linearized.EigenWorkspace(n_pattern))
        assert np.array_equal(system.matrix, fresh.matrix)

    @pytest.mark.parametrize("kind,m,dims", [("scalar", 4, None), ("supernode", 2, (2, 1))])
    def test_reused_workspace_solves_as_a_fresh_one(self, binding, kind, m, dims):
        # A minimization assembles every step into one workspace, over the
        # last step's matrix, vectors and gathers; none of it may leak in.
        problem = case_problem(kind, m, dims)
        n_pattern = problem.target_pattern.n_entries
        states = [residual_and_error(problem, random_state(problem, seed=seed))
                  for seed in (m, m + 1)]
        splits = [split_spaces(problem, report) for report in states]
        reused = linearized.EigenWorkspace(n_pattern)
        first = build_normal_system(problem, states[0], splits[0], reused)
        first.diagnostics  # solved in place, as a step solves it
        second = build_normal_system(problem, states[1], splits[1], reused)
        fresh = build_normal_system(problem, states[1], splits[1],
                                    linearized.EigenWorkspace(n_pattern))
        assert np.array_equal(second.matrix, fresh.matrix)
        assert np.array_equal(second.rhs, fresh.rhs)
        assert_eig_equal(second.eig, fresh.eig)
        assert second.diagnostics == fresh.diagnostics

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

    def test_work_array_too_small_for_the_gathers_rejected(self):
        problem = extract_local_scalar(2, 0.0)
        report = residual_and_error(problem, initial_guess(problem))
        split = split_spaces(problem, report)
        workspace = linearized.EigenWorkspace(problem.target_pattern.n_entries)
        workspace.work = workspace.work[: 2 * problem.n_local * problem.target_pattern.n_entries - 1]
        with pytest.raises(ValueError, match="gathers"):
            build_normal_system(problem, report, split, workspace)

    def test_wrong_workspace_size_rejected(self):
        problem = extract_local_scalar(2, 0.0)
        report = residual_and_error(problem, initial_guess(problem))
        split = split_spaces(problem, report)
        workspace = linearized.EigenWorkspace(problem.target_pattern.n_entries + 1)
        with pytest.raises(ValueError, match="workspace"):
            build_normal_system(problem, report, split, workspace)


class TestOneWorkspacePerMinimization:
    @pytest.fixture
    def constructions(self, monkeypatch):
        made = []

        class Spy(linearized.EigenWorkspace):
            def __init__(self, n):
                made.append(n)
                super().__init__(n)

        monkeypatch.setattr(linearized, "EigenWorkspace", Spy)
        return made

    def test_linearized_minimize_makes_one(self, constructions):
        problem = extract_local_scalar(4, 0.0)
        trace = linearized_minimize(problem)[1]
        assert trace.n_steps >= 3
        assert constructions == [problem.target_pattern.n_entries]

    def test_steepest_descent_makes_none(self, constructions):
        trace = steepest_descent(extract_local_scalar(2, 0.0), MinimizeOptions(max_iter=5))[1]
        assert trace.n_steps == 5
        assert constructions == []


class TestMinimizationMemory:
    @KNOWN_MISCOUNT
    @pytest.mark.parametrize("kind,m,dims", [("scalar", 8, None), ("supernode", 4, (2, 1))])
    def test_holds_under_four_and_a_half_pattern_squared_arrays(self, kind, m, dims):
        # The workspace's matrix and work array are 3 n_pattern^2; G's
        # gathers and the sorted vectors live in work, the rest of a step is
        # n_local^2 temporaries, and no step's arrays outlive it.
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
        assert peak <= 4.5 * 8 * n_pattern**2


class TestComputeDy:
    def test_clears_span_blocks_of_linearized_residual(self):
        # after the optimal (dA, dY), only the null/null block may remain
        for m, lam in ((1, 0.0), (2, 0.0), (2, 3.5)):
            problem = extract_local_scalar(m, lam)
            pair = random_state(problem, seed=m + 40)
            report, split, system = linearized_phases(problem, pair)
            da, _ = solve_for_da(system, n_local=problem.n_local)
            dy = compute_dy(problem, report, da, split)
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
        dy = compute_dy(problem, report, np.zeros((5, 5)), split)
        assert np.all(dy == 0.0)


class TestLineSearch:
    def test_abscissae_are_the_seven_stated_points(self):
        assert LINE_SEARCH_ABSCISSAE.tolist() == \
            [0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0]

    def test_polynomial_reproduces_g(self):
        problem = extract_local_scalar(2, 0.0)
        pair = random_state(problem, seed=3)
        report, split, system = linearized_phases(problem, pair)
        da, _ = solve_for_da(system, n_local=problem.n_local)
        dy = compute_dy(problem, report, da, split)
        g = line_objective(problem, pair, report, dy, da)
        coeffs, scale = fit_line_polynomial(g, g(0.0))
        rng = np.random.default_rng(19)
        for alpha in rng.uniform(-2.0, 2.0, size=20):
            direct = g(alpha)
            fitted = np.polyval(coeffs, alpha / scale)
            assert fitted == pytest.approx(direct, rel=1e-9,
                                           abs=1e-12 * max(direct, 1.0))

    def test_step_improves_error(self):
        problem = extract_local_scalar(2, 0.0)
        pair = initial_guess(problem)
        report, split, system = linearized_phases(problem, pair)
        da, _ = solve_for_da(system, n_local=problem.n_local)
        dy = compute_dy(problem, report, da, split)
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
        zero = diagonal_system(np.zeros(2)).diagnostics  # the all-null path
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
        pytest.param(*case, marks=KNOWN_MISCOUNT) if case[0] == "supernode"
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
    def test_one_residual_per_state(self, monkeypatch, minimize):
        calls = []
        for module in (linearized, transform):
            original = module.residual_and_error

            def counted(*args, original=original):
                calls.append(1)
                return original(*args)

            monkeypatch.setattr(module, "residual_and_error", counted)
        alphas = []
        line_objective = linearized.line_objective

        def recorded(*args):
            g = line_objective(*args)

            def wrapped(alpha):
                alphas.append(alpha)
                return g(alpha)

            return wrapped

        monkeypatch.setattr(linearized, "line_objective", recorded)
        trace = minimize(extract_local_scalar(3, 0.0),
                         MinimizeOptions(max_iter=30))[1]
        assert trace.n_steps > 3
        assert len(calls) == len(trace.iterations)
        # g(0) is read from the report, never evaluated again
        assert alphas and 0.0 not in alphas


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
