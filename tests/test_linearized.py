import dataclasses
import math
import warnings

import numpy as np
import pytest

from sparsecoarsen.lattice import (
    LocalProblem,
    SparsityPattern,
    extract_local_scalar,
    extract_local_supernode,
)
from sparsecoarsen.linearized import (
    LINE_SEARCH_ABSCISSAE,
    MinimizeOptions,
    TruncationPolicy,
    build_normal_system,
    compute_dy,
    fit_line_polynomial,
    line_objective,
    line_search,
    linearized_minimize,
    linearized_residual,
    rotated_block_norms,
    solve_for_da,
    split_spaces,
)
from sparsecoarsen import linearized
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


def direct_solve(matrix, rhs, positions, n_local, policy=TruncationPolicy()):
    """The direct solve: svd(hermitian=True), a truncated solve, a loop embed.

    Returns dA and the SolveDiagnostics fields in declaration order.
    """
    u, s, vt = np.linalg.svd(matrix, hermitian=True)
    null_dim = policy.null_count(s)
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


BYTE_IDENTITY_CASES = (
    [("scalar", m, None) for m in (1, 2, 3, 4)]
    + [("supernode", m, (2, 1)) for m in (1, 2, 3)]
)


def case_problem(kind, m, dims, lam=0.0):
    if kind == "scalar":
        return extract_local_scalar(m, lam)
    return extract_local_supernode(m, *dims, lam)


class TestByteIdentity:
    """The step's shortcuts reproduce the direct formulas bit for bit.

    Near a stop, one flipped last bit can decide between stopping and
    running on to max_iter, so agreement to a tolerance is not enough.
    """

    @pytest.mark.parametrize("kind,m,dims", BYTE_IDENTITY_CASES)
    @pytest.mark.parametrize("state", ["initial", "random"])
    def test_assembly_and_solve_match_direct_formulas(self, kind, m, dims, state):
        problem = case_problem(kind, m, dims)
        pair = (initial_guess(problem) if state == "initial"
                else random_state(problem, seed=10 + m))
        split = split_spaces(problem, pair)
        system = build_normal_system(problem, pair, split)
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
    def test_passed_residual_changes_nothing(self, kind, m, dims):
        problem = case_problem(kind, m, dims, lam=3.5)
        pair = random_state(problem, seed=20 + m)
        split = split_spaces(problem, pair)
        r = residual_and_error(problem, pair).residual
        own = build_normal_system(problem, pair, split)
        passed = build_normal_system(problem, pair, split, r)
        assert np.array_equal(own.matrix, passed.matrix)
        assert np.array_equal(own.rhs, passed.rhs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            da, _ = solve_for_da(own, n_local=problem.n_local)
        assert np.array_equal(compute_dy(problem, pair, da, split),
                              compute_dy(problem, pair, da, split, r))

    def test_one_residual_per_outer_step(self, monkeypatch):
        calls = []
        original = linearized.residual_and_error

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(linearized, "residual_and_error", counted)
        _, trace, _ = linearized_minimize(extract_local_scalar(3, 0.0))
        assert len(calls) == len(trace.iterations)


class TestSplitSpaces:
    def test_orthonormal_and_complete(self):
        problem = extract_local_scalar(2, 0.0)
        split = split_spaces(problem, initial_guess(problem))
        n = problem.n_local
        q, qn = split.q, split.q_null
        assert q.shape[1] + qn.shape[1] == n
        np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-12)
        np.testing.assert_allclose(qn.T @ qn, np.eye(qn.shape[1]), atol=1e-12)
        np.testing.assert_allclose(q.T @ qn, 0.0, atol=1e-12)

    def test_rank_equals_interior_at_start(self):
        for m in (1, 2, 3):
            problem = extract_local_scalar(m, 0.0)
            split = split_spaces(problem, initial_guess(problem))
            assert split.rank == problem.n_interior

    def test_zero_operator_has_rank_zero(self):
        # lam = 4 zeroes the diagonal, so the masked m=1 A~ vanishes entirely
        problem = extract_local_scalar(1, 4.0)
        pair = initial_guess(problem)
        assert np.all(pair.a_tilde == 0.0)
        split = split_spaces(problem, pair)
        assert split.rank == 0
        assert split.q_null.shape == (5, 5)


class TestNormalSystem:
    @pytest.mark.parametrize("m,lam", [(1, 0.0), (2, 0.0), (2, 3.5)])
    def test_matches_materialized_operator(self, m, lam):
        problem = extract_local_scalar(m, lam)
        for pair in (initial_guess(problem), random_state(problem, seed=m)):
            split = split_spaces(problem, pair)
            system = build_normal_system(problem, pair, split)
            ref_matrix, ref_rhs = materialized_system(problem, pair, split)
            scale = np.abs(ref_matrix).max()
            np.testing.assert_allclose(system.matrix, ref_matrix,
                                       atol=1e-12 * scale)
            np.testing.assert_allclose(system.rhs, ref_rhs,
                                       atol=1e-12 * max(scale, 1.0))

    def test_matches_materialized_operator_supernode(self):
        problem = extract_local_supernode(1, 2, 1, 0.0)
        pair = random_state(problem, seed=4)
        split = split_spaces(problem, pair)
        system = build_normal_system(problem, pair, split)
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
            system = build_normal_system(problem, pair,
                                         split_spaces(problem, pair))
            assert np.all(system.rhs == 0.0)

    def test_gauge_directions_are_null(self):
        problem = extract_local_scalar(2, 0.0)
        pair = random_state(problem, seed=2)
        split = split_spaces(problem, pair)
        system = build_normal_system(problem, pair, split)
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
            build_normal_system(problem, pair, split_spaces(problem, pair))


class TestTruncationPolicy:
    def test_threshold_counts_below_relative_cut(self):
        s = np.array([1.0, 1e-3, 1e-9, 1e-14, 1e-16])
        assert TruncationPolicy().null_count(s) == 3
        assert TruncationPolicy(rel_tol=1e-15).null_count(s) == 1

    def test_gap_picks_largest_lower_half_drop(self):
        s = np.array([1.0, 0.5, 0.2, 0.1, 1e-12, 3e-13])
        assert TruncationPolicy(kind="gap").null_count(s) == 2

    def test_gap_requires_a_real_drop(self):
        s = np.array([1.0, 0.8, 0.6, 0.4, 0.3, 0.2])
        assert TruncationPolicy(kind="gap").null_count(s) == 0

    def test_gap_ignores_ratios_inside_noise_plateau(self):
        # junk below the assembly noise floor can contain huge internal
        # ratios; the cut must still land at the physical boundary above it
        s = np.array([1.0, 0.5, 0.2, 0.1, 1e-16, 1e-40])
        assert TruncationPolicy(kind="gap").null_count(s) == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TruncationPolicy(kind="fancy").null_count(np.array([1.0]))


class TestSolveForDa:
    def test_detects_gauge_null_space(self):
        problem = extract_local_scalar(2, 0.0)
        pair = initial_guess(problem)
        system = build_normal_system(problem, pair,
                                     split_spaces(problem, pair))
        da, diag = solve_for_da(system, n_local=problem.n_local)
        assert diag.null_dim == problem.n_interior
        assert diag.cond_eq7_estimate == \
            pytest.approx(math.sqrt(diag.cond_retained))
        assert np.all(da == 0.0)  # zero rhs at the start

    def test_da_symmetric_and_patterned(self):
        problem = extract_local_scalar(2, 3.5)
        pair = random_state(problem, seed=6)
        system = build_normal_system(problem, pair,
                                     split_spaces(problem, pair))
        da, _ = solve_for_da(system, n_local=problem.n_local)
        assert np.array_equal(da, da.T)
        assert np.all(da[~problem.target_pattern.mask()] == 0.0)

    def test_warns_on_miscounted_null(self):
        problem = extract_local_scalar(2, 0.0)
        pair = initial_guess(problem)
        system = build_normal_system(problem, pair,
                                     split_spaces(problem, pair))
        with pytest.warns(RuntimeWarning):
            solve_for_da(system, TruncationPolicy(rel_tol=0.5),
                         n_local=problem.n_local)

    def test_everything_truncated_gives_zero(self):
        problem = extract_local_scalar(1, 0.0)
        pair = random_state(problem, seed=1)
        system = build_normal_system(problem, pair,
                                     split_spaces(problem, pair))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            da, diag = solve_for_da(system, TruncationPolicy(rel_tol=10.0),
                                    n_local=problem.n_local)
        assert np.all(da == 0.0)
        assert math.isnan(diag.cond_retained)


class TestComputeDy:
    def test_clears_span_blocks_of_linearized_residual(self):
        # after the optimal (dA, dY), only the null/null block may remain
        for m, lam in ((1, 0.0), (2, 0.0), (2, 3.5)):
            problem = extract_local_scalar(m, lam)
            pair = random_state(problem, seed=m + 40)
            split = split_spaces(problem, pair)
            system = build_normal_system(problem, pair, split)
            da, _ = solve_for_da(system, n_local=problem.n_local)
            dy = compute_dy(problem, pair, da, split)
            r_norm = residual_and_error(problem, pair).norm
            span_span, span_null, _ = rotated_block_norms(problem, pair,
                                                          split, dy, da)
            assert math.sqrt(span_span) <= 1e-10 * r_norm
            assert math.sqrt(span_null) <= 1e-10 * r_norm

    def test_block_norms_sum_to_residual(self):
        problem = extract_local_scalar(2, 0.0)
        pair = random_state(problem, seed=12)
        split = split_spaces(problem, pair)
        rng = np.random.default_rng(0)
        dy = 0.1 * rng.standard_normal((problem.n_interior, problem.n_local))
        da = np.where(problem.target_pattern.mask(),
                      rng.standard_normal((problem.n_local,) * 2), 0.0)
        da = 0.5 * (da + da.T)
        total = linearized_residual(problem, pair, dy, da)
        blocks = rotated_block_norms(problem, pair, split, dy, da)
        assert math.sqrt(sum(blocks)) == pytest.approx(total, rel=1e-10)

    def test_rank_zero_returns_zero_step(self):
        problem = extract_local_scalar(1, 4.0)
        pair = initial_guess(problem)
        split = split_spaces(problem, pair)
        dy = compute_dy(problem, pair, np.zeros((5, 5)), split)
        assert np.all(dy == 0.0)


class TestLineSearch:
    def test_abscissae_are_the_seven_stated_points(self):
        assert LINE_SEARCH_ABSCISSAE.tolist() == \
            [0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0]

    def test_polynomial_reproduces_g(self):
        problem = extract_local_scalar(2, 0.0)
        pair = random_state(problem, seed=3)
        split = split_spaces(problem, pair)
        system = build_normal_system(problem, pair, split)
        da, _ = solve_for_da(system, n_local=problem.n_local)
        dy = compute_dy(problem, pair, da, split)
        g = line_objective(problem, pair, dy, da)
        coeffs, scale = fit_line_polynomial(g)
        rng = np.random.default_rng(19)
        for alpha in rng.uniform(-2.0, 2.0, size=20):
            direct = g(alpha)
            fitted = np.polyval(coeffs, alpha / scale)
            assert fitted == pytest.approx(direct, rel=1e-9,
                                           abs=1e-12 * max(direct, 1.0))

    def test_step_improves_error(self):
        problem = extract_local_scalar(2, 0.0)
        pair = initial_guess(problem)
        split = split_spaces(problem, pair)
        system = build_normal_system(problem, pair, split)
        da, _ = solve_for_da(system, n_local=problem.n_local)
        dy = compute_dy(problem, pair, da, split)
        alpha, err = line_search(problem, pair, dy, da)
        assert 0.0 < alpha <= 4.0
        assert err < residual_and_error(problem, pair).norm

    def test_zero_direction_keeps_current_point(self):
        problem = extract_local_scalar(1, 0.0)
        pair = initial_guess(problem)
        zero_dy = np.zeros((problem.n_interior, problem.n_local))
        zero_da = np.zeros((problem.n_local,) * 2)
        alpha, err = line_search(problem, pair, zero_dy, zero_da)
        assert alpha == 0.0
        assert err == pytest.approx(math.sqrt(8.0), rel=1e-12)


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
        for rec in trace.iterations:
            assert rec.null_dim == problem.n_interior
            assert rec.cond_eq7_estimate > 0.0

    def test_stuck_problem_stops_by_stagnation(self):
        # nothing to optimize at lam=4, m=1: the masked A~ is the zero matrix
        problem = extract_local_scalar(1, 4.0)
        _, trace, _ = linearized_minimize(problem)
        assert trace.converged
        assert trace.final_error == pytest.approx(math.sqrt(8.0), rel=1e-14)
        assert trace.n_steps <= MinimizeOptions().patience

    def test_max_iter_reported_as_not_converged(self):
        problem = extract_local_scalar(3, 0.0)
        _, trace, _ = linearized_minimize(problem,
                                          MinimizeOptions(max_iter=2))
        assert not trace.converged
        assert trace.n_steps == 2

    def test_abs_tol_stops_early(self):
        problem = extract_local_scalar(1, 0.0)
        _, trace, _ = linearized_minimize(problem,
                                          MinimizeOptions(abs_tol=10.0))
        assert trace.converged
        assert trace.n_steps == 0
