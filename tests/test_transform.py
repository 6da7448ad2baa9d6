import math

import numpy as np
import pytest

from sparsecoarsen.errors import NumericalFailure
from sparsecoarsen.lattice import (
    extract_local_scalar,
    extract_local_supernode,
    supernode_layout,
)
from sparsecoarsen.linearized import (
    STOP_REASONS,
    ConvergenceTrace,
    MinimizeOptions,
    steepest_descent,
)
from sparsecoarsen.transform import (
    TransformPair,
    condition_of_y,
    initial_guess,
    interior_scaling,
    objective_gradient,
    residual_and_error,
)


def random_state(problem, seed, scale=0.1):
    """Initial guess plus a seeded pattern-respecting perturbation."""
    rng = np.random.default_rng(seed)
    pair = initial_guess(problem)
    pair.y_rows += scale * rng.standard_normal(pair.y_rows.shape)
    bump = scale * rng.standard_normal(pair.a_tilde.shape)
    bump = 0.5 * (bump + bump.T)
    pair.a_tilde += np.where(problem.target_pattern.mask(), bump, 0.0)
    return pair


def gradient(problem, pair):
    return objective_gradient(problem, residual_and_error(problem, pair))


def squared_error(problem, pair):
    return residual_and_error(problem, pair).norm ** 2


class TestInitialGuess:
    def test_y_is_identity_rows(self):
        problem = extract_local_scalar(2, 0.0)
        pair = initial_guess(problem)
        assert np.array_equal(pair.full_y(), np.eye(problem.n_local))

    def test_a_tilde_masked_copy(self):
        problem = extract_local_scalar(2, 3.5)
        pair = initial_guess(problem)
        mask = problem.target_pattern.mask()
        assert np.array_equal(pair.a_tilde[mask], problem.a_ll[mask])
        assert np.all(pair.a_tilde[~mask] == 0.0)

    def test_decoupled_row_cleared(self):
        problem = extract_local_scalar(3, 1.0)
        pair = initial_guess(problem)
        c = problem.decoupled
        off = np.delete(pair.a_tilde[c], c)
        assert np.all(off == 0.0)

    def test_initial_error_is_sqrt8(self):
        # the residual is exactly the four +-1 couplings of the decoupled node
        for m in (1, 2, 3):
            for lam in (0.0, 3.5):
                problem = extract_local_scalar(m, lam)
                report = residual_and_error(problem, initial_guess(problem))
                assert report.norm == math.sqrt(8.0)


class TestResidual:
    def test_residual_exactly_symmetric(self):
        problem = extract_local_scalar(2, 0.5)
        pair = random_state(problem, seed=7)
        r = residual_and_error(problem, pair).residual
        assert np.array_equal(r, r.T)

    def test_norm_matches_residual(self):
        problem = extract_local_scalar(2, 2.0)
        pair = random_state(problem, seed=3)
        report = residual_and_error(problem, pair)
        assert report.norm == pytest.approx(np.linalg.norm(report.residual),
                                            rel=0, abs=0)


class TestGradient:
    def test_m1_initial_gradient_exact(self):
        # small enough to check by hand: grad_y row is -4 * (A~ R)[0]
        problem = extract_local_scalar(1, 0.0)
        pair = initial_guess(problem)
        grad_y, grad_a = gradient(problem, pair)
        assert grad_y.tolist() == [[0.0, 16.0, 16.0, 16.0, 16.0]]
        assert np.all(grad_a == 0.0)

    def test_gradient_masked_to_pattern(self):
        problem = extract_local_scalar(2, 3.5)
        pair = random_state(problem, seed=11)
        _, grad_a = gradient(problem, pair)
        assert np.all(grad_a[~problem.target_pattern.mask()] == 0.0)
        assert np.array_equal(grad_a, grad_a.T)

    # The (2, 1) supernode pattern holds off-diagonal pairs inside a supernode.
    @pytest.mark.parametrize("m,lam,dims", [(1, 0.0, (1, 1)), (2, 0.0, (1, 1)),
                                            (2, 3.5, (1, 1)), (1, 0.0, (2, 1))],
                             ids=["1-0.0", "2-0.0", "2-3.5", "supernode-2x1-1-0.0"])
    def test_matches_central_differences(self, m, lam, dims):
        problem = extract_local_supernode(m, *dims, lam)
        pair = random_state(problem, seed=100 * m + 1)
        grad_y, grad_a = gradient(problem, pair)
        h = 1e-6
        floor = 1e-7 * max(np.abs(grad_y).max(), np.abs(grad_a).max(), 1.0)

        rng = np.random.default_rng(m)
        picks = rng.integers(0, pair.y_rows.size, size=12)
        for flat in picks:
            i, j = divmod(int(flat), problem.n_local)
            probe = pair.copy()
            probe.y_rows[i, j] += h
            up = squared_error(problem, probe)
            probe.y_rows[i, j] -= 2 * h
            down = squared_error(problem, probe)
            fd = (up - down) / (2 * h)
            assert fd == pytest.approx(grad_y[i, j], rel=1e-5, abs=floor)

        for i, j in problem.target_pattern.positions():
            probe = pair.copy()
            probe.a_tilde[i, j] += h
            if i != j:
                probe.a_tilde[j, i] += h
            up = squared_error(problem, probe)
            probe.a_tilde[i, j] -= 2 * h
            if i != j:
                probe.a_tilde[j, i] -= 2 * h
            down = squared_error(problem, probe)
            fd = (up - down) / (2 * h)
            assert fd == pytest.approx(grad_a[i, j], rel=1e-5, abs=floor)


class TestGaugeFreedom:
    def test_error_invariant_under_interior_scaling(self):
        problem = extract_local_scalar(2, 0.0)
        pair = random_state(problem, seed=5)
        base = residual_and_error(problem, pair).norm
        rng = np.random.default_rng(17)
        for _ in range(10):
            d = np.exp(rng.uniform(-1.5, 1.5, size=problem.n_interior))
            scaled = interior_scaling(pair, d)
            err = residual_and_error(problem, scaled).norm
            assert err == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 2.0, 3.5])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)])
    def test_error_invariant_under_block_gauge(self, p, q, m, lam):
        # E is block-diagonal over the interior supernodes and the identity
        # on the boundary.  The decoupled node's row and column stay diagonal,
        # so E^T A~ E keeps the decoupled row empty and the pattern exact.
        problem = extract_local_supernode(m, p, q, lam)
        pair = random_state(problem, seed=11)
        n_i, c = problem.n_interior, problem.decoupled
        rng = np.random.default_rng(29)
        e = np.eye(problem.n_local)
        for ids in supernode_layout(m, p, q).node_ids:
            if max(ids) < n_i:
                e[np.ix_(ids, ids)] += 0.1 * rng.standard_normal((len(ids),) * 2)
        kept = e[c, c]
        e[c, :] = e[:, c] = 0.0
        e[c, c] = kept
        gauged = TransformPair(
            y_rows=np.linalg.solve(e[:n_i, :n_i], pair.y_rows),
            a_tilde=e.T @ pair.a_tilde @ e,
        )
        assert np.all(gauged.a_tilde[~problem.target_pattern.mask()] == 0.0)
        base = residual_and_error(problem, pair).norm
        err = residual_and_error(problem, gauged).norm
        assert err == pytest.approx(base, rel=1e-12)

    def test_scaling_round_trip(self):
        problem = extract_local_scalar(2, 1.0)
        pair = random_state(problem, seed=9)
        d = np.linspace(0.5, 2.0, problem.n_interior)
        back = interior_scaling(interior_scaling(pair, d), 1.0 / d)
        np.testing.assert_allclose(back.y_rows, pair.y_rows, rtol=1e-14)
        np.testing.assert_allclose(back.a_tilde, pair.a_tilde, rtol=1e-14,
                                   atol=1e-14)

    def test_scaling_rejects_bad_input(self):
        problem = extract_local_scalar(1, 0.0)
        pair = initial_guess(problem)
        with pytest.raises(ValueError):
            interior_scaling(pair, np.ones(problem.n_interior + 1))
        with pytest.raises(ValueError):
            interior_scaling(pair, np.zeros(problem.n_interior))


class TestConditionOfY:
    def test_identity_has_condition_one(self):
        problem = extract_local_scalar(2, 0.0)
        assert condition_of_y(initial_guess(problem)) == 1.0

    def test_invariant_under_gauge(self):
        problem = extract_local_scalar(2, 3.0)
        pair = random_state(problem, seed=23)
        base = condition_of_y(pair)
        scaled = interior_scaling(pair, np.linspace(0.1, 3.0,
                                                    problem.n_interior))
        assert condition_of_y(scaled) == pytest.approx(base, rel=1e-10)

    def test_zero_row_raises(self):
        problem = extract_local_scalar(1, 0.0)
        pair = initial_guess(problem)
        pair.y_rows[0] = 0.0
        with pytest.raises(NumericalFailure):
            condition_of_y(pair)

    def test_svd_on_one_blas_thread(self, monkeypatch, openblas):
        seen = []
        svd = np.linalg.svd

        def recording(*args, **kwargs):
            seen.append(openblas.get_threads())
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        problem = extract_local_scalar(2, 0.0)
        condition_of_y(random_state(problem, seed=23))
        assert seen == [1]
        assert openblas.get_threads() == 2


class TestSteepestDescent:
    def test_m1_reaches_known_minimum(self):
        problem = extract_local_scalar(1, 0.0)
        pair, trace = steepest_descent(
            problem, MinimizeOptions(max_iter=2000, rel_tol=1e-14))
        assert trace.stop_reason == "stagnated"
        assert trace.converged
        assert trace.final_error == pytest.approx(0.74382120488419345,
                                                  rel=1e-8)

    def test_errors_never_increase(self):
        problem = extract_local_scalar(2, 0.0)
        _, trace = steepest_descent(
            problem, MinimizeOptions(max_iter=300, rel_tol=1e-12))
        errs = [rec.error for rec in trace.iterations]
        assert errs[0] == math.sqrt(8.0)
        assert all(b <= a for a, b in zip(errs, errs[1:]))

    def test_pattern_and_boundary_preserved(self):
        problem = extract_local_scalar(2, 3.5)
        pair, _ = steepest_descent(
            problem, MinimizeOptions(max_iter=50, rel_tol=1e-12))
        assert np.all(pair.a_tilde[~problem.target_pattern.mask()] == 0.0)
        assert np.array_equal(pair.a_tilde, pair.a_tilde.T)
        y = pair.full_y()
        np.testing.assert_array_equal(y[problem.n_interior:],
                                      np.eye(problem.n_local)
                                      [problem.n_interior:])

    def test_trace_bookkeeping(self):
        problem = extract_local_scalar(1, 0.0)
        _, trace = steepest_descent(
            problem, MinimizeOptions(max_iter=40, rel_tol=1e-12))
        assert [rec.iteration for rec in trace.iterations] == \
            list(range(len(trace.iterations)))
        assert trace.n_steps == len(trace.iterations) - 1
        assert trace.iterations[0].alpha == 0.0

    def test_cap_reported_as_max_iter(self):
        problem = extract_local_scalar(2, 0.0)
        _, trace = steepest_descent(
            problem, MinimizeOptions(max_iter=3, rel_tol=1e-12))
        assert trace.stop_reason == "max_iter"
        assert not trace.converged
        assert trace.n_steps == 3

    def test_supernode_problem_supported(self):
        problem = extract_local_supernode(1, 2, 1, 0.0)
        pair, trace = steepest_descent(
            problem, MinimizeOptions(max_iter=200, rel_tol=1e-10))
        assert trace.final_error < math.sqrt(8.0)
        assert np.all(pair.a_tilde[~problem.target_pattern.mask()] == 0.0)


class TestConvergenceTrace:
    def test_converged_follows_stop_reason(self):
        for reason in STOP_REASONS:
            trace = ConvergenceTrace(stop_reason=reason)
            assert trace.converged == (reason not in ("max_iter", "failed"))

    def test_converged_is_read_only(self):
        trace = ConvergenceTrace()
        with pytest.raises(AttributeError):
            trace.converged = True


class TestTransformPair:
    def test_copy_is_deep(self):
        problem = extract_local_scalar(1, 0.0)
        pair = initial_guess(problem)
        other = pair.copy()
        other.y_rows[0, 0] = 99.0
        other.a_tilde[0, 0] = 99.0
        assert pair.y_rows[0, 0] == 1.0
        assert pair.a_tilde[0, 0] == -4.0

    def test_full_y_layout(self):
        pair = TransformPair(y_rows=np.array([[1.0, 2.0, 3.0]]),
                             a_tilde=np.zeros((3, 3)))
        expected = np.array([[1.0, 2.0, 3.0],
                             [0.0, 1.0, 0.0],
                             [0.0, 0.0, 1.0]])
        assert np.array_equal(pair.full_y(), expected)
