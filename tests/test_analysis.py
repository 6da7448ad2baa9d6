import concurrent.futures
import dataclasses
import io
import itertools
import math
import tracemalloc
import types
import warnings

import numpy as np
import pytest

import sparsecoarsen.analysis as analysis
import sparsecoarsen.blas as blas
import sparsecoarsen.linearized as linearized
from sparsecoarsen.analysis import (
    default_verify_grid,
    fit_decay_rate,
    global_verify,
    run_sweep,
    spatial_decay,
    spectrum_at,
)
from sparsecoarsen.errors import NumericalFailure
from sparsecoarsen.lattice import (
    StencilSpec,
    build_helmholtz,
    extract_local_scalar,
    extract_local_supernode,
    reflection_blocks,
)
from sparsecoarsen.linearized import (MinimizeOptions, NormalSystem, build_normal_system,
                                      cut_spectrum, linearized_minimize, split_spaces)
from sparsecoarsen.transform import initial_guess, residual_and_error

from test_transform import random_state


class TestSpectrum:
    def test_counts_cover_whole_spectrum(self):
        problem = extract_local_scalar(2, 0.0)
        sigma, diag = spectrum_at(problem, initial_guess(problem))
        assert len(sigma) == problem.target_pattern.n_entries
        assert np.all(np.diff(sigma) <= 0)
        retained = len(sigma) - diag.null_dim
        assert np.all(sigma[:retained] >= linearized.NULL_REL_TOL * sigma[0])
        assert np.all(sigma[retained:] < linearized.NULL_REL_TOL * sigma[0])

    def test_gauge_null_dimension_detected(self):
        for m in (2, 3):
            problem = extract_local_scalar(m, 0.0)
            _, diag = spectrum_at(problem, initial_guess(problem))
            assert diag.null_dim == problem.n_interior

    def test_condition_estimate_is_square_root(self):
        problem = extract_local_scalar(2, 0.0)
        _, diag = spectrum_at(problem, initial_guess(problem))
        assert diag.cond_eq7_estimate == \
            pytest.approx(math.sqrt(diag.cond_retained))
        assert diag.gap_ratio < 1e-10

    @pytest.mark.parametrize("m,p,q", [(3, 1, 1), (3, 2, 1)])
    def test_nan_state_is_a_numerical_failure(self, m, p, q):
        # as a minimization raises it: the library solve's LinAlgError
        # (here the split's SVD), chained
        problem = extract_local_supernode(m, p, q, 0.0)
        pair = initial_guess(problem)
        pair.a_tilde[0, 0] = np.nan
        with pytest.raises(NumericalFailure) as failure:
            spectrum_at(problem, pair)
        assert isinstance(failure.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("m,p,q", [(5, 1, 1), (3, 2, 1)])
    def test_non_finite_spectrum_is_a_numerical_failure(self, monkeypatch, m, p, q):
        # a NaN in the first block, of more than 26 unknowns, where dsyevd
        # returns NaN eigenvalues without an error
        if linearized.find_dsyevd() is None:
            pytest.skip("numpy's OpenBLAS exports no LAPACKE dsyevd here")
        build = analysis.build_normal_system

        def poisoned(problem, report, split, system, pins=None):
            build(problem, report, split, system, pins)
            assert len(system.matrix) > 26
            system.matrix[0, 0] = np.nan

        monkeypatch.setattr(analysis, "build_normal_system", poisoned)
        problem = extract_local_supernode(m, p, q, 0.0)
        with pytest.raises(NumericalFailure, match="not finite"):
            spectrum_at(problem, initial_guess(problem))

    @pytest.mark.parametrize("lam", [0.0, 3.5, 4.0])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_matches_first_record_of_a_minimization(self, m, lam):
        # The spectrum is the unpinned system's.  At lambda = 0 and 3.5 the
        # first step pins the n_I directions the cut finds here, so the
        # null counts agree; at lambda = 4 it pins nothing, and the whole
        # record is the spectrum's reading.
        problem = extract_local_scalar(m, lam)
        pair = initial_guess(problem)
        _, diag = spectrum_at(problem, pair)
        _, trace, _ = linearized_minimize(problem, MinimizeOptions(max_iter=0))
        first = trace.iterations[0].solve
        assert first.null_dim == diag.null_dim
        if linearized.gauge_pins(problem, pair.a_tilde) is None:
            assert lam == 4.0
            assert first == diag
        else:
            assert lam != 4.0 and diag.null_dim == problem.n_interior

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_state_the_reflections_move_is_solved_whole(self, m):
        # A random state's N does not commute with the reflections, so its
        # reflection blocks' spectra are not N's: the one identity block is.
        problem = extract_local_scalar(m, 0.0)
        pair = random_state(problem, seed=m)
        sigma, _ = spectrum_at(problem, pair)
        report = residual_and_error(problem, pair)
        split = split_spaces(problem, report)
        n = problem.target_pattern.n_entries
        whole = NormalSystem(n, problem.n_local)
        build_normal_system(problem, report, split, whole)
        want = np.linalg.eigvalsh(whole.matrix)[::-1]
        np.testing.assert_allclose(sigma, want, rtol=0.0, atol=1e-12 * want[0])
        blocked = NormalSystem(n, problem.n_local, reflection_blocks(problem))
        build_normal_system(problem, report, split, blocked)
        wrong = cut_spectrum(blocked)[0]
        assert np.abs(wrong - want).max() > 1e-3 * want[0]

    @pytest.mark.parametrize("m,p,q", [(8, 1, 1), (4, 2, 1)])
    def test_holds_under_four_point_three_pattern_squared_arrays(self, m, p, q):
        # The NormalSystem is 3 n_pattern^2, and the state is assembled and
        # solved in it, as a step's is; nothing else is n_pattern^2.
        if linearized.find_dsyevd() is None:
            pytest.skip("numpy's OpenBLAS exports no LAPACKE dsyevd here")
        problem = extract_local_supernode(m, p, q, 0.0)
        pair = initial_guess(problem)
        n_pattern = problem.target_pattern.n_entries
        tracemalloc.start()
        try:
            spectrum_at(problem, pair)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.3 * 8 * n_pattern**2


class TestSpatialDecay:
    def test_initial_guess_structure(self):
        # masking only removes the decoupled couplings: column c of the A~
        # deviation holds four +-1 entries, each neighbor column exactly one
        problem = extract_local_scalar(2, 0.0)
        records = spatial_decay(problem, initial_guess(problem))
        by_node = {rec.node: rec for rec in records}
        assert all(rec.y_deviation == 0.0 for rec in records)
        assert by_node[problem.decoupled].a_deviation == 2.0
        for rec in records:
            if rec.node == problem.decoupled:
                continue
            assert rec.a_deviation == (1.0 if rec.distance == 1.0 else 0.0)

    def test_distances_from_decoupled_node(self):
        problem = extract_local_scalar(2, 0.0)
        records = spatial_decay(problem, initial_guess(problem))
        assert records[problem.decoupled].distance == 0.0
        assert max(rec.distance for rec in records) == 2.0

    def test_converged_deviations_decay_outward(self):
        problem = extract_local_scalar(5, 0.0)
        pair, _, _ = linearized_minimize(problem)
        records = spatial_decay(problem, pair)
        near = max(r.y_deviation for r in records if r.distance <= 1.0)
        far = max(r.y_deviation for r in records if r.distance >= 4.0)
        assert far < near / 10.0
        near_a = max(r.a_deviation for r in records if r.distance <= 1.0)
        far_a = max(r.a_deviation for r in records if r.distance >= 4.0)
        assert far_a < near_a / 10.0


def seven_array_verify(spec, center, problem, pair):
    """The check with a_coarse, diff and outside as separate grid-sized arrays.

    The reference global_verify must reproduce bit for bit: the same
    elementwise subtractions, each into an array of its own.
    """
    cx, cy = center
    w = spec.width
    gidx = (problem.coords[:, 1] + cy) * w + problem.coords[:, 0] + cx
    a = build_helmholtz(spec)
    x_local = np.linalg.inv(pair.full_y())
    n = w * spec.height
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
    ext = np.setdiff1d(np.arange(n), gidx)
    return analysis.GlobalVerifyReport(
        local_error=float(np.linalg.norm(local)),
        global_error=float(np.linalg.norm(diff)),
        max_decoupled_offdiag=float(max(row.max(), col.max())),
        coupling_block_max=float(np.abs(outside[np.ix_(gidx, ext)]).max()),
        external_block_max=float(np.abs(outside[np.ix_(ext, ext)]).max()),
        objective_error=residual_and_error(problem, pair).norm,
    )


GLOBAL_VERIFY_CASES = (
    [(m, lam, (1, 1)) for m in range(2, 9) for lam in (0.0, 3.5)]
    + [(m, 0.0, (2, 1)) for m in (2, 3)]
)


class TestGlobalVerify:
    def test_identity_between_local_and_global(self):
        problem = extract_local_scalar(2, 0.0)
        pair, _, _ = linearized_minimize(problem)
        spec, center = default_verify_grid(problem)
        report = global_verify(spec, center, problem, pair)
        assert report.global_error == pytest.approx(report.local_error,
                                                    rel=1e-12)
        scale = np.linalg.norm(problem.a_ll)
        assert report.coupling_block_max <= 1e-13 * scale
        assert report.external_block_max <= 1e-13 * scale
        assert report.max_decoupled_offdiag <= report.local_error

    @pytest.mark.parametrize("m,lam,dims", GLOBAL_VERIFY_CASES)
    def test_report_matches_seven_array_check(self, m, lam, dims):
        # The local and objective errors are the same products, bit for
        # bit; B's entries on the sub-grid are sums over fewer zero terms,
        # so the global error and the maxima agree to rounding in
        # ||X_L||^2 ||A_LL|| (they read at most 5.4e-18 of it).
        problem = extract_local_supernode(m, *dims, lam)
        pair = random_state(problem, seed=m)
        spec, center = default_verify_grid(problem)
        with blas.single_thread():
            expected = seven_array_verify(spec, center, problem, pair)
        got = global_verify(spec, center, problem, pair)
        assert got.local_error == expected.local_error
        assert got.objective_error == expected.objective_error
        scale = (np.linalg.norm(np.linalg.inv(pair.full_y())) ** 2
                 * np.linalg.norm(problem.a_ll))
        for name in ("global_error", "max_decoupled_offdiag", "coupling_block_max",
                     "external_block_max"):
            assert getattr(got, name) == pytest.approx(getattr(expected, name), rel=1e-13,
                                                       abs=1e-15 * scale)

    @pytest.mark.parametrize("m,lam,dims", GLOBAL_VERIFY_CASES)
    def test_dense_difference_is_zero_beyond_the_ring(self, m, lam, dims):
        # X^T A X - A on the whole grid vanishes exactly off the sub-grid of
        # the region and its grid neighbours, which global_verify reads alone.
        problem = extract_local_supernode(m, *dims, lam)
        pair = random_state(problem, seed=m)
        spec, center = default_verify_grid(problem)
        w, h = spec.width, spec.height
        gidx = (problem.coords[:, 1] + center[1]) * w + problem.coords[:, 0] + center[0]
        a = build_helmholtz(spec)
        x = np.eye(w * h)
        x[np.ix_(gidx, gidx)] = np.linalg.inv(pair.full_y())
        with blas.single_thread():
            outside = x.T @ a @ x - a
        near = np.zeros(w * h, dtype=bool)
        near[gidx] = True
        near |= (a[:, gidx] != 0.0).any(axis=1)  # the ring
        assert near.sum() < w * h
        assert np.all(outside[~near] == 0.0) and np.all(outside[:, ~near] == 0.0)

    @pytest.mark.parametrize("m", [6, 8])
    def test_holds_about_three_grid_arrays(self, m):
        # X, A and X^T A, then X, X^T A and B, each over the sub-grid of the
        # region and its ring, with X_L of the region: A is dropped once
        # X^T A is formed and built again for B - A, which is formed in B.
        # The problem's node blocks are made before (m = 6 and 8 have them).
        problem = extract_local_scalar(m, 0.0)
        pair = random_state(problem, seed=m)
        residual_and_error(problem, pair)
        spec, center = default_verify_grid(problem)
        n_sub = sum(1 for y in range(spec.height) for x in range(spec.width)
                    if abs(x - center[0]) + abs(y - center[1]) <= m + 1)
        grid_array = 8 * n_sub ** 2
        tracemalloc.start()
        try:
            global_verify(spec, center, problem, pair)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.75 * grid_array

    def test_independent_of_caller_blas_threads(self, caller_blas_threads):
        # The grid is 19 x 19: run on the caller's thread count, the report
        # differs between one and two threads on two or more cores.
        problem = extract_local_scalar(7, 0.0)
        pair = random_state(problem, seed=7)
        spec, center = default_verify_grid(problem)
        reports = []
        for threads in (1, 2):
            with caller_blas_threads(threads):
                reports.append(global_verify(spec, center, problem, pair))
        assert reports[0] == reports[1]

    def test_objective_error_reported(self):
        problem = extract_local_scalar(2, 3.5)
        pair = initial_guess(problem)
        spec, center = default_verify_grid(problem)
        report = global_verify(spec, center, problem, pair)
        assert report.objective_error == \
            pytest.approx(residual_and_error(problem, pair).norm, rel=1e-14)

    def test_region_must_fit(self):
        problem = extract_local_scalar(2, 0.0)
        pair = initial_guess(problem)
        with pytest.raises(ValueError):
            global_verify(StencilSpec(lam=0.0, width=9, height=9), (1, 1),
                          problem, pair)

    def test_default_grid_dimensions(self):
        problem = extract_local_scalar(2, 0.0)
        spec, center = default_verify_grid(problem)
        assert (spec.width, spec.height) == (9, 9)
        assert center == (4, 4)

    def test_singular_y_raises(self):
        problem = extract_local_scalar(1, 0.0)
        pair = initial_guess(problem)
        pair.y_rows[0] = 0.0
        spec, center = default_verify_grid(problem)
        with pytest.raises(NumericalFailure):
            global_verify(spec, center, problem, pair)

    def test_inverse_approximation_tracks_local_error(self):
        # Replacing the local block by A~ perturbs the global inverse; the
        # perturbation should shrink with m at the same pace as the local
        # error.  Embedding rebuilt here from scratch, densely.
        spec = StencilSpec(lam=0.0, width=11, height=11)
        a = build_helmholtz(spec)
        a_inv = np.linalg.inv(a)
        deviations, locals_ = {}, {}
        for m in (2, 4):
            problem = extract_local_scalar(m, 0.0)
            pair, _, _ = linearized_minimize(problem)
            center = (5, 5)
            gidx = ((problem.coords[:, 1] + center[1]) * spec.width
                    + problem.coords[:, 0] + center[0])
            x = np.eye(spec.width * spec.height)
            x[np.ix_(gidx, gidx)] = np.linalg.inv(pair.full_y())
            a_coarse = a.copy()
            a_coarse[np.ix_(gidx, gidx)] = pair.a_tilde
            approx = x @ np.linalg.inv(a_coarse) @ x.T
            deviations[m] = np.linalg.norm(a_inv - approx)
            locals_[m] = global_verify(spec, center, problem, pair).local_error
        assert deviations[4] < deviations[2]
        inv_ratio = deviations[2] / deviations[4]
        loc_ratio = locals_[2] / locals_[4]
        assert inv_ratio / loc_ratio < 5.0
        assert loc_ratio / inv_ratio < 5.0


class TestLocalityHolds:
    @pytest.fixture(scope="class")
    def verified(self):
        problem = extract_local_scalar(2, 0.0)
        pair, _, _ = linearized_minimize(problem)
        spec, center = default_verify_grid(problem)
        return problem, global_verify(spec, center, problem, pair)

    def test_holds_on_a_converged_report(self, verified):
        problem, report = verified
        assert report.locality_holds(problem)

    # Each bound's field, given the local error, ||A_LL||_F and a fraction
    # f of the way to its limit.
    LIMITS = {
        "global_error": lambda local, scale, f: local + f * 1e-12 * local,
        "coupling_block_max": lambda local, scale, f: f * 1e-12 * scale,
        "external_block_max": lambda local, scale, f: f * 1e-12 * scale,
        "max_decoupled_offdiag": lambda local, scale, f: f * local,
    }

    @pytest.mark.parametrize("field", sorted(LIMITS))
    def test_each_bound_fails_alone_just_past_its_limit(self, verified, field):
        problem, report = verified
        scale = float(np.linalg.norm(problem.a_ll))

        def holds(fraction):
            value = self.LIMITS[field](report.local_error, scale, fraction)
            return dataclasses.replace(report, **{field: value}).locality_holds(problem)

        assert holds(0.99)
        assert not holds(1.01)


class TestFitDecayRate:
    def test_recovers_exact_exponential(self):
        ms = [1, 2, 3, 4, 5]
        errors = [math.exp(-0.9 * m) for m in ms]
        rate, r2, n_used = fit_decay_rate(ms, errors)
        assert rate == pytest.approx(0.9, rel=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)
        assert n_used == 5

    def test_stagnated_tail_excluded(self):
        ms = [1, 2, 3, 4]
        errors = [1.0, 0.1, 0.01, 0.0099]
        rate, _, n_used = fit_decay_rate(ms, errors)
        assert n_used == 3
        assert rate == pytest.approx(math.log(10.0), rel=1e-12)

    def test_too_few_points(self):
        rate, r2, n_used = fit_decay_rate([1, 2], [1.0, 0.99])
        assert math.isnan(rate) and math.isnan(r2)
        assert n_used == 1


class TestRunSweep:
    def test_records_sorted_and_complete(self):
        records = run_sweep([0.0, 1.0], [1, 2],
                            opts=MinimizeOptions(max_iter=40))
        assert [(r.lam, r.m) for r in records] == \
            [(0.0, 1), (0.0, 2), (1.0, 1), (1.0, 2)]
        for rec in records:
            assert rec.status == "ok"
            assert rec.stop_reason in ("abs_tol", "stagnated", "no_descent")
            assert rec.n_local == 2 * rec.m * rec.m + 2 * rec.m + 1
            assert rec.error > 0.0

    def test_jobs_do_not_change_results(self):
        serial = run_sweep([0.0], [1, 2], opts=MinimizeOptions(max_iter=40))
        parallel = run_sweep([0.0], [1, 2],
                             opts=MinimizeOptions(max_iter=40), jobs=2)
        assert serial == parallel

    def test_max_iter_status(self):
        records = run_sweep([0.0], [3], opts=MinimizeOptions(max_iter=2))
        assert records[0].status == "max_iter"
        assert records[0].stop_reason == "max_iter"
        assert records[0].iterations == 2

    # The supernode m = 4 points meet the known null-dimension miscount.
    @pytest.mark.filterwarnings("ignore:detected null dimension:RuntimeWarning")
    def test_mirror_pair_stops_alike(self):
        # lam and 8 - lam are conjugate stencils: under the default stop rule
        # rounding noise no longer decides which of the two stops
        a, b = run_sweep([2.0, 6.0], [4], 2, 1)
        assert (a.iterations, a.stop_reason) == (b.iterations, b.stop_reason)
        assert a.status == b.status == "ok"
        assert abs(a.error - b.error) <= 1e-10 * max(a.error, b.error)

    def test_failure_marked_not_raised(self, monkeypatch):
        def boom(problem, opts):
            raise NumericalFailure("synthetic breakdown")

        monkeypatch.setattr(analysis, "linearized_minimize", boom)
        records = run_sweep([0.0], [1])
        assert records[0].status.startswith("failed:")
        assert records[0].stop_reason == "failed"
        assert math.isnan(records[0].error)

    def test_library_solve_error_is_a_failed_row(self, monkeypatch):
        # A LinAlgError in a step leaves the minimization as a
        # NumericalFailure with the partial trace, and the sweep goes on.
        solve = linearized.solve_for_da

        def breaks_at_lambda_two(system):
            if system.pattern is not None and lam_of[0] == 2.0:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return solve(system)

        lam_of = [None]
        extract = analysis.extract_local_supernode

        def recording(m, p, q, lam):
            lam_of[0] = lam
            return extract(m, p, q, lam)

        monkeypatch.setattr(linearized, "solve_for_da", breaks_at_lambda_two)
        monkeypatch.setattr(analysis, "extract_local_supernode", recording)
        records = run_sweep([0.0, 2.0, 3.5], [2])
        assert [r.status for r in records] == \
            ["ok", "failed: Eigenvalues did not converge", "ok"]
        assert records[1].stop_reason == "failed" and math.isnan(records[1].error)
        with pytest.raises(NumericalFailure, match="did not converge") as caught:
            linearized.linearized_minimize(recording(2, 1, 1, 2.0))
        assert isinstance(caught.value.__cause__, np.linalg.LinAlgError)
        assert caught.value.trace.stop_reason == "failed"
        assert len(caught.value.trace.iterations) == 0

    @pytest.mark.parametrize("action", ["always", "default"])
    def test_warnings_emitted_in_grid_order_at_any_jobs(self, action):
        # Each pool worker used to print a message once in its own registry,
        # so which messages reached stderr depended on the schedule.  Now the
        # sweep emits every point's warnings, in grid order, as one serial
        # run of the solves would: all of them, or each message once.
        lambdas, ms = [0.0, 2.0], [2, 3]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for lam in lambdas:
                for m in ms:
                    linearized_minimize(extract_local_supernode(m, 2, 1, lam))
        every = [(str(w.message), w.filename, w.lineno) for w in caught]
        once = list(dict.fromkeys(every))
        assert len(once) < len(every)  # the grid repeats a message
        for jobs in (1, 2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.resetwarnings()
                warnings.simplefilter(action)
                run_sweep(lambdas, ms, 2, 1, jobs=jobs)
            assert [(str(w.message), w.filename, w.lineno) for w in caught] == \
                (every if action == "always" else once)

    @pytest.mark.parametrize("jobs, n_points, workers", [
        (5000, 1, None),  # one point runs serially, no pool at all
        (5000, 3, 3),
        (2, 3, 2),
    ])
    def test_pool_capped_at_point_count(self, monkeypatch, jobs, n_points,
                                        workers):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        records = run_sweep([0.0], list(range(1, n_points + 1)),
                            opts=MinimizeOptions(max_iter=5), jobs=jobs)
        assert len(records) == n_points
        assert started == ([] if workers is None else [workers])


class TestSingleBlasThread:
    def test_every_point_on_one_thread_and_caller_count_restored(
            self, monkeypatch, openblas):
        # The pin is inside the solve, so the count is read there.
        seen = {}

        def recording(problem, report):
            seen.setdefault((problem.lam, problem.n_local), set()).add(
                openblas.get_threads())
            return split_spaces(problem, report)

        monkeypatch.setattr(linearized, "split_spaces", recording)
        before = openblas.get_threads()
        records = run_sweep([0.0, 1.0], [1, 2],
                            opts=MinimizeOptions(max_iter=5))
        assert len(records) == 4
        assert list(seen.values()) == [{1}, {1}, {1}, {1}]
        assert openblas.get_threads() == before

    def test_caller_count_restored_when_sweep_raises(self, monkeypatch,
                                                     openblas):
        def broken(problem, report):
            raise ValueError("not a numerical failure")

        monkeypatch.setattr(linearized, "split_spaces", broken)
        before = openblas.get_threads()
        with pytest.raises(ValueError):
            run_sweep([0.0], [1])
        assert openblas.get_threads() == before

    def test_vendored_library_found_without_proc_maps(self, monkeypatch):
        # Where /proc/self/maps cannot be read, numpy's vendored directory
        # is searched instead.
        if blas.find_openblas() is None:
            pytest.skip("no OpenBLAS thread control in this process")

        def no_proc(path, *args, **kwargs):
            raise OSError(f"cannot open {path}")

        monkeypatch.setattr(blas, "open", no_proc, raising=False)
        if not blas._library_paths():
            pytest.skip("numpy vendors no OpenBLAS here")
        found = blas.find_openblas.__wrapped__()
        assert found is not None
        assert found.config == blas.find_openblas().config

    def test_library_path_with_a_space(self, monkeypatch):
        # A maps line's pathname is its sixth field and may hold spaces.
        maps = ("7f00-7f10 r-xp 00000000 08:01 1234    /opt/fake blas/libopenblas.so.0\n"
                "7f10-7f20 r--p 00010000 08:01 1234    /opt/fake blas/libopenblas.so.0\n"
                "7f20-7f30 r-xp 00000000 08:01 5678    /usr/lib/libopenblas.so.0\n"
                "7f30-7f40 rw-p 00000000 00:00 0 \n")
        monkeypatch.setattr(blas, "open", lambda *args, **kwargs: io.StringIO(maps),
                            raising=False)
        assert blas._library_paths() == ["/opt/fake blas/libopenblas.so.0",
                                         "/usr/lib/libopenblas.so.0"]

    @pytest.fixture
    def fresh_lookup(self):
        blas.find_openblas.cache_clear()
        yield
        blas.find_openblas.cache_clear()

    def test_numpy_library_wins_over_a_plain_openblas_mapped_first(
            self, monkeypatch, openblas, fresh_lookup):
        # A plain-symbol OpenBLAS whose path sorts before numpy's, as one
        # under /opt or /usr/lib would, must not take the pin.
        numpy_names = blas._SYMBOLS[0][:2]
        real_libraries = blas._libraries
        if not any(all(hasattr(lib, name) for name in numpy_names)
                   for lib in real_libraries()):
            pytest.skip("numpy's OpenBLAS exports no scipy_openblas thread control here")

        class PlainOpenBlas(types.SimpleNamespace):
            def __getitem__(self, name):
                return getattr(self, name)

        plain = PlainOpenBlas(openblas_get_num_threads=lambda: 1,
                              openblas_set_num_threads=lambda threads: None)
        monkeypatch.setattr(blas, "_libraries",
                            lambda: itertools.chain([plain], real_libraries()))
        assert openblas.get_threads() == 2
        with blas.single_thread():
            assert openblas.get_threads() == 1
        assert openblas.get_threads() == 2
