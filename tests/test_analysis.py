import math

import numpy as np
import pytest

import sparsecoarsen.analysis as analysis
import sparsecoarsen.blas as blas
from sparsecoarsen.analysis import (
    default_verify_grid,
    fit_decay_rate,
    global_verify,
    run_sweep,
    spatial_decay,
    spectrum_at,
)
from sparsecoarsen.errors import NumericalFailure
from sparsecoarsen.lattice import StencilSpec, build_helmholtz, extract_local_scalar
from sparsecoarsen.linearized import MinimizeOptions, linearized_minimize
from sparsecoarsen.transform import initial_guess, residual_and_error


class TestSpectrum:
    def test_counts_cover_whole_spectrum(self):
        problem = extract_local_scalar(2, 0.0)
        report = spectrum_at(problem, initial_guess(problem))
        assert len(report.sigma) == problem.target_pattern.n_entries
        assert report.null_dim + report.retained == len(report.sigma)
        assert np.all(np.diff(report.sigma) <= 0)

    def test_gauge_null_dimension_detected(self):
        for m in (2, 3):
            problem = extract_local_scalar(m, 0.0)
            report = spectrum_at(problem, initial_guess(problem))
            assert report.null_dim == problem.n_interior

    def test_condition_estimate_is_square_root(self):
        problem = extract_local_scalar(2, 0.0)
        report = spectrum_at(problem, initial_guess(problem))
        assert report.cond_eq7_estimate == \
            pytest.approx(math.sqrt(report.cond_retained))
        assert report.gap_ratio < 1e-10


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
        a = build_helmholtz(spec).toarray()
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
        assert records[0].iterations == 2

    def test_failure_marked_not_raised(self, monkeypatch):
        def boom(problem, opts):
            raise NumericalFailure("synthetic breakdown")

        monkeypatch.setattr(analysis, "linearized_minimize", boom)
        records = run_sweep([0.0], [1])
        assert records[0].status.startswith("failed:")
        assert math.isnan(records[0].error)

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

        monkeypatch.setattr(analysis, "ProcessPoolExecutor", SerialPool)
        records = run_sweep([0.0], list(range(1, n_points + 1)),
                            opts=MinimizeOptions(max_iter=5), jobs=jobs)
        assert len(records) == n_points
        assert started == ([] if workers is None else [workers])


@pytest.fixture
def openblas():
    """numpy's OpenBLAS thread control, at 2 threads for the test's duration."""
    control = blas.find_openblas()
    if control is None:
        pytest.skip("no OpenBLAS thread control in this process")
    before = control.get_threads()
    control.set_threads(2)  # a caller count the pin must override and restore
    try:
        yield control
    finally:
        control.set_threads(before)


class TestSingleBlasThread:
    def test_every_point_on_one_thread_and_caller_count_restored(
            self, monkeypatch, openblas):
        seen = []

        def recording(problem, opts):
            seen.append(openblas.get_threads())
            return linearized_minimize(problem, opts)

        monkeypatch.setattr(analysis, "linearized_minimize", recording)
        before = openblas.get_threads()
        records = run_sweep([0.0, 1.0], [1, 2],
                            opts=MinimizeOptions(max_iter=5))
        assert len(records) == 4
        assert seen == [1, 1, 1, 1]
        assert openblas.get_threads() == before

    def test_caller_count_restored_when_sweep_raises(self, monkeypatch,
                                                     openblas):
        def broken(problem, opts):
            raise ValueError("not a numerical failure")

        monkeypatch.setattr(analysis, "linearized_minimize", broken)
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
