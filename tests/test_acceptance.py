"""End-to-end acceptance gate: twelve numbered criteria, one verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines as they
print; plain `pytest -v` still reports one PASSED/FAILED per criterion.
Minimizations are cached at module scope, so the whole gate runs in well
under a minute.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from sparsecoarsen.analysis import (
    default_verify_grid,
    fit_decay_rate,
    global_verify,
)
from sparsecoarsen.lattice import extract_local_scalar, extract_local_supernode
from sparsecoarsen.linearized import (
    MinimizeOptions,
    linearized_minimize,
    steepest_descent,
)
from sparsecoarsen.transform import (
    condition_of_y,
    initial_guess,
    residual_and_error,
)

from test_linearized import gap_null_count, linearized_phases, materialized_system
from test_transform import gradient, random_state

_CACHE = {}


def converged(lam, m, p=1, q=1, max_iter=200):
    """Cached minimization for one sweep point; warnings are not part of
    what the criteria measure, so the run is kept quiet."""
    key = (lam, m, p, q, max_iter)
    if key not in _CACHE:
        if (p, q) == (1, 1):
            problem = extract_local_scalar(m, lam)
        else:
            problem = extract_local_supernode(m, p, q, lam)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            pair, trace, diags = linearized_minimize(
                problem, MinimizeOptions(max_iter=max_iter))
        _CACHE[key] = (problem, pair, trace, diags)
    return _CACHE[key]


def verdict(num, label, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} [{label}]: {detail}"
    print(line)
    assert ok, line


class TestAcceptance:
    def test_criterion_01_three_methods_agree_at_m1(self):
        problem = extract_local_scalar(1, 0.0)
        _, sd_trace = steepest_descent(
            problem, MinimizeOptions(max_iter=3000, rel_tol=1e-14))
        _, lin_trace, _ = linearized_minimize(problem)

        # derivative-free oracle over the 10 free variables
        positions = problem.target_pattern.positions()
        start = initial_guess(problem)

        def objective(x):
            trial = start.copy()
            trial.y_rows[0] = x[:problem.n_local]
            for v, (i, j) in zip(x[problem.n_local:], positions):
                trial.a_tilde[i, j] = v
                trial.a_tilde[j, i] = v
            return residual_and_error(problem, trial).norm

        x0 = np.concatenate([start.y_rows[0],
                             [start.a_tilde[i, j] for i, j in positions]])
        assert len(x0) == 10
        brute = scipy_minimize(objective, x0, method="Nelder-Mead",
                               options=dict(maxiter=40000, maxfev=40000,
                                            xatol=1e-12, fatol=1e-14))
        values = [sd_trace.final_error, lin_trace.final_error, float(brute.fun)]
        spread = (max(values) - min(values)) / min(values)
        verdict(1, "m=1 oracle equivalence", spread <= 1e-6,
                f"sd={values[0]:.12e} lin={values[1]:.12e} "
                f"nelder-mead={values[2]:.12e} spread={spread:.2e} (<=1e-6)")

    def test_criterion_02_linearized_step_counts(self):
        steps = []
        ok = True
        for m in range(1, 6):
            _, _, trace, _ = converged(0.0, m)
            steps.append(trace.n_steps)
            ok = ok and trace.converged and trace.n_steps <= 2 * m + 5
        verdict(2, "steps <= 2m+5 for m=1..5", ok,
                f"steps={steps} gates={[2 * m + 5 for m in range(1, 6)]}")

    def test_criterion_03_null_space_detection(self):
        worst_plateau, worst_rhs = 0.0, 0.0
        ok = True
        for m in range(2, 7):
            problem, _, _, _ = converged(0.0, m)
            states = [initial_guess(problem), converged(0.0, m, max_iter=1)[1]]
            for pair in states:
                system = linearized_phases(problem, pair)[2]
                u, s, _ = system.eig
                null = gap_null_count(s)
                ok = ok and null == problem.n_interior
                if null:
                    plateau = float(s[len(s) - null:].max() / s[0])
                    worst_plateau = max(worst_plateau, plateau)
                    ok = ok and plateau <= 1e-8
                # the rhs part in the null directions, as solve_for_da forms it
                retained = len(s) - null
                rhs_norm = float(np.linalg.norm(system.rhs))
                rhs_null = (rhs_norm if retained == 0 else
                            float(np.linalg.norm(u[:, retained:].T @ system.rhs)))
                ok = ok and rhs_null <= 1e-12 * rhs_norm
                if rhs_norm > 0:
                    worst_rhs = max(worst_rhs, rhs_null / rhs_norm)
        verdict(3, "null dim = n_I for m=2..6", ok,
                f"initial and one-step states; plateau<= {worst_plateau:.1e} "
                f"(<=1e-8), rhs-null <= {worst_rhs:.1e}*|rhs| (<=1e-12)")

    def test_criterion_04_exponential_decay_in_m(self):
        ms = list(range(1, 7))
        errors = [converged(0.0, m)[2].final_error for m in ms]
        decreasing = all(b < a for a, b in zip(errors, errors[1:]))
        rate, r2, n_used = fit_decay_rate(ms[1:], errors[1:])
        ok = decreasing and rate > 0 and r2 >= 0.9 and n_used == 5
        verdict(4, "error decays exponentially in m", ok,
                f"errors={['%.3e' % e for e in errors]} rate={rate:.3f} "
                f"r2={r2:.4f} (>=0.9)")

    def test_criterion_05_lambda_symmetry(self):
        worst = 0.0
        for lam in (1.0, 2.0, 3.0):
            for m in (2, 3, 4):
                a = converged(lam, m)[2].final_error
                b = converged(8.0 - lam, m)[2].final_error
                worst = max(worst, abs(a - b) / min(a, b))
        verdict(5, "errors match at (lambda, 8-lambda)", worst <= 1e-8,
                f"pairs (1,7),(2,6),(3,5) at m=2..4, worst rel diff "
                f"{worst:.1e} (<=1e-8)")

    def test_criterion_06_rate_ordering(self):
        rates = {}
        for lam in (2.0, 3.0, 3.5):
            errors = [converged(lam, m)[2].final_error for m in range(2, 7)]
            rates[lam], _, _ = fit_decay_rate(list(range(2, 7)), errors)
        ok = rates[2.0] > rates[3.0] > rates[3.5]
        verdict(6, "decay rate drops toward lambda=4", ok,
                f"rate(2)={rates[2.0]:.4f} > rate(3)={rates[3.0]:.4f} > "
                f"rate(3.5)={rates[3.5]:.4f}")

    def test_criterion_07_conditioning_law(self):
        products = []
        for lam in (0.0, 1.0, 2.0, 3.0, 3.5):
            _, _, trace, _ = converged(lam, 4)
            cond = trace.iterations[-1].solve.cond_eq7_estimate
            products.append(trace.final_error * cond)
        ratio = max(products) / min(products)
        verdict(7, "error x condition estimate is flat", ratio < 10.0,
                f"m=4, lambda in {{0,1,2,3,3.5}}: max/min={ratio:.2f} (<10)")

    def test_criterion_08_y_conditioning(self):
        # make sure the full standard set is in the cache, then check all
        for lam in (0.0, 3.5):
            converged(lam, 4, p=2, q=1)
            converged(lam, 6)
        worst = 0.0
        for (lam, m, p, q, _), (_, pair, _, _) in sorted(_CACHE.items()):
            worst = max(worst, condition_of_y(pair))
        verdict(8, "cond(Y) < 12 in every run", worst < 12.0,
                f"{len(_CACHE)} completed minimizations, max cond(Y) = "
                f"{worst:.2f}")

    def test_criterion_09_supernode_benefit(self):
        # (p,q)=(2,1) at m=4 spans 82 nodes, the scalar m=6 region 85
        sup35 = converged(3.5, 4, p=2, q=1)[2].final_error
        scal35 = converged(3.5, 6)[2].final_error
        sup0 = converged(0.0, 4, p=2, q=1)[2].final_error
        scal0 = converged(0.0, 6)[2].final_error
        ratio0 = max(sup0 / scal0, scal0 / sup0)
        ok = sup35 < scal35 and ratio0 <= 3.0
        verdict(9, "supernodes help at comparable size", ok,
                f"lambda=3.5: {sup35:.3e} < {scal35:.3e}; lambda=0 ratio "
                f"{ratio0:.2f} (<=3)")

    def test_criterion_10_global_embedding(self):
        worst_rel, worst_block = 0.0, 0.0
        ok = True
        for lam in (0.0, 3.5):
            for m in (2, 4):
                problem, pair, _, _ = converged(lam, m)
                spec, center = default_verify_grid(problem)
                report = global_verify(spec, center, problem, pair)
                rel = abs(report.global_error - report.local_error) / \
                    report.local_error
                worst_rel = max(worst_rel, rel)
                worst_block = max(worst_block, report.coupling_block_max,
                                  report.external_block_max)
                ok = ok and rel <= 1e-12 and \
                    report.max_decoupled_offdiag <= report.local_error and \
                    report.coupling_block_max <= 1e-13 and \
                    report.external_block_max <= 1e-13
        verdict(10, "embedding changes nothing outside L", ok,
                f"global=local to {worst_rel:.1e} rel (<=1e-12); outside "
                f"blocks <= {worst_block:.1e} (<=1e-13)")

    def test_criterion_11_gradient_matches_finite_differences(self):
        h = 1e-6
        worst = 0.0
        ok = True
        for m in (1, 2, 3):
            for lam in (0.0, 3.5):
                problem = extract_local_scalar(m, lam)
                rng = np.random.default_rng(1000 * m + int(2 * lam))
                for state in range(20):
                    pair = random_state(problem, seed=state + 31 * m)
                    grad_y, grad_a = gradient(problem, pair)
                    floor = 1e-7 * max(np.abs(grad_y).max(),
                                       np.abs(grad_a).max(), 1.0)

                    def f(p):
                        return residual_and_error(problem, p).norm ** 2

                    for flat in rng.integers(0, pair.y_rows.size, size=10):
                        i, j = divmod(int(flat), problem.n_local)
                        probe = pair.copy()
                        probe.y_rows[i, j] += h
                        up = f(probe)
                        probe.y_rows[i, j] -= 2 * h
                        fd = (up - f(probe)) / (2 * h)
                        dev = abs(fd - grad_y[i, j]) / \
                            max(abs(fd), abs(grad_y[i, j]), floor)
                        worst = max(worst, dev)
                        ok = ok and dev <= 1e-5

                    positions = problem.target_pattern.positions()
                    for k in rng.integers(0, len(positions), size=10):
                        i, j = positions[int(k)]
                        probe = pair.copy()
                        probe.a_tilde[i, j] += h
                        if i != j:
                            probe.a_tilde[j, i] += h
                        up = f(probe)
                        probe.a_tilde[i, j] -= 2 * h
                        if i != j:
                            probe.a_tilde[j, i] -= 2 * h
                        fd = (up - f(probe)) / (2 * h)
                        dev = abs(fd - grad_a[i, j]) / \
                            max(abs(fd), abs(grad_a[i, j]), floor)
                        worst = max(worst, dev)
                        ok = ok and dev <= 1e-5
        verdict(11, "analytic gradient vs central differences", ok,
                f"20 random states x 6 configurations, worst rel dev "
                f"{worst:.1e} (<=1e-5)")

    def test_criterion_12_normal_system_matches_brute_force(self):
        worst = 0.0
        ok = True
        cases = [extract_local_scalar(1, 0.0), extract_local_scalar(2, 0.0),
                 extract_local_scalar(2, 3.5),
                 extract_local_supernode(1, 2, 1, 0.0)]
        for problem in cases:
            states = [initial_guess(problem),
                      random_state(problem, seed=1),
                      random_state(problem, seed=2)]
            for pair in states:
                _, split, system = linearized_phases(problem, pair)
                ref_matrix, ref_rhs = materialized_system(problem, pair, split)
                scale = np.abs(ref_matrix).max()
                dev = np.abs(system.matrix - ref_matrix).max() / scale
                rhs_dev = np.abs(system.rhs - ref_rhs).max() / max(scale, 1.0)
                worst = max(worst, dev, rhs_dev)
                ok = ok and dev <= 1e-12 and rhs_dev <= 1e-12
        verdict(12, "structured assembly = materialized operator", ok,
                f"m<=2 and (p,q,m)=(2,1,1), 3 states each, worst rel dev "
                f"{worst:.1e} (<=1e-12)")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
