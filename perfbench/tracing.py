"""Spans around calls into the package's layers, and the per-layer metrics.

The tracer replaces public functions in the module namespace where their
callers look them up (``linearized.residual_and_error`` is the name
``linearized_minimize`` calls, ``analysis.linearized_minimize`` the one
``run_sweep`` calls).  Nothing in the package changes.  Spans stay in memory
as (name, start, end, parent) and are written out when the run ends.
"""

import functools
import json
import os
import time
from dataclasses import dataclass, field

from sparsecoarsen import analysis, cli, lattice, linearized

MINIMIZE = "linearized.linearized_minimize"
SPLIT = "linearized.split_spaces"
# Phases of one outer iteration, by metric stem; their .m4/.m8 variants
# cover only the points with that m.
PHASES = {
    "linearized.split_spaces": SPLIT,
    "linearized.build_normal_system": "linearized.build_normal_system",
    "linearized.solve_for_da": "linearized.solve_for_da",
    "linearized.compute_dy": "linearized.compute_dy",
    "linearized.line_search": "linearized.line_search",
    "linearized.minimize_self": MINIMIZE,
}
VARIANT_MS = (4, 8)


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)


def _split_svd_flops(problem, *_args, **_kwargs):
    """Full SVD of the n_I x n_L matrix K with both singular bases (Golub & Van Loan)."""
    n_i, n_l = problem.n_interior, problem.n_local
    return 4.0 * n_l * n_l * n_i + 8.0 * n_l * n_i * n_i + 9.0 * n_i**3


def _note_extract(args, kwargs, result):
    return {"m": args[0]}


def _note_minimize(args, kwargs, result):
    trace = result[1]
    return {"steps": trace.n_steps, "max_iter": not trace.converged}


def _note_split(args, kwargs, result):
    return {"flop": _split_svd_flops(*args)}


def _note_solve(args, kwargs, result):
    system, diag = args[0], result[1]
    n = len(system.rhs)
    # svd(hermitian=True) is an eigh with eigenvectors: about 9 n^3 flops.
    return {"flop": 9.0 * n**3,
            "mismatch": system.expected_null is not None
            and diag.null_dim != system.expected_null}


def _note_line_search(args, kwargs, result):
    return {"zero_alpha": result[0] == 0.0}


def _note_write(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, note): the attribute is replaced in that
# module, which is where its callers look it up.
TARGETS = (
    (cli, "run_sweep", "analysis.run_sweep", None),
    (cli, "write_csv", "cli.write_csv", _note_write),
    (analysis, "extract_local_scalar", "lattice.extract", _note_extract),
    (analysis, "extract_local_supernode", "lattice.extract", _note_extract),
    (lattice, "extract_local_scalar", "lattice.extract", _note_extract),
    (analysis, "linearized_minimize", MINIMIZE, _note_minimize),
    (linearized, "linearized_minimize", MINIMIZE, _note_minimize),
    (analysis, "condition_of_y", "transform.condition_of_y", None),
    (analysis, "global_verify", "analysis.global_verify", None),
    (linearized, "split_spaces", SPLIT, _note_split),
    (linearized, "build_normal_system", "linearized.build_normal_system", None),
    (linearized, "solve_for_da", "linearized.solve_for_da", _note_solve),
    (linearized, "compute_dy", "linearized.compute_dy", None),
    (linearized, "line_search", "linearized.line_search", _note_line_search),
    (linearized, "residual_and_error", "transform.residual_and_error", None),
)


class Tracer:
    """Records a span per wrapped call; use as a context manager to patch and restore."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        for module, attr, name, note in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, note))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, original, name, note):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span.info = note(args, kwargs, result)
            return result

        return traced

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end, **s.info}) + "\n")


def _ratio(part, whole):
    """part / whole, or 0 when the workload never reaches that layer."""
    return part / whole if whole else 0.0


def _ms_per(total_s, count):
    return 1e3 * _ratio(total_s, count)


def layer_metrics(tracer, points, untraced_wall, traced_wall):
    """Per-layer metrics of one traced pass over `points` grid points."""
    spans = tracer.spans
    own = tracer.self_times()

    # m of each span: every point extracts its problem and then minimizes it,
    # so a linearized_minimize span belongs to the latest extract before it.
    span_m, last_m = [None] * len(spans), None
    for i, s in enumerate(spans):
        if s.name == "lattice.extract":
            last_m = s.info["m"]
        elif s.name == MINIMIZE:
            span_m[i] = last_m
        elif s.parent is not None:
            span_m[i] = span_m[s.parent]

    def named(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def total(name, attr=None):
        idx = named(name)
        if attr is None:
            return sum(spans[i].end - spans[i].start for i in idx)
        return sum(spans[i].info.get(attr, 0) for i in idx)  # a raising call has no note

    metrics = {}
    for m in (None,) + VARIANT_MS:
        iters = sum(1 for i in named(SPLIT) if m is None or span_m[i] == m)
        suffix = "" if m is None else f".m{m}"
        for stem, name in PHASES.items():
            busy = sum(own[i] for i in named(name) if m is None or span_m[i] == m)
            metrics[f"{stem}_ms_per_iter{suffix}"] = (_ms_per(busy, iters), "ms")

    iters = len(named(SPLIT))
    minimizes = [spans[i].info for i in named(MINIMIZE)]
    steps = sum(info.get("steps", 0) for info in minimizes)
    searches = named("linearized.line_search")
    sweep_wall = total("analysis.run_sweep")
    busy = sum(spans[i].end - spans[i].start for i, s in enumerate(spans)
               if s.parent is not None and spans[s.parent].name == "analysis.run_sweep")
    residuals = named("transform.residual_and_error")
    zero_alpha = sum(spans[i].info.get("zero_alpha", 0) for i in searches)
    max_iter_steps = sum(info["steps"] for info in minimizes if info.get("max_iter"))
    solve = "linearized.solve_for_da"
    metrics.update({
        "linearized.normal_svd_gflop_computed": (total(solve, "flop") / 1e9, "GFLOP"),
        "linearized.split_svd_gflop_computed": (total(SPLIT, "flop") / 1e9, "GFLOP"),
        "linearized.null_mismatch_iters": (total(solve, "mismatch"), "count"),
        "linearized.iters_per_point": (steps / points, "count"),
        "linearized.zero_alpha_frac": (_ratio(zero_alpha, len(searches)), "frac"),
        "linearized.max_iter_iter_share": (_ratio(max_iter_steps, steps), "frac"),
        "transform.residual_and_error_calls_per_iter": (_ratio(len(residuals), iters), "count"),
        "transform.residual_and_error_ms_per_iter": (
            _ms_per(sum(own[i] for i in residuals), iters), "ms"),
        "transform.condition_of_y_ms_per_point": (
            _ms_per(total("transform.condition_of_y"), points), "ms"),
        "lattice.extract_ms_per_point": (_ms_per(total("lattice.extract"), points), "ms"),
        "analysis.pool_efficiency": (_ratio(busy, sweep_wall), "frac"),  # one job
        "analysis.run_sweep_s": (sweep_wall, "s"),
        "analysis.global_verify_ms_per_point": (
            _ms_per(total("analysis.global_verify"), points), "ms"),
        "cli.write_ms": (1e3 * total("cli.write_csv"), "ms"),
        "cli.bytes_written": (total("cli.write_csv", "bytes"), "bytes"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "frac"),
    })
    return metrics
