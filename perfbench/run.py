#!/usr/bin/env python3
"""sparsecoarsen benchmark: run one workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload sweep_scalar --seed 0 --seconds 40 --trace 0

--trace 0 times whole passes over the workload's grid and reports the
end-to-end metrics.  --trace 1 runs an untraced, a traced and another
untraced pass and reports the per-layer metrics.  The package is imported
from ``src/`` of the checkout; without it the run fails.  The last line of
standard output is the result object; the lines before it record the
environment and the sample counts.  The same record, with the spans of a
traced run, is written under ``.perfbench/``.
"""

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 11
ERROR_FLOOR = 1e-16  # error_log10_mean counts decades above this, so it stays positive
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS",
            "OPENBLAS_CORETYPE", "OMP_WAIT_POLICY", "OMP_PROC_BIND")

sys.path.insert(0, str(HERE))
from grids import WORKLOADS  # noqa: E402  (pure data, imports no numpy)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the large_region points; recorded with the result")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="passes start while the next one should end within this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import sparsecoarsen from this checkout's src/, never from elsewhere."""
    if not (SRC / "sparsecoarsen" / "__init__.py").is_file():
        raise SystemExit(f"error: no sparsecoarsen package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sparsecoarsen

    if Path(sparsecoarsen.__file__).resolve().parent != SRC / "sparsecoarsen":
        raise SystemExit(f"error: imported sparsecoarsen from {sparsecoarsen.__file__}")


def set_up(workload, outdir):
    """Import the package and warm the workload's code path; returns seconds taken."""
    start = time.perf_counter()
    import_package()
    import passes

    passes.warm_up(workload, outdir)
    return time.perf_counter() - start


def probe_set_up(workload):
    """Set-up time of a fresh process: import and warm-up, without interpreter start."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload.name, "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def environment(args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version")},
        "blas_env": {key: os.environ.get(key) for key in BLAS_ENV},
    }


def pass_order(workload, rng):
    if workload.kind != "region":
        return None
    n = len(workload.points())
    return rng.sample(range(n), n)


def timed_passes(workload, args, outdir, probes):
    """Closed-loop passes until the next one would end after --seconds (at least one).

    Returns the passes and `probes` set-up samples.  Half the samples are
    taken before the first pass, one after each pass and the rest at the end,
    so that they spread over the run: the machine's speed drifts over tens of
    seconds.
    """
    import passes

    rng, results = random.Random(args.seed), []
    setup = [probe_set_up(workload) for _ in range(probes // 2)]
    while True:
        results.append(passes.run_pass(workload, outdir, pass_order(workload, rng)))
        if len(setup) < probes:
            setup.append(probe_set_up(workload))
        measured = sum(r.wall for r in results)
        if measured * (len(results) + 1) / len(results) > args.seconds:
            break
    setup += [probe_set_up(workload) for _ in range(probes - len(setup))]
    return results, setup


def _add_one_frac(count, total):
    """(count + 1) / (total + 1): a share that reads above 0 even with no cases."""
    return (count + 1) / (total + 1)


def _pass_quality(result):
    calls = result.calls
    solved = [c for c in calls if c.status != "failed"]
    return {
        "outer_steps": sum(c.steps for c in calls),
        "error_log10_mean": statistics.fmean(
            math.log10(max(c.error, ERROR_FLOOR) / ERROR_FLOOR) for c in solved)
        if solved else 0.0,
        "failed_frac": _add_one_frac(len(calls) - len(solved), len(calls)),
        "max_iter_frac": _add_one_frac(sum(c.status == "max_iter" for c in calls), len(calls)),
        "null_mismatch_frac": _add_one_frac(sum(c.null_mismatch for c in calls), len(calls)),
        "check_fail_frac": _add_one_frac(len(result.failing), len(calls)),
    }


QUALITY_UNITS = {
    "outer_steps": "count",
    "error_log10_mean": "log10_vs_1e-16",
    "failed_frac": "frac_add1",
    "max_iter_frac": "frac_add1",
    "null_mismatch_frac": "frac_add1",
    "check_fail_frac": "frac_add1",
}


def end_to_end(results, setup):
    calls = [c for r in results for c in r.calls]
    # Each point's median solve time over the passes, then quantiles over the
    # points: the extremes of pooled samples from a few problem sizes swing
    # with every slow call, the per-point medians do not.
    per_point = {}
    for r in results:
        for point, call in zip(r.points, r.calls):
            per_point.setdefault(point, []).append(call.seconds)
    times = sorted(statistics.median(ts) for ts in per_point.values())
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1]
    usage = [resource.getrusage(who).ru_maxrss for who in
             (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "points_per_s": (len(calls) / sum(r.wall for r in results), "1/s"),
        "solve_s_p50": (statistics.median(times), "s"),
        "solve_s_p90": (p90, "s"),
        "cpu_s_per_point": (sum(r.cpu for r in results) / len(calls), "s"),
        "peak_rss_mb": (max(usage) / 1024.0, "MB"),  # ru_maxrss is in KiB on Linux
    }
    quality = [_pass_quality(r) for r in results]
    for name, unit in QUALITY_UNITS.items():
        metrics[name] = (statistics.median(q[name] for q in quality), unit)
    info = {"passes": len(results), "solve_samples": len(calls), "solve_points": len(times),
            "solve_points_beyond_p90": sum(t > p90 for t in times),
            "pass_wall_s": [r.wall for r in results], "setup_samples_s": setup}
    return metrics, info


def traced_metrics(workload, args, outdir, trace_path):
    import passes
    import tracing

    # Untraced passes before and after the traced one, so that a slow drift of
    # the machine's speed cancels out of trace.overhead_frac.
    order = pass_order(workload, random.Random(args.seed))
    before = passes.run_pass(workload, outdir, order)
    with tracing.Tracer() as tracer:
        traced = passes.run_pass(workload, outdir, order)
    after = passes.run_pass(workload, outdir, order)
    tracer.write(trace_path)
    untraced_wall = (before.wall + after.wall) / 2
    metrics = tracing.layer_metrics(tracer, len(traced.calls), untraced_wall, traced.wall)
    info = {"spans": len(tracer.spans), "untraced_wall_s": [before.wall, after.wall],
            "traced_wall_s": traced.wall, "trace_file": str(trace_path.relative_to(ROOT))}
    return [before, traced, after], metrics, info


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        setup = [set_up(workload, outdir)]
        if args.setup_probe:
            print(setup[0])
            return 0
        env = environment(args)
        stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            results, metrics, info = traced_metrics(workload, args, outdir,
                                                    WORK / f"spans-{stem}.jsonl")
        else:
            results, probed = timed_passes(workload, args, outdir, SETUP_SAMPLES - 1)
            metrics, info = end_to_end(results, setup + probed)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    problems = sorted({p for r in results for p in r.problems})
    calls = [c for r in results for c in r.calls]
    info.update(problems=problems,
                check_failures=sorted({pt for r in results for pt in r.failing}))
    result = {
        # Symmetry and locality failures are a metric (check_fail_frac), not a
        # verdict: the package fails some of them today (see README.md).
        "correct": not problems,
        "attempted": len(calls),
        "failed": sum(c.status == "failed" for c in calls),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (WORK / f"result-{stem}.json").write_text(
        json.dumps({"env": env, "info": info, **result}, indent=1) + "\n")
    print("env " + json.dumps(env))
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
