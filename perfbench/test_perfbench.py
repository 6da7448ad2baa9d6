"""Tests of the benchmark itself: grids, pass checks and the tracer."""

import json
import random
import time

import pytest

import run  # puts perfbench/ on sys.path
from grids import SWEEP_LAMBDAS, WORKLOADS, Workload

run.import_package()
import passes  # noqa: E402
import tracing  # noqa: E402
from sparsecoarsen import cli  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = Workload("tiny", "sweep", ms=(1, 2))


def test_paper_grid_point_counts():
    counts = {name: len(w.points()) for name, w in WORKLOADS.items()}
    assert counts == {"sweep_scalar": 119, "supernode_sweep": 68, "large_region": 6}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_sweeps_use_the_cli_default_grid():
    assert SWEEP_LAMBDAS == cli._DEFAULTS["lambda-sweep"]["lambda"]
    assert "--lambda" not in WORKLOADS["sweep_scalar"].cli_args()
    assert len({lam for lam, _ in WORKLOADS["sweep_scalar"].points()}) == 17


def test_seed_orders_region_points_reproducibly():
    region = WORKLOADS["large_region"]
    first = run.pass_order(region, random.Random(7))
    assert first == run.pass_order(region, random.Random(7))
    assert sorted(first) == list(range(6))
    assert run.pass_order(WORKLOADS["sweep_scalar"], random.Random(7)) is None


def test_sweep_pass_counts_points_and_finds_no_problems(tmp_path):
    result = passes.run_pass(TINY, tmp_path)
    assert result.problems == [] and result.failing == set()
    assert [(c.lam, c.status) for c in result.calls] == [
        (lam, "ok") for lam, _ in TINY.points()]
    metrics, _ = run.end_to_end([result], [0.1])
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(value > 0 for value, _ in metrics.values())


def test_region_pass_verifies_and_writes_every_point(tmp_path):
    region = Workload("tiny_region", "region", ms=(2, 3), region_lambdas=(0.0, 3.5))
    result = passes.run_pass(region, tmp_path, order=[3, 2, 1, 0])
    assert result.problems == [] and result.failing == set()
    assert [c.lam for c in result.calls] == [3.5, 3.5, 0.0, 0.0]
    assert len((tmp_path / "global_verify.csv").read_text().splitlines()) == 5


def test_sweep_check_reports_a_broken_symmetry_row(tmp_path):
    result = passes.run_pass(TINY, tmp_path)
    path = tmp_path / "lambda_sweep_symmetry.csv"
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    path.write_text("\n".join([lines[0], ",".join(fields[:5] + ["0.5"])] + lines[2:]) + "\n")
    broken = passes.PassResult(0.0, 0.0, result.points, result.calls)
    passes._check_sweep(TINY, tmp_path, broken)
    lam, m = float(fields[0]), int(fields[2])
    assert broken.failing == {(lam, m), (8.0 - lam, m)}


def test_traced_self_times_fit_in_traced_wall(tmp_path):
    start = time.perf_counter()
    with tracing.Tracer() as tracer:
        result = passes.run_pass(TINY, tmp_path)
    wall = time.perf_counter() - start
    own = tracer.self_times()
    assert min(own) >= 0.0
    assert sum(own) <= wall
    names = {s.name for s in tracer.spans}
    assert {"analysis.run_sweep", "cli.write_csv", tracing.MINIMIZE, tracing.SPLIT} <= names

    metrics = tracing.layer_metrics(tracer, len(result.calls), wall, wall)
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert metrics["linearized.iters_per_point"][0] == pytest.approx(
        sum(c.steps for c in result.calls) / len(result.calls))


def test_tracer_restores_the_package():
    before = cli.run_sweep
    with tracing.Tracer():
        assert cli.run_sweep is not before
    assert cli.run_sweep is before
