"""Checks of the benchmark itself: run with ``python3 -m pytest perfbench``.

Small grids stand in for the workloads so the checks take seconds.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

Workload = workloads.Workload
SMALL = (
    # closed-form theory, PGD fallback at m=8
    Workload("small-nnls", "orthant", ("constant:2",), ((12, 8), (12, 40)), 10, 200),
    # Monte Carlo theory with the per-row PAVA loop, AMP
    Workload("small-isotonic", "monotone_cone", ("zero", "linear"), ((20, 20),), 10, 200),
    # vectorized l1 rows, sigma-doubling delta_K, AMP non-convergence
    Workload("small-l1", "l1_ball:5.5", ("linear",), ((10, 6), (10, 10)), 10, 200),
)


def test_counters_repeat_across_traced_runs():
    for workload in SMALL:
        first, second = (spans.layer_metrics(run.run_grid(workload, 3, traced=True).tracer)
                         for _ in range(2))
        keys = spans.counter_keys(first)
        assert "fixed_point.err_evals" in keys and "constraints.project.calls" in keys
        assert {k: first[k] for k in keys} == {k: second[k] for k in keys}, workload.name


def test_tracing_leaves_reports_unchanged():
    for workload in SMALL:
        plain = run.run_grid(workload, 4, traced=False)
        traced = run.run_grid(workload, 4, traced=True)
        assert [run._row_without_runtime(r) for r in plain.records] == \
            [run._row_without_runtime(r) for r in traced.records]


def test_solver_counts_agree_with_results():
    tracer = run.run_grid(SMALL[2], 5, traced=True).tracer
    metrics = spans.layer_metrics(tracer)
    amps = [tracer.attrs[i] for i, k in enumerate(tracer.name_id)
            if tracer.names[k] == "linear_model.amp_solve"]
    assert metrics["linear_model.amp_solve.calls"] == len(amps) == 20
    assert metrics["linear_model.amp_solve.iterations"] == sum(
        a[1] for a in amps if a[0] == "amp")
    assert metrics["linear_model.pgd_solve.calls"] >= metrics["linear_model.amp_solve.unconverged"]


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer = spans.layer_metrics(run.run_grid(SMALL[0], 6, traced=True).tracer)
    layer["trace_overhead_frac"] = 0.0
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: spans.unit(k) for k in layer}
