"""Checked-in ``BENCH_*.json`` files parse and name only what ``BENCHMARK.json`` lists.

Trace-0 runs and summaries carry end-to-end metrics only; a ``--trace 1``
result may also carry the per-layer metrics.  ``BENCHMARK.json`` is read,
never written.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({w["name"] for w in spec["workloads"]},
            {m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


def workload_entries(node):
    """Every dict under ``node`` that names a workload."""
    if isinstance(node, dict):
        if "workload" in node:
            yield node
        for value in node.values():
            yield from workload_entries(value)
    elif isinstance(node, list):
        for value in node:
            yield from workload_entries(value)


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_names_only_declared_workloads_and_metrics(path):
    workloads, end_to_end, per_layer = declared()
    entries = list(workload_entries(json.loads(path.read_text(encoding="utf-8"))))
    assert entries
    for entry in entries:
        assert entry["workload"] in workloads, entry["workload"]
        assert set(entry.get("metrics", {})) <= end_to_end, entry["workload"]
        traced = entry.get("result", {}).get("metrics", {})
        assert set(traced) <= end_to_end | per_layer, entry["workload"]
