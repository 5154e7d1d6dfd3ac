"""The benchmark's tracer targets and workload imports still exist in the package.

``perfbench/spans.py`` wraps riskfix functions at the module attribute
their callers look up, and ``perfbench/workloads.py`` imports riskfix
names and builds ``ExperimentConfig``s.  A refactor that removes or moves
one of those would leave the benchmark silently untimed or broken; these
checks make it fail the test suite instead.
"""

import importlib
import pkgutil
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import riskfix
import riskfix.experiments as experiments

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_attribute_resolves():
    missing = [f"{module.__name__}.{attr}"
               for module, attr, _ in spans.PIECE_TARGETS + spans.LAYER_TARGETS
               if not callable(getattr(module, attr, None))]
    assert not missing, f"tracer targets gone: {missing}"


def test_every_imported_row_pass_is_traced():
    # A call through a module's own import binding is seen only if the tracer
    # wraps the name in that module; an unwrapped one is timed into its
    # caller's self time and counted nowhere.
    traced = {(module.__name__, attr) for module, attr, _ in spans.PIECE_TARGETS + spans.LAYER_TARGETS}
    importers = []
    for info in pkgutil.iter_modules(riskfix.__path__, "riskfix."):
        module = importlib.import_module(info.name)
        for attr in ("project_rows", "gaussian_rows", "process_rows"):
            function = getattr(module, attr, None)
            if function is not None and function.__module__ != module.__name__:
                importers.append((module.__name__, attr))
    untraced = [f"{name}.{attr}" for name, attr in importers if (name, attr) not in traced]
    assert not untraced, f"row passes the tracer does not count: {untraced}"
    assert ("riskfix.sequence", "project_rows") in importers, importers  # the scan sees imports


def test_every_workload_builds_its_config():
    for name, workload in workloads.WORKLOADS.items():
        config = workload.config(0)
        assert config.name == name and config.seed == 0


def test_each_cell_is_one_solve_then_one_empirical_risk(monkeypatch):
    # The benchmark adds each empirical_risk call to the cell of the solve
    # before it (spans.piece_times), so predict_s, verify_s and cell_s_max
    # need the two to alternate, once each per cell, on multi-signal grids too.
    calls = []
    for name in ("solve", "empirical_risk"):
        original = getattr(experiments, name)

        def recorded(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(experiments, name, recorded)
    config = replace(workloads.WORKLOADS["isotonic-grid"].config(0),
                     grid=((12, 12), (20, 20)), replicates=10, samples=200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        records = experiments.run_experiment(config)
    assert len(records) == 6
    assert calls == ["solve", "empirical_risk"] * len(records)
