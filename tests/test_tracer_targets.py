"""The benchmark's tracer targets and workload imports still exist in the package.

``perfbench/spans.py`` wraps riskfix functions at the module attribute
their callers look up, and ``perfbench/workloads.py`` imports riskfix
names and builds ``ExperimentConfig``s.  A refactor that removes or moves
one of those would leave the benchmark silently untimed or broken; these
checks make it fail the test suite instead.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_attribute_resolves():
    missing = [f"{module.__name__}.{attr}"
               for module, attr, _ in spans.PIECE_TARGETS + spans.LAYER_TARGETS
               if not callable(getattr(module, attr, None))]
    assert not missing, f"tracer targets gone: {missing}"


def test_every_workload_builds_its_config():
    for name, workload in workloads.WORKLOADS.items():
        config = workload.config(0)
        assert config.name == name and config.seed == 0
