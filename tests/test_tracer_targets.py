"""The benchmark tracer's targets still exist in the package.

``perfbench/spans.py`` wraps riskfix functions at the module attribute
their callers look up.  A refactor that removes or moves one of those
attributes would leave the benchmark silently untimed; this check makes it
fail the test suite instead.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402


def test_every_traced_attribute_resolves():
    missing = [f"{module.__name__}.{attr}"
               for module, attr, _ in spans.PIECE_TARGETS + spans.LAYER_TARGETS
               if not callable(getattr(module, attr, None))]
    assert not missing, f"tracer targets gone: {missing}"
