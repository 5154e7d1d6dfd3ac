"""scipy's two compiled cores load from their files, without their packages.

``import riskfix`` must not run the ``scipy.optimize`` or ``scipy.special``
package imports (about half a second, none of it used), and a missing core
file must fail by name.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from riskfix import _scipy_core

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_neither_scipy_package():
    code = ("import json, sys\n"
            "import riskfix, riskfix.cli\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    loaded = json.loads(done.stdout)
    assert "riskfix.cli" in loaded
    assert [name for name in loaded
            if name.startswith(("scipy.optimize", "scipy.special"))] == []


def test_missing_core_file_is_an_import_error_naming_it():
    with pytest.raises(ImportError, match="optimize/_no_such_core"):
        _scipy_core._load("optimize", "_no_such_core")
