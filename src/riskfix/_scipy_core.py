"""scipy's two compiled cores riskfix calls, loaded from their own files.

Importing ``pava`` (the PAVA core of ``scipy.optimize.isotonic_regression``)
or ``ndtr`` the usual way first runs the ``scipy.optimize`` or
``scipy.special`` package import, about half a second riskfix never uses.
Loaded here, each core is a module object of its own under its bare name
(the ufunc module enters ``sys.modules`` as ``_special_ufuncs``): the same
compiled functions, not the objects scipy's packages hold.  A missing file
is an ``ImportError`` naming it; there is no fallback path.
"""

import importlib.machinery
import importlib.util
import os

import scipy


def _load(package: str, name: str):
    """Load the extension module ``name`` from scipy's ``package`` directory."""
    directory = os.path.join(scipy.__path__[0], package)
    spec = importlib.machinery.PathFinder.find_spec(name, [directory])
    if spec is None:
        raise ImportError(f"riskfix needs scipy's compiled module {package}/{name}, "
                          f"not found under {directory}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pava_pybind = _load("optimize", "_pava_pybind")
special_ufuncs = _load("special", "_special_ufuncs")
pava = pava_pybind.pava
ndtr = special_ufuncs.ndtr
