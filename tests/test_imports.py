"""Every module of the package imports on the installed numpy.

An import-time failure in a module with no test module of its own would
otherwise surface only as a collection error of some other test module; this
check names the module that broke.
"""

import importlib

import pytest

MODULES = [
    "spectral_core",
    "littlewood_paley",
    "model",
    "integrator",
    "diagnostics",
    "oscillatory",
    "rng",
    "identities",
    "cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(f"qmkdv.{name}")
