"""API-quality meta-tests: every public symbol is documented and every
subpackage imports cleanly (catches broken __init__ exports early)."""

import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = [
    "repro.common", "repro.hardware", "repro.runtime", "repro.models",
    "repro.parallel", "repro.core", "repro.perfmodel", "repro.training",
    "repro.experiments", "repro.profiler", "repro.telemetry",
]


def _walk_modules():
    out = []
    for pkg_name in SUBPACKAGES:
        pkg = importlib.import_module(pkg_name)
        out.append(pkg_name)
        for info in pkgutil.iter_modules(pkg.__path__):
            out.append(f"{pkg_name}.{info.name}")
    return out


class TestImports:
    @pytest.mark.parametrize("module_name", _walk_modules())
    def test_module_imports(self, module_name):
        importlib.import_module(module_name)

    @pytest.mark.parametrize("package", [
        "repro.models", "repro.core", "repro.parallel", "repro.training",
        "repro.serving",
    ])
    def test_package_imports_first_in_a_fresh_interpreter(self, package):
        """Each package imports on its own: an import cycle shows only
        when its package is the first one a process imports."""
        src = Path(repro.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", f"import {package}"],
            cwd=src, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr

    def test_all_exports_resolve(self):
        """Every name in a package's __all__ actually exists."""
        for pkg_name in SUBPACKAGES:
            pkg = importlib.import_module(pkg_name)
            for name in getattr(pkg, "__all__", []):
                assert hasattr(pkg, name), f"{pkg_name}.{name}"


class TestDocstrings:
    @pytest.mark.parametrize("module_name", _walk_modules())
    def test_module_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip(), module_name

    def test_public_functions_and_classes_documented(self):
        undocumented = []
        for module_name in _walk_modules():
            module = importlib.import_module(module_name)
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                    continue
                if getattr(obj, "__module__", None) != module_name:
                    continue  # re-export; documented at its home
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(f"{module_name}.{name}")
        assert not undocumented, f"undocumented public API: {undocumented[:10]}"
