"""API-quality meta-tests: every public symbol is documented, every
subpackage imports cleanly (catches broken __init__ exports early), and
every public definition has a caller outside the tests."""

import ast
import importlib
import inspect
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro

SUBPACKAGES = [
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
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


ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Test-only today, kept on purpose: ROADMAP items 12 and 15 (the
#: context-per-budget measurement and the per-strategy communication
#: check) give it a runtime caller.
TEST_ONLY_EXCEPTIONS = {"MegatronModelRunner"}


def _code_names(path: Path, *, imports: bool = True) -> Counter:
    """Names ``path``'s code uses: loaded names, attribute accesses and,
    with ``imports``, imported names.  Docstrings and comments are not
    code, so naming a definition there is not a use."""
    names = Counter()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.name.rsplit(".", 1)[-1] for a in node.names)
    return names


class TestNoTestOnlyCode:
    def test_every_public_definition_has_a_caller_outside_tests(self):
        """A public top-level function or class of a ``src/repro``
        module must be used by code other than its own definition and
        the ``__init__`` re-exports: elsewhere in ``src/``, in
        ``perf/``, ``benchmarks/`` or ``examples/``, or by a command in
        the Makefile or CI.  Code that only tests call does not belong
        in ``src/``."""
        modules = sorted(SRC.rglob("*.py"))
        uses = Counter()
        for path in modules:
            uses.update(_code_names(path, imports=path.name != "__init__.py"))
        for d in ("perf", "benchmarks", "examples"):
            for path in sorted((ROOT / d).rglob("*.py")):
                uses.update(_code_names(path))
        commands = [ROOT / "Makefile", *sorted((ROOT / ".github").rglob("*.yml"))]
        for path in commands:
            uses.update(re.findall(r"[A-Za-z_]\w*", path.read_text()))
        unused = []
        for path in modules:
            if path.name == "__init__.py":
                continue
            for node in ast.parse(path.read_text()).body:
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    continue
                name = node.name
                if name.startswith("_") or name in TEST_ONLY_EXCEPTIONS:
                    continue
                if not uses[name]:
                    unused.append(f"{path.relative_to(SRC)}:{node.lineno} {name}")
        assert not unused, f"defined in src/, called only by tests: {unused}"
