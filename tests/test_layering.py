"""Layering guards: no module imports a layer that sits above it.

The paper core reproduces the paper and sits beneath the job service
(:mod:`repro.service`) and the command line (:mod:`repro.cli`).  Inside
the service, the store layer (job stores, checkpoints, the evaluation
cache) sits beneath the features that drive it: island groups, workers
and the job runner.  The scan covers every import in every module,
including imports inside functions and under ``TYPE_CHECKING``, so a
lazy import cannot hide an upward dependency.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).parent
CORE_PACKAGES = (
    "core", "data", "datasets", "hierarchy", "linkage", "methods", "metrics",
    "experiments", "utils",
)
FORBIDDEN = ("repro.service", "repro.cli")

STORE_LAYER_MODULES = ("store", "sqlstore", "netstore", "checkpoint", "cache")
STORE_LAYER_FORBIDDEN = (
    "repro.service.islands", "repro.service.worker", "repro.service.runner",
    "repro.cli",
)


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _imported_modules(module: str, source: str) -> list[tuple[int, str]]:
    """Every module an import in ``source`` names, with its line.

    ``module`` is the dotted name the source lives at (a package's
    ``__init__`` is the package itself); relative imports resolve
    against it.
    """
    is_package = (PACKAGE_ROOT.parent / module.replace(".", "/")).is_dir()
    package = module if is_package else module.rpartition(".")[0]
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = parts[: len(parts) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            # ``from repro import service`` names the submodule itself.
            found.extend((node.lineno, f"{base}.{alias.name}") for alias in node.names)
            found.append((node.lineno, base))
    return found


def _is_forbidden(name: str, forbidden: tuple[str, ...] = FORBIDDEN) -> bool:
    return any(name == bad or name.startswith(bad + ".") for bad in forbidden)


def _violations(paths, forbidden: tuple[str, ...]) -> list[str]:
    return [
        f"{path.relative_to(PACKAGE_ROOT.parent)}:{line}: {name}"
        for path in paths
        for line, name in _imported_modules(
            _module_name(path), path.read_text(encoding="utf-8"))
        if _is_forbidden(name, forbidden)
    ]


@pytest.mark.parametrize("package", CORE_PACKAGES)
def test_core_package_does_not_import_service_or_cli(package):
    modules = sorted((PACKAGE_ROOT / package).rglob("*.py"))
    assert modules, f"no modules under {package}: the scan would pass vacuously"
    assert _violations(modules, FORBIDDEN) == []


@pytest.mark.parametrize("module", STORE_LAYER_MODULES)
def test_store_layer_does_not_import_its_callers(module):
    path = PACKAGE_ROOT / "service" / f"{module}.py"
    assert path.is_file(), f"{path} is gone: the scan would pass vacuously"
    assert _violations([path], STORE_LAYER_FORBIDDEN) == []


def test_scanner_sees_lazy_relative_and_type_checking_imports():
    source = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.service.job import JobResult\n"
        "def lazy():\n"
        "    import repro.cli\n"
        "    from ..service import runner\n"
        "    from repro import service\n"
    )
    names = {
        name for _, name in _imported_modules("repro.metrics.probe", source)
        if _is_forbidden(name)
    }
    assert {"repro.service.job", "repro.cli", "repro.service.runner",
            "repro.service"} <= names
