"""Every ``src/repro`` module must be reachable from a product entry point.

The import graph is built statically with :mod:`ast`.  A name imported from
a package is resolved through the package ``__init__`` re-exports to the
submodule that defines it, so re-exporting a module's names does not count
as a caller.  The roots are the product surfaces: ``python -m repro``, the
CLI, the serving plane, the experiments and the static checker.  A module
no root reaches has no production caller and is either given one or
deleted; the allowlist below names the few kept on purpose.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ROOT_MODULES = ("repro.__main__", "repro.cli")
ROOT_PACKAGES = ("repro.serve", "repro.experiments", "repro.check")

KEPT_UNREACHABLE = {
    # Scalar reference number that tests/test_datapath_modes.py compares
    # the vectorized datapath against.
    "repro.fixedpoint.number",
    # Independent KKT verifier that tests/test_certificate.py uses to
    # certify SLSQP, barrier and LDA-FP node solutions.
    "repro.optim.certificate",
    # Analytic precision curves behind benchmarks/test_wordlength_exploration.py,
    # which writes results/wordlength_exploration.txt.
    "repro.wordlength.precision",
}


def _discover() -> dict[str, Path]:
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def _is_package(modules: dict[str, Path], name: str) -> bool:
    return modules[name].name == "__init__.py"


def _absolute(modules, importer: str, node: ast.ImportFrom) -> str:
    if node.level == 0:
        return node.module or ""
    package = importer if _is_package(modules, importer) else importer.rpartition(".")[0]
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{node.module}" if node.module else package


def _import_froms(modules, name: str):
    """Yield ``(absolute source module, imported name, bound name)``."""
    tree = ast.parse(modules[name].read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _absolute(modules, name, node)
            for alias in node.names:
                yield source, alias.name, alias.asname or alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None, None


def _resolve(modules, source: str, name: str | None, seen=frozenset()) -> str | None:
    """The module that defines ``name`` as imported from ``source``."""
    if source not in modules:
        return None
    if name is None or name == "*":
        return source
    if f"{source}.{name}" in modules:
        return f"{source}.{name}"
    if not _is_package(modules, source) or (source, name) in seen:
        return source
    for origin, original, bound in _import_froms(modules, source):
        if bound == name:
            return _resolve(modules, origin, original, seen | {(source, name)})
    return source


def unreachable_modules() -> set[str]:
    modules = _discover()
    roots = [m for m in modules if m in ROOT_MODULES]
    roots += [
        m for m in modules for p in ROOT_PACKAGES if m == p or m.startswith(p + ".")
    ]
    visited: set[str] = set()
    stack = list(roots)
    while stack:
        name = stack.pop()
        if name in visited:
            continue
        visited.add(name)
        # A package's own re-exports only count when a caller imports the name.
        if _is_package(modules, name) and name not in roots:
            continue
        for source, imported, _ in _import_froms(modules, name):
            target = _resolve(modules, source, imported)
            if target is not None:
                stack.append(target)
    # Importing a submodule also runs every parent package.
    reached = {
        ".".join(name.split(".")[:depth])
        for name in visited
        for depth in range(1, name.count(".") + 2)
    }
    return set(modules) - reached

def test_every_module_reachable_from_a_product_entry_point():
    assert unreachable_modules() == KEPT_UNREACHABLE
