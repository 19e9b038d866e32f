"""Every example script must at least parse and import-check.

Full example runs happen outside the fast suite (they take minutes); here
each script is byte-compiled and its module-level imports are resolved, so
API drift that would break an example fails the suite immediately.
"""

from __future__ import annotations

import ast
import importlib
import py_compile
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_SCRIPTS = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLE_SCRIPTS, ids=lambda p: p.name)
def test_example_compiles(script, tmp_path):
    py_compile.compile(str(script), cfile=str(tmp_path / "out.pyc"), doraise=True)


@pytest.mark.parametrize("script", EXAMPLE_SCRIPTS, ids=lambda p: p.name)
def test_example_imports_resolve(script):
    """Every `import repro...` / `from repro... import X` in the script
    must resolve against the installed package."""
    tree = ast.parse(script.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("repro"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{script.name}: {node.module}.{alias.name} does not exist"
                )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro"):
                    importlib.import_module(alias.name)


def test_expected_example_set_present():
    names = {p.name for p in EXAMPLE_SCRIPTS}
    required = {
        "quickstart.py",
        "bci_decoding.py",
        "noise_cancellation.py",
        "fixed_point_tour.py",
        "wordlength_explorer.py",
        "verilog_export.py",
        "ecog_pipeline.py",
        "ecg_monitor.py",
    }
    assert required <= names


def test_examples_have_docstrings_and_main():
    for script in EXAMPLE_SCRIPTS:
        tree = ast.parse(script.read_text())
        assert ast.get_docstring(tree), f"{script.name} lacks a module docstring"
        function_names = {
            node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        }
        assert "main" in function_names, f"{script.name} lacks a main()"
