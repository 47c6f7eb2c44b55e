"""The benchmark scripts under perfbench/ are kept fixed between benchmark
changes, so every gridsim name they import must keep existing."""
import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _gridsim_imports():
    found = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            module = getattr(node, "module", None) or ""
            if isinstance(node, ast.ImportFrom) and module.split(".")[0] == "gridsim":
                found.update((module, alias.name) for alias in node.names)
    return sorted(found)


def test_scan_finds_the_engine_entry_points():
    names = {name for _, name in _gridsim_imports()}
    assert {"run_batched", "run_full"} <= names


@pytest.mark.parametrize("module,name", _gridsim_imports())
def test_benchmark_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), f"perfbench imports {name} from {module}"
