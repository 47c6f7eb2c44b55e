"""The benchmark scripts under perfbench/ are kept fixed between benchmark
changes, so every gridsim name they import must keep existing, and so must
every keyword argument they pass to it."""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_nodes():
    for path in PERFBENCH.glob("*.py"):
        yield from ast.walk(ast.parse(path.read_text(), filename=str(path)))


def _gridsim_imports():
    found = set()
    for node in _perfbench_nodes():
        module = getattr(node, "module", None) or ""
        if isinstance(node, ast.ImportFrom) and module.split(".")[0] == "gridsim":
            found.update((module, alias.name) for alias in node.names)
    return sorted(found)


def _gridsim_keywords():
    """(module, name, keyword) for every keyword argument perfbench passes
    by name to a callable it imports from gridsim."""
    origin = {name: module for module, name in _gridsim_imports()}
    found = set()
    for node in _perfbench_nodes():
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            module = origin.get(node.func.id)
            if module is not None:
                found.update((module, node.func.id, kw.arg) for kw in node.keywords if kw.arg)
    return sorted(found)


def test_scan_finds_the_engine_entry_points():
    names = {name for _, name in _gridsim_imports()}
    assert {"run_batched", "run_full"} <= names


@pytest.mark.parametrize("module,name", _gridsim_imports())
def test_benchmark_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), f"perfbench imports {name} from {module}"


def test_scan_finds_keyword_arguments():
    assert ("gridsim", "make_plan", "fidelity") in _gridsim_keywords()


@pytest.mark.parametrize("module,name,keyword", _gridsim_keywords())
def test_benchmark_keyword_is_a_parameter(module, name, keyword):
    params = inspect.signature(getattr(importlib.import_module(module), name)).parameters
    assert keyword in params, f"perfbench passes {keyword}= to {name} from {module}"
