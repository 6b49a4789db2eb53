"""The package surface that the benchmark in ``perfbench/`` calls.

These tests read the benchmark's sources and fail when a name, attribute or
keyword argument it uses is gone from the package, or when the package
exports a name at its top level that neither the benchmark reads nor the
pipeline enters by.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import metastrain

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# top-level exports the benchmark does not read: the call that decomposes a
# cell, and the third cell constructor the command line dispatches over
PIPELINE_ENTRIES = {"decompose", "make_ellipse_cell"}


def parse(name):
    return ast.parse((PERFBENCH / name).read_text())


def package_calls():
    """``tracing.PACKAGE_CALLS`` (span name -> package attribute), read from the source."""
    for node in ast.walk(parse("tracing.py")):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "PACKAGE_CALLS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no PACKAGE_CALLS")


def test_package_calls_resolve():
    calls = package_calls()
    assert calls
    assert [attr for attr in calls.values() if not hasattr(metastrain, attr)] == []


@pytest.mark.parametrize("source", ["workloads.py", "reference.py"])
def test_bench_names_and_keywords_resolve(source):
    # the traced ``api`` namespace is keyed by the last part of each span name
    api = {span.rsplit(".", 1)[1]: attr for span, attr in package_calls().items()}
    tree = parse(source)
    scope = {"metastrain": metastrain}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "metastrain":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name} is gone"
                scope[alias.asname or alias.name] = getattr(module, alias.name)

    def resolve(expr):
        """The package object an expression names, or None when it names none."""
        if isinstance(expr, ast.Name):
            return scope.get(expr.id)
        if not isinstance(expr, ast.Attribute):
            return None
        if isinstance(expr.value, ast.Name) and expr.value.id == "api":
            return getattr(metastrain, api[expr.attr]) if expr.attr in api else None
        base = resolve(expr.value)
        if base is None:
            return None
        assert hasattr(base, expr.attr), f"{ast.unparse(expr)} is gone"
        return getattr(base, expr.attr)

    for node in ast.walk(tree):
        target = resolve(node.func if isinstance(node, ast.Call) else node)
        if isinstance(node, ast.Call) and target is not None:
            keywords = {k.arg: None for k in node.keywords if k.arg is not None}
            inspect.signature(target).bind_partial(**keywords)


def bench_top_level_names():
    """Package names the benchmark reads at the top level: its traced calls and ``metastrain.<name>``."""
    names = set(package_calls().values())
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "metastrain"):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "metastrain":
                names.update(alias.name for alias in node.names)
    return {name for name in names if not name.startswith("__")}


def test_exports_are_the_bench_names_and_the_pipeline_entries():
    assert sorted(metastrain.__all__) == sorted(bench_top_level_names() | PIPELINE_ENTRIES)
    public = {name for name, value in vars(metastrain).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(metastrain.__all__)
