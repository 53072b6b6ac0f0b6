"""Every texsyn name the benchmark reaches must still resolve.

``bench/tracing.py`` wraps functions by "module:attr" strings and
``bench/workloads.py`` calls module attributes through a namespace of
texsyn modules, so a rename or deletion there would otherwise surface
only when the benchmark runs.  The test imports ``bench/tracing.py`` and
scans the source of the bench files; it runs no workload.
"""

import ast
import importlib
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def tracing_module():
    sys.path.insert(0, BENCH)
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(BENCH)


def tracing_targets() -> list:
    tracing = tracing_module()
    return [*tracing.SPANS, *tracing.PARAM_SOURCES, *tracing.CONVS]


def bench_attributes(filename: str) -> set:
    """(module, attr) pairs a bench file reaches on texsyn modules.

    A module is ``self.ts.<module>`` (the workloads' namespace), or a
    local name bound to one, or a name from ``import texsyn.<module> as``.
    A pair is an attribute of a module, or a call such as
    ``Timestamps(<module>, "<attr>")`` that names one by string.
    """
    with open(os.path.join(BENCH, filename)) as f:
        tree = ast.parse(f.read())
    aliases = {}

    def module_of(node):
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "ts"
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "self"
        ):
            return node.attr
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.name.startswith("texsyn.") and name.asname:
                    aliases[name.asname] = name.name.removeprefix("texsyn.")
        elif isinstance(node, ast.Assign):
            target, value = node.targets[0], node.value
            pairs = (
                zip(target.elts, value.elts)
                if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                else [(target, value)]
            )
            for name, bound in pairs:
                if isinstance(name, ast.Name) and module_of(bound):
                    aliases[name.id] = module_of(bound)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and module_of(node.value):
            found.add((module_of(node.value), node.attr))
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            module, attr = module_of(node.args[0]), node.args[1]
            if module and isinstance(attr, ast.Constant) and isinstance(attr.value, str):
                found.add((module, attr.value))
    return found


@pytest.mark.parametrize("target", tracing_targets())
def test_tracing_target_resolves(target):
    importlib.import_module(target.split(":")[0])
    owner, attr = tracing_module()._resolve(target)
    assert callable(getattr(owner, attr))


def test_module_attributes_resolve():
    found = bench_attributes("workloads.py") | bench_attributes("tracing.py")
    # the scan sees direct uses, local aliases, names given as strings and
    # the tracer's own module import
    assert {
        ("trainer", "train"),
        ("generator", "one_hot"),
        ("transfer", "interpolate_styles"),
        ("trainer", "schedule_texture"),
        ("autodiff", "_result"),
    } <= found
    missing = [
        f"texsyn.{module}.{attr}"
        for module, attr in sorted(found)
        if not hasattr(importlib.import_module(f"texsyn.{module}"), attr)
    ]
    assert missing == []
