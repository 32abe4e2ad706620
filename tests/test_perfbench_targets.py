"""The traced benchmark reaches into the package by name: those names resolve.

`perfbench/spans.py` wraps attributes of strictfeas modules and
`perfbench/run.py` times kernels by attribute; a rename or deletion in the
package would otherwise only show when `run.py --trace 1` is run.  These
tests read `perfbench/` and never change it.
"""

import ast
import importlib
import sys
from pathlib import Path

from strictfeas import exactnum, facial, solver

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in spans._targets()
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_every_kernel_target_resolves():
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    (kernels,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "kernels"
    ]
    modules = {"exactnum": exactnum, "facial": facial, "solver": solver}
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(kernels)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert ("facial", "build_alternative_problem") in used
    missing = [
        f"{name}.{attr}"
        for name, attr in sorted(used)
        if not callable(getattr(modules[name], attr, None))
    ]
    assert missing == []
