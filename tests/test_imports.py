"""Package layout: modules share only public names and need only numpy."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import strictfeas

PACKAGE = Path(strictfeas.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def test_every_exported_non_class_is_documented():
    # the export list is what the README and the demos use, plus result and
    # error types: a name in neither is stale
    texts = [(ROOT / "README.md").read_text()]
    texts += [path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))]
    unused = [
        name
        for name in strictfeas.__all__
        if not isinstance(getattr(strictfeas, name), type)
        and not any(re.search(rf"\b{name}\b", text) for text in texts)
    ]
    assert unused == []


def test_a_pipeline_run_imports_no_scipy():
    # a whole reproduction, not just the import: a lazy import inside a
    # solve would only move the start-up cost into the first run
    code = (
        "import contextlib, io, sys\n"
        "from strictfeas import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['reproduce', 'chsh-toy'])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "0 []\n"


def test_a_reproduction_runs_without_mpmath():
    # every claim, the Q(sqrt5) optimum of problem 2 among them, with mpmath
    # made unimportable: a None entry in sys.modules fails its import
    code = (
        "import contextlib, io, sys\n"
        "sys.modules['mpmath'] = None\n"
        "from strictfeas import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['reproduce', 'all'])\n"
        "print(code, sorted(m for m, mod in sys.modules.items()\n"
        "                   if m.split('.')[0] == 'mpmath' and mod is not None))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "0 []\n"


def test_every_private_module_name_is_used():
    # a module-level _name that no other top-level statement of the package
    # reads is dead code left behind by a refactor; a read inside the name's
    # own definition (a helper that only calls itself) does not count
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    defined, readers = {}, {}
    for file, tree in trees.items():
        for node in tree.body:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    readers.setdefault(sub.id, set()).add(id(node))
                elif isinstance(sub, ast.Attribute):
                    readers.setdefault(sub.attr, set()).add(id(node))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = (f"{file}:{node.lineno}", id(node))
    unused = [
        f"{where} {name}"
        for name, (where, own) in defined.items()
        if not readers.get(name, set()) - {own}
    ]
    assert sorted(unused) == []
