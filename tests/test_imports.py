"""Package layout: modules share only public names."""

import ast
import re
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
