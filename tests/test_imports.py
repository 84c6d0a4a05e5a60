"""Every name that a module of the package imports is used in that module.

A stdlib-only stand-in for a linter's unused-import rule: each module is
parsed with `ast`, and an imported name counts as used when the module reads
it as a name or lists it in `__all__` (the package's re-exports).
"""

import ast
from pathlib import Path

import pytest

import raysep


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, each with its line."""
    imported, used = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                  for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(Path(raysep.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_import(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def test_an_unused_import_is_found():
    source = "import math, os.path\nfrom sys import argv, path\n__all__ = ['argv']\nos.sep\n"
    assert unused_imports(source) == ["math (line 1)", "path (line 2)"]
