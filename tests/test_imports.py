"""Every name that a module of the package imports is used in that module,
and every private function or class it defines is used in the package.

Stdlib-only stand-ins for a linter's unused-import and dead-code rules: each
module is parsed with `ast`.  An imported name counts as used when the
module reads it as a name or lists it in `__all__` (the package's
re-exports).  A private definition (a name with one leading underscore)
counts as used when some module reads it as a name or an attribute, or
imports it.
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


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """The private functions and classes of `sources` that none of them uses,
    each with its module and line."""
    defined, used = [], set()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((node.name, name, node.lineno))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return [f"{fn} ({module} line {line})" for fn, module, line in defined if fn not in used]


def test_no_unused_private_definition():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(Path(raysep.__file__).parent.glob("*.py"))}
    unused = unused_private_definitions(sources)
    assert not unused, f"private definitions nothing uses: {', '.join(unused)}"


def test_an_unused_private_definition_is_found():
    sources = {"a.py": "def _dead(): pass\ndef _used(): pass\nclass _C:\n"
                       "    def _method(self): pass\n    def __init__(self): pass\n",
               "b.py": "from a import _used\nx = obj._method\n"}
    assert unused_private_definitions(sources) == ["_dead (a.py line 1)", "_C (a.py line 3)"]


def test_an_unused_import_is_found():
    source = "import math, os.path\nfrom sys import argv, path\n__all__ = ['argv']\nos.sep\n"
    assert unused_imports(source) == ["math (line 1)", "path (line 2)"]
