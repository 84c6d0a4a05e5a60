"""Every name that a module of the package imports is used in that module,
and every private function or class and every module constant it defines
is used in the package.

Stdlib-only stand-ins for a linter's unused-import and dead-code rules: each
module is parsed with `ast`.  An imported name counts as used when the
module reads it as a name or lists it in `__all__` (the package's
re-exports).  A private definition (a name with one leading underscore)
counts as used when some module reads it as a name or an attribute, or
imports it, and so does a module constant (an UPPER_CASE name assigned at
module level); assigning a name does not use it.  Every error class of
`errors.py` but the base class is raised by some module: a `raise` statement
names it, called or bare.
"""

import ast
import re
from pathlib import Path

import pytest

import raysep

PATHS = sorted(Path(raysep.__file__).parent.glob("*.py"))
SOURCES = {path.name: path.read_text(encoding="utf-8") for path in PATHS}


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


@pytest.mark.parametrize("path", PATHS, ids=lambda path: path.name)
def test_no_unused_import(path):
    unused = unused_imports(SOURCES[path.name])
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def names_read(tree: ast.AST) -> set[str]:
    """The names `tree` reads as a name or an attribute, or imports from a module."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """The private functions and classes of `sources` that none of them uses,
    each with its module and line."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set().union(*map(names_read, trees.values()))
    return [f"{node.name} ({name} line {node.lineno})"
            for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")
            and node.name not in used]


def test_no_unused_private_definition():
    unused = unused_private_definitions(SOURCES)
    assert not unused, f"private definitions nothing uses: {', '.join(unused)}"


def test_an_unused_private_definition_is_found():
    sources = {"a.py": "def _dead(): pass\ndef _used(): pass\nclass _C:\n"
                       "    def _method(self): pass\n    def __init__(self): pass\n",
               "b.py": "from a import _used\nx = obj._method\n"}
    assert unused_private_definitions(sources) == ["_dead (a.py line 1)", "_C (a.py line 3)"]


def test_an_unused_import_is_found():
    source = "import math, os.path\nfrom sys import argv, path\n__all__ = ['argv']\nos.sep\n"
    assert unused_imports(source) == ["math (line 1)", "path (line 2)"]


def unread_constants(sources: dict[str, str]) -> list[str]:
    """The UPPER_CASE module constants of `sources` that none of them reads,
    each with its module and line."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*map(names_read, trees.values()))
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            unread += [f"{t.id} ({name} line {node.lineno})" for t in targets
                       if isinstance(t, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id)
                       and t.id not in read]
    return unread


def test_no_unread_constant():
    unread = unread_constants(SOURCES)
    assert not unread, f"module constants nothing reads: {', '.join(unread)}"


def test_an_unread_constant_is_found():
    sources = {"a.py": "USED = 1\nDEAD = 2\nLOCAL: int = 3\nATTR = 4\n_lower = 5\n"
                       "def f():\n    return LOCAL\n",
               "b.py": "from a import USED\nimport a\nx = a.ATTR\nSTORED = 6\nSTORED = 7\n"}
    assert unread_constants(sources) == ["DEAD (a.py line 2)", "STORED (b.py line 4)",
                                         "STORED (b.py line 5)"]


def unraised_errors(sources: dict[str, str]) -> list[str]:
    """The classes of `errors.py` in `sources`, but RaysepError, that no `raise`
    statement of `sources` names, each with its line."""
    raised = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return [f"{node.name} (line {node.lineno})" for node in ast.parse(sources["errors.py"]).body
            if isinstance(node, ast.ClassDef) and node.name != "RaysepError"
            and node.name not in raised]


def test_every_error_is_raised():
    unraised = unraised_errors(SOURCES)
    assert not unraised, f"error classes nothing raises: {', '.join(unraised)}"


def test_an_unraised_error_is_found():
    sources = {"errors.py": "class RaysepError(Exception): pass\n"
                            "class Called(RaysepError): pass\nclass Bare(RaysepError): pass\n"
                            "class Dead(RaysepError): pass\nclass Built(RaysepError): pass\n",
               "a.py": "raise Called('x')\nraise Bare\nerr = Built()\n"}
    assert unraised_errors(sources) == ["Dead (line 4)", "Built (line 5)"]
