"""Every module under ``src/qlca`` uses each name it imports, and every
module-level private name of the package is read somewhere in it. A
deletion can leave an import or a helper behind that nothing reads; these
find it. ``__init__`` is excepted from the import check, since its imports
are the package's re-exports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qlca"


def unused_imports(source):
    """(line, name) of each name the module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    # a read of x.y starts with the Name x, annotations included
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os, os.path\n"
              "import json as js\nfrom a import b, c as d\n"
              "def f(x: d) -> None:\n    return os.sep\n")
    assert unused_imports(source) == [(3, "js"), (4, "b")]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_no_module_imports_a_name_it_never_uses(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def unread_private_names(sources):
    """(module, line, name) of each module-level function, class or
    assigned name with one leading underscore that no module of
    {module: source} reads as a name, an attribute or an imported name."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [x.id for t in targets for x in ast.walk(t)
                         if isinstance(x, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            loaded = isinstance(getattr(node, "ctx", None), ast.Load)
            if isinstance(node, ast.Name) and loaded:
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and loaded:
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(d for d in defined if d[2] not in read)


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a.py": ("_X = 1\n_Y, (_Z, w) = 2, (3, 4)\n_T: int = 0\n"
                 "def _f():\n    return _X\nclass _C:\n    pass\n"
                 "def _g():\n    _h = 0\n__all__ = []\n_imported = 0\n"
                 "_attribute = 0\n_f()\n"),
        "b.py": ("from .a import _imported\nimport a\na._attribute\n"
                 "a._T = 1\n"),
    }
    assert unread_private_names(sources) == [
        ("a.py", 2, "_Y"), ("a.py", 2, "_Z"), ("a.py", 3, "_T"),
        ("a.py", 6, "_C"), ("a.py", 8, "_g")]


def test_every_private_name_of_the_package_is_read():
    assert unread_private_names(
        {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}) == []
