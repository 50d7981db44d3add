"""Every module under ``src/qlca`` uses each name it imports. A deletion
can leave an import behind that nothing reads; this finds it.
``__init__`` is excepted, since its imports are the package's re-exports."""

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
