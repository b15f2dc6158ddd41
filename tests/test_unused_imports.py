"""No module of ``repro`` imports a name it never uses.

No linter runs here, so this scan is the check: every name a module-level
``import`` binds must be referenced somewhere in the module, or be
listed in its ``__all__`` (the way package ``__init__.py`` files and the
``repro.metrics`` compatibility shims re-export names).
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    """``(line, name)`` of each module-level import ``source`` never uses."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _exported(tree)
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used and name not in exported:
                unused.append((node.lineno, name))
    return unused


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os, os.path\n"
              "from typing import List, Dict\nx: Dict = os.sep\n")
    assert unused_imports(source) == [(3, "List")]
    assert unused_imports(source + "__all__ = ['List']\n") == []


def test_no_module_imports_a_name_it_never_uses():
    found = [f"{path.relative_to(SRC.parent)}:{line}: {name}"
             for path in sorted(SRC.rglob("*.py"))
             for line, name in unused_imports(path.read_text("utf-8"))]
    assert not found, "unused imports:\n" + "\n".join(found)
