"""No module of ``src/repro`` imports a name it never uses.

No linter is a dependency, so the check is an ``ast`` walk: a
module-level import is used if its name appears anywhere in the module
as a name (annotations included) or is listed in ``__all__``.  Package
``__init__.py`` files re-export by design and are skipped.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent


def unused_imports(source: str):
    """``(line, name)`` of every module-level import ``source`` never
    uses."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name)
                        and target.id == "__all__"
                        for target in node.targets)):
            used.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "from typing import Dict, List\n"
              "from x import y as z\n"
              "__all__ = ['z']\n"
              "def f() -> Dict:\n"
              "    return {}\n")
    assert unused_imports(source) == [(2, "os"), (3, "List")]


def test_src_repro_has_no_unused_imports():
    found = [f"{path.relative_to(SRC)}:{line}: {name}"
             for path in sorted(SRC.rglob("*.py"))
             if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())]
    assert found == [], "unused imports:\n" + "\n".join(found)
