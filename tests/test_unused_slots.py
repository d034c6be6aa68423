"""No class of ``src/repro`` declares a slot that nothing reads.

A ``__slots__`` name that is assigned but never loaded is a dead store
paid on every construction (and often on every hot-path update).  No
linter is a dependency, so the check is an ``ast`` walk over the whole
package: a slot is read if its name appears anywhere in ``src/repro``
as an attribute load (``x.name``, ``x.name.y``, ``x.name += ...`` does
not count) or as a constant ``getattr(x, "name")``.  Dunder slots
(``__weakref__``, ``__dict__``) are exempt.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent


def declared_slots(tree: ast.AST):
    """``(line, class, name)`` of every literal ``__slots__`` entry."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__slots__"
                            for t in node.targets)
                    and isinstance(node.value, (ast.Tuple, ast.List))):
                for elt in node.value.elts:
                    if (isinstance(elt, ast.Constant)
                            and isinstance(elt.value, str)
                            and not elt.value.startswith("__")):
                        yield node.lineno, cls.name, elt.value


def read_attributes(tree: ast.AST):
    """Every attribute name ``tree`` loads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value


def write_only_slots(sources):
    """``(where, class, name)`` of every slot no source reads;
    ``sources`` maps a label to module source text."""
    trees = {label: ast.parse(text) for label, text in sources.items()}
    read = set()
    for tree in trees.values():
        read.update(read_attributes(tree))
    return sorted((f"{label}:{line}", cls, name)
                  for label, tree in trees.items()
                  for line, cls, name in declared_slots(tree)
                  if name not in read)


def test_detects_a_write_only_slot():
    source = ("class A:\n"
              "    __slots__ = ('kept', 'counted', 'dead', '__weakref__')\n"
              "    def __init__(self):\n"
              "        self.kept = self.counted = self.dead = 0\n"
              "        self.counted += 1\n"
              "        self.dead += 1\n"
              "class B:\n"
              "    __slots__ = ['named']\n"
              "def f(a, b):\n"
              "    return a.kept, getattr(b, 'named'), a.counted.real\n")
    assert write_only_slots({"m.py": source}) == [("m.py:2", "A", "dead")]


def test_src_repro_has_no_write_only_slots():
    sources = {str(path.relative_to(SRC)): path.read_text()
               for path in sorted(SRC.rglob("*.py"))}
    found = [f"{where}: {cls}.{name}"
             for where, cls, name in write_only_slots(sources)]
    assert found == [], "slots never read:\n" + "\n".join(found)
