"""One owner for the write-grant record, the frame ledger and the
firewall bits.

"Which cells may write this frame" is kept in two places that must
agree: the pfdat's ``export_writable`` (with ``exported_to``, its
logical-level twin) and the hardware firewall vector.  Each has one
owner, so the agreement is argued about in one module each:

* only ``unix/pfdat.py`` stores to, or calls a method on, a pfdat's
  ``export_writable`` or ``exported_to`` — everyone else goes through
  the ``Pfdat`` methods that keep the table's writable-by-cell index;
* only ``unix/pfdat.py`` decides where a frame is: it alone stores a
  pfdat's ``on_free_list``, ``loaned_to`` or ``borrowed_from``, or
  changes a table's ``reserved`` list, borrowed ``stock`` or
  ``returning`` frames, or reads its private frame map ``_by_frame`` —
  everyone else calls the ``PfdatTable`` transitions and asks its
  ``materialized`` / ``placements`` (DESIGN.md §3m);
* outside ``hardware/``, only ``core/wildwrite.py`` (the firewall
  manager) flips firewall bits, apart from the firewall-overhead
  microbenchmark in ``workloads/micro.py``.

No linter is a dependency, so the check is an ``ast`` walk over the
whole package, like ``tests/test_unused_slots.py``.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent

RECORD_FIELDS = {"export_writable", "exported_to"}
RECORD_OWNER = "unix/pfdat.py"
PLACEMENT_FIELDS = {"on_free_list", "loaned_to", "borrowed_from"}
PLACEMENT_LISTS = {"reserved", "stock", "returning"}
MUTATORS = {"pop", "popitem", "clear", "update", "setdefault", "append",
            "extend", "remove", "insert", "add", "discard", "__setitem__",
            "__delitem__"}
BIT_FLIPS = {"grant_node", "revoke_node", "revoke_all_remote"}
BIT_OWNERS = {"core/wildwrite.py", "workloads/micro.py"}


def record_writes(tree: ast.AST):
    """``(line, field)`` of every store to, or method call on, a
    grant-record field."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in RECORD_FIELDS
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            yield node.lineno, node.attr
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Attribute)
              and node.func.value.attr in RECORD_FIELDS):
            yield node.lineno, f"{node.func.value.attr}.{node.func.attr}"


def placement_writes(tree: ast.AST):
    """``(line, what)`` of every store to a frame-placement field,
    every change of a table's reserved list, stock or returning set,
    and every use of its private frame map."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_by_frame":
            yield node.lineno, node.attr
        elif (isinstance(node, ast.Attribute)
                and node.attr in PLACEMENT_FIELDS | PLACEMENT_LISTS
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            yield node.lineno, node.attr
        elif (isinstance(node, ast.Subscript)
              and isinstance(node.ctx, (ast.Store, ast.Del))
              and isinstance(node.value, ast.Attribute)
              and node.value.attr in PLACEMENT_LISTS):
            yield node.lineno, f"{node.value.attr}[]"
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS
              and isinstance(node.func.value, ast.Attribute)
              and node.func.value.attr in PLACEMENT_LISTS):
            yield node.lineno, f"{node.func.value.attr}.{node.func.attr}"


def bit_flips(tree: ast.AST):
    """``(line, method)`` of every call of a firewall-bit update."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in BIT_FLIPS):
            yield node.lineno, node.func.attr


def violations(sources):
    """``where: what`` of every break of the ownership rules;
    ``sources`` maps a path relative to ``src/repro`` to its text."""
    found = []
    for label, text in sorted(sources.items()):
        tree = ast.parse(text)
        if label != RECORD_OWNER:
            found += [f"{label}:{line}: {what}"
                      for line, what in record_writes(tree)]
            found += [f"{label}:{line}: {what}"
                      for line, what in placement_writes(tree)]
        if not label.startswith("hardware/") and label not in BIT_OWNERS:
            found += [f"{label}:{line}: {what}"
                      for line, what in bit_flips(tree)]
    return found


def test_detects_each_kind_of_violation():
    source = ("def f(pf, fw):\n"
              "    pf.export_writable.discard(1)\n"
              "    pf.exported_to = set()\n"
              "    fw.revoke_node(7, 0, 1)\n"
              "    return 2 in pf.export_writable, pf.exported_to & {3}\n")
    assert violations({"core/cell.py": source}) == [
        "core/cell.py:2: export_writable.discard",
        "core/cell.py:3: exported_to",
        "core/cell.py:4: revoke_node",
    ]
    assert violations({"unix/pfdat.py": source}) == [
        "unix/pfdat.py:4: revoke_node"]
    assert violations({"core/wildwrite.py": source}) == [
        "core/wildwrite.py:2: export_writable.discard",
        "core/wildwrite.py:3: exported_to",
    ]
    assert violations({"hardware/firewall.py": "x.grant_node(1, 2, 3)\n"}) \
        == []


def test_detects_each_kind_of_placement_violation():
    source = ("def f(pf, table, cell):\n"
              "    pf.borrowed_from = 1\n"
              "    pf.loaned_to = None\n"
              "    pf.on_free_list = True\n"
              "    table.reserved[pf.frame] = pf\n"
              "    del table.reserved[7]\n"
              "    table.reserved.pop(8)\n"
              "    cell.pfdats.stock = {}\n"
              "    table.returning.clear()\n"
              "    table._by_frame.get(5)\n"
              "    return (pf.loaned_to, table.reserved.get(9),\n"
              "            list(table.stock.values()), table.reserved[3])\n")
    assert violations({"core/sharing.py": source}) == [
        "core/sharing.py:2: borrowed_from",
        "core/sharing.py:3: loaned_to",
        "core/sharing.py:4: on_free_list",
        "core/sharing.py:5: reserved[]",
        "core/sharing.py:6: reserved[]",
        "core/sharing.py:7: reserved.pop",
        "core/sharing.py:8: stock",
        "core/sharing.py:9: returning.clear",
        "core/sharing.py:10: _by_frame",
    ]
    assert violations({"unix/pfdat.py": source}) == []


def test_src_repro_keeps_one_owner_each():
    sources = {path.relative_to(SRC).as_posix(): path.read_text()
               for path in sorted(SRC.rglob("*.py"))}
    found = violations(sources)
    assert found == [], "grant record, frame placement or firewall " \
        "bits touched outside their owner:\n" + "\n".join(found)
