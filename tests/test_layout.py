"""The packed GF(2) layout is ``gf2``'s alone.  Outside ``gf2.py`` no module
in ``src/`` reads a ``BitMatrix`` slot, takes a matrix's rows as Python ints
or converts between ints and words; int-bitmask rows enter a ``BitMatrix``
only through ``formats.read_alist``."""

import ast
from pathlib import Path

import eaqldpc

SLOTS = {"_words", "_rank", "_rank_profile", "_transpose"}
INT_ROW_CALLS = {"row", "row_bits", "pack_ints", "unpack_ints"}
REMOVED = {"oriented_pair", "reduce_against", "from_rows"}


def sources() -> dict[str, ast.Module]:
    src = Path(eaqldpc.__file__).resolve().parent
    return {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}


def top_level(tree):
    """(name of the top-level definition, or "<module>", node) for every node."""
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(stmt):
            yield owner, node


def called_name(call: ast.Call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_layout_stays_in_gf2():
    breaches = []
    for module, tree in sources().items():
        if module == "gf2.py":
            continue
        for owner, node in top_level(tree):
            where = f"{module}:{getattr(node, 'lineno', '?')} ({owner})"
            if isinstance(node, ast.Attribute) and node.attr in SLOTS:
                breaches.append(f"{where} reads BitMatrix.{node.attr}")
            if isinstance(node, ast.Call):
                name = called_name(node)
                if name in INT_ROW_CALLS:
                    breaches.append(f"{where} calls {name}")
                if name == "BitMatrix" and (module, owner) != ("formats.py", "read_alist"):
                    breaches.append(f"{where} builds a BitMatrix from int rows")
    assert not breaches, breaches


def test_int_byte_conversions_only_in_the_pack_helpers():
    users = {
        (module, owner)
        for module, tree in sources().items()
        for owner, node in top_level(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("to_bytes", "from_bytes")
    }
    assert users == {("gf2.py", "pack_ints"), ("gf2.py", "unpack_ints")}


def test_replaced_int_row_helpers_stay_deleted():
    found = [
        f"{module}:{node.lineno}"
        for module, tree in sources().items()
        for node in ast.walk(tree)
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in REMOVED)
        or (isinstance(node, ast.Name) and node.id in REMOVED)
        or (isinstance(node, ast.Attribute) and node.attr in REMOVED)
        or (isinstance(node, ast.alias) and node.name in REMOVED)
    ]
    assert not found, found
