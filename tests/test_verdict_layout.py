"""The distance verdict is ``eaqecc``'s alone.  Outside ``eaqecc.py`` no
module in ``src/`` builds a ``DistanceVerdict`` or spells the status
"theorem-only"; everything else reads ``EaqeccParams.d``.  The records it
replaced stay deleted."""

import ast
from pathlib import Path

import eaqldpc

REMOVED = {"DistanceResult", "_d_cell"}


def sources() -> dict[str, ast.Module]:
    src = Path(eaqldpc.__file__).resolve().parent
    return {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}


def test_only_eaqecc_builds_a_verdict_or_names_theorem_only():
    builders, spellers = set(), set()
    for module, tree in sources().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "DistanceVerdict":
                    builders.add(module)
            if isinstance(node, ast.Constant) and node.value == "theorem-only":
                spellers.add(module)
    assert builders == {"eaqecc.py"}
    assert spellers == {"eaqecc.py"}


def test_replaced_distance_records_stay_deleted():
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
