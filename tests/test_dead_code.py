"""Every top-level function, class and method in ``src/eaqldpc`` has a caller
in ``src/``, apart from the documented public API below."""

import ast
import collections
from pathlib import Path

import eaqldpc

# named in the README's layout table, or kept on purpose with no library caller
PUBLIC_WITHOUT_CALLER = {
    "in_row_space",  # row-space membership
    "hillebrandt_bounds",  # rank bounds
    "compose_gdd_spread",  # GDD filling
    "read_alist",  # alist import
    "count_pasch",  # Pasch counting
}


def referenced_names(node) -> collections.Counter:
    """Identifiers that ``node`` refers to: names, attributes, imported names."""
    names = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name] += 1
    return names


def definitions(tree):
    """(qualified name, bare name, node) for top-level functions and classes
    and for the non-dunder methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield f"{node.name}.{sub.name}", sub.name, sub


def test_every_definition_has_a_caller_in_src():
    src = Path(eaqldpc.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    used = sum((referenced_names(tree) for tree in trees.values()), collections.Counter())
    uncalled = {}
    for module, tree in trees.items():
        for qualname, name, node in definitions(tree):
            # a definition's references to itself (recursion) are no caller
            if used[name] - referenced_names(node)[name] == 0:
                uncalled[name] = f"{module}:{qualname}"
    assert set(uncalled) == PUBLIC_WITHOUT_CALLER, sorted(uncalled.values())
