"""Every public top-level function and class in ``src/lawkit`` has a caller
in ``src/lawkit``.

A name that only tests reach belongs in the tests; a name nothing reaches
belongs nowhere.  The one exemption is ``cli.main``, the ``lawkit`` console
entry point that ``pyproject.toml`` names.
"""

import ast
from collections import Counter

from conftest import ROOT

SRC = ROOT / "src" / "lawkit"
ENTRY_POINTS = {("cli", "main")}


def _referenced_names(tree: ast.AST) -> Counter:
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
    return names


def unreferenced_public_names() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((_referenced_names(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or (module, node.name) in ENTRY_POINTS:
                continue
            # References inside the definition itself (recursion) do not count.
            if everywhere[node.name] == _referenced_names(node)[node.name]:
                unused.append(f"{module}.{node.name}")
    return unused


def test_every_public_name_has_a_caller_in_src():
    assert unreferenced_public_names() == []
