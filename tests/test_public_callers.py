"""Every public name of the package has a caller that is not a test.

A public (no leading underscore) module-level function or class of
``src/acausal_mbqc`` must be named, outside its own definition, by one of:

- an AST name or attribute anywhere else in ``src/``;
- a word of the text of a ``benchmark/*.py`` file (the tracer names its
  targets as strings);
- a word of ``README.md``, whose library example and prose document the API.

A name that only the tests call belongs in ``tests/pm_reference.py``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "acausal_mbqc"


def referenced_names(tree, skip=None) -> set[str]:
    """Every ``Name`` id and ``Attribute`` attr of ``tree`` outside the subtree ``skip``."""
    inside = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def uncalled_public_names() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    texts = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "benchmark").glob("*.py"))]
    texts.append((ROOT / "README.md").read_text(encoding="utf-8"))
    definitions = [
        (module, node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert definitions
    names = {module: referenced_names(tree) for module, tree in trees.items()}
    uncalled = []
    for module, node in definitions:
        in_src = any(node.name in names[other] for other in trees if other != module) or (
            node.name in referenced_names(trees[module], node)
        )
        if not in_src and not any(re.search(rf"\b{node.name}\b", text) for text in texts):
            uncalled.append(f"{module}.{node.name}")
    return sorted(uncalled)


def test_every_public_name_has_a_caller_outside_the_tests():
    uncalled = uncalled_public_names()
    assert not uncalled, f"public names that only the tests call: {uncalled}"
