"""The public surface is what the package itself uses: no function or member lives for its tests alone."""

import ast
from collections import Counter
from pathlib import Path

import qgsync

PACKAGE = Path(qgsync.__file__).resolve().parent

# Waits for the pullback report (ROADMAP item 5), which is to call it on the
# stationary orbit; until then only the acceptance suite does.  Members have
# no allowed exceptions.
ALLOWED_UNREFERENCED = {"temperedness_diagnostic"}


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of public top-level functions and public class members."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def _names(node: ast.AST):
    """Every identifier that `node` names, as a variable or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unreferenced_public_definitions(package: Path) -> set[str]:
    """Public top-level functions and class members that no other code in the package names.

    `__init__.py` only re-exports, so it does not count as a use, and
    neither does a definition's own body.  Members are matched by name, so
    `f.nodal` anywhere counts as a use of every member called `nodal`.
    """
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    uses = Counter(name for tree in trees for name in _names(tree))
    return {
        qualified
        for tree in trees
        for qualified, node in _public_definitions(tree)
        if uses[node.name] == list(_names(node)).count(node.name)
    }


def test_every_public_function_has_a_caller_in_the_package():
    assert unreferenced_public_definitions(PACKAGE) == ALLOWED_UNREFERENCED
