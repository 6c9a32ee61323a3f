"""The public surface is what the package itself uses: no function lives for its tests alone."""

import ast
from pathlib import Path

import qgsync

PACKAGE = Path(qgsync.__file__).resolve().parent

# Waits for the pullback report (ROADMAP item 5), which is to call it on the
# stationary orbit; until then only the acceptance suite does.
ALLOWED_UNREFERENCED = {"temperedness_diagnostic"}


def unreferenced_public_functions(package: Path) -> set[str]:
    """Public top-level functions that no other code in the package names.

    `__init__.py` only re-exports, so it does not count as a use, and
    neither does a function's own body.
    """
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    public = set()
    used = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                public.add(node.name)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and not (isinstance(node, ast.FunctionDef) and sub.id == node.name):
                    used.add(sub.id)
                elif isinstance(sub, ast.Attribute) and not (isinstance(node, ast.FunctionDef) and sub.attr == node.name):
                    used.add(sub.attr)
    return public - used


def test_every_public_function_has_a_caller_in_the_package():
    assert unreferenced_public_functions(PACKAGE) == ALLOWED_UNREFERENCED
