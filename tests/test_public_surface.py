"""Every public function and class of the package has a caller inside it.

A public module-level name that nothing in ``src/uavmarket`` reads,
apart from its own definition and the re-export in ``__init__.py``, is
an API only tests use; it is deleted rather than kept for them. The
scan reads the source with ``ast``, so a mention in a docstring or a
comment is not a reference.
"""

import ast
from pathlib import Path

import uavmarket

PACKAGE = Path(uavmarket.__file__).parent

# Entry points for library users that no module of the package calls
# itself; each is documented in the README.
ENTRY_POINTS = {"fixture_path"}


def referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read in ``tree``, as bare names, attributes or imports, outside ``skip``."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unreferenced_public_names() -> list[str]:
    modules = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    unused = []
    for name, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in ENTRY_POINTS:
                continue
            readers = [
                referenced_names(other, skip=node if other is tree else None)
                for other in modules.values()
            ]
            if not any(node.name in names for names in readers):
                unused.append(f"{name}:{node.name}")
    return unused


def test_every_public_name_has_a_caller_in_the_package():
    assert unreferenced_public_names() == []


def test_entry_points_are_exported():
    assert ENTRY_POINTS <= set(dir(uavmarket))
