"""Every private module-level name of acscp is used inside the package, and
every name a module imports is read in that module.

A private function, class or constant that only its own definition and the
tests mention is dead code kept alive by a test import; this test fails on
it, so such a helper is deleted or put back to use.  An import that nothing
reads is what a refactor leaves behind; __init__ is exempt, since its
imports are the public re-exports.
"""

import ast
from pathlib import Path

import acscp

SRC = Path(acscp.__file__).parent


def _private(name):
    return name.startswith("_") and not name.startswith("__") and name != "_"


def _definitions(tree):
    """(name, node) for each private name bound at module level: the def or
    class node, or the assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Name) and _private(leaf.id):
                    yield leaf.id, node


def _uses(tree, skip):
    """The names read under tree, as a Name or an attribute, outside the
    nodes in skip."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def test_every_private_name_is_used_beyond_its_definition():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            skip = {node} if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else set()
            if not any(name in _uses(t, skip if m == module else set())
                       for m, t in trees.items()):
                unused.append(f"{module}.{name}")
    assert unused == []


def _imported(tree):
    """(name, line) for each name an import statement binds under tree; a
    dotted `import a.b` binds a."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


def test_every_imported_name_is_read():
    # __init__ is exempt: its imports are the public re-exports
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.stem}:{line} {name}" for name, line in _imported(tree)
                   if name not in read]
    assert unread == []
