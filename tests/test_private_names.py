"""Every private module-level name of acscp is used inside the package, and
every name a module imports is read in that module.

A private function, class or constant that only its own definition and the
tests mention is dead code kept alive by a test import; this test fails on
it, so such a helper is deleted or put back to use.  An import that nothing
reads is what a refactor leaves behind; __init__ is exempt, since its
imports are the public re-exports.  And MPolyZ's term layout, a dict from
exponent 5-tuples to ints, is read in exactmath and its own tests alone.
"""

import ast
from pathlib import Path

import acscp

SRC = Path(acscp.__file__).parent
TESTS = Path(__file__).parent


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


# the names of MPolyZ's term layout besides its dict, .terms: the helpers
# that index a variable in an exponent tuple or build one
LAYOUT_NAMES = {"_var_index", "_NVARS", "_ZERO_EXP"}


def _layout_reads(tree):
    """(line, name) for each read of .terms and each mention of a name in
    LAYOUT_NAMES under tree, an import included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT_NAMES | {"terms"}:
            yield node.lineno, node.attr
        elif isinstance(node, ast.Name) and node.id in LAYOUT_NAMES:
            yield node.lineno, node.id
        elif isinstance(node, ast.alias) and node.name in LAYOUT_NAMES:
            yield node.lineno, node.name


def test_only_exactmath_reads_the_term_layout_of_mpolyz():
    # every other module, and every test but exactmath's own, which checks
    # the layout, reads a polynomial through MPolyZ's methods, so a change
    # of how MPolyZ stores its terms is a change to exactmath alone
    paths = [path for path in sorted(SRC.glob("*.py")) if path.stem != "exactmath"]
    paths += [path for path in sorted(TESTS.glob("*.py")) if path.stem != "test_exactmath"]
    readers = [f"{path.parent.name}/{path.name}:{line} {name}" for path in paths
               for line, name in _layout_reads(ast.parse(path.read_text()))]
    assert readers == []


# the model's constants and its one constraint split: homotopy derives every
# table and target from them, so no other module names them
MODEL_NAMES = {"CP4_CONSTRAINT", "CP6_CONSTRAINT", "CP4_PONTRJAGIN", "CP6_PONTRJAGIN",
               "_linear_in"}


def _mentions(tree, names):
    """(line, name) for each mention under tree of a name in names: read or
    bound as a name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in names:
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr in names:
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias) and node.name in names:
            yield node.lineno, node.name


def _foreign_private_names(tree):
    """(line, name) for each private name that tree takes from another acscp
    module: imported by name (`from .m import _x`), or read as an attribute
    of a module it imports (`from . import m`, then `m._x`)."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("acscp")):
            for alias in node.names:
                if _private(alias.name):
                    yield node.lineno, alias.name
                if node.module in (None, "acscp"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or "acscp" for alias in node.names
                           if alias.name.split(".")[0] == "acscp")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                yield node.lineno, node.attr


def test_the_cli_reads_no_model_internals():
    # the cli prints the rows of the library's table builders; the model is
    # read in homotopy alone, so a second reading of it cannot drift
    cli = ast.parse((SRC / "cli.py").read_text())
    readers = [f"cli.py:{line} {name}" for line, name in _foreign_private_names(cli)]
    readers += [f"{path.name}:{line} {name}" for path in sorted(SRC.glob("*.py"))
                if path.stem != "homotopy"
                for line, name in _mentions(ast.parse(path.read_text()), MODEL_NAMES)]
    assert readers == []
