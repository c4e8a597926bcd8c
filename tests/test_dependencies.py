"""The package has no runtime dependencies: it imports only the standard library,
it keeps no private helper that only the tests call, no public method that
nothing calls, and no name imported from a sibling module that goes unread."""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "rkdist").glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def test_sources_found():
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_absolute_imports_are_stdlib(path):
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert imported - sys.stdlib_module_names == set()


def _bound_names(statement):
    """The names a top-level statement defines or imports."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Import, ast.ImportFrom)):
        return [(alias.asname or alias.name).split(".")[0] for alias in statement.names]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _referenced_names(statement):
    """The names a statement reads, imports from elsewhere or reaches as an attribute."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_private_names_are_used_in_src():
    # A top-level statement's references count for every statement but itself,
    # so a helper called only from its own body or from the tests is flagged.
    statements = [
        (path.name, statement)
        for path in SOURCES
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    references = [_referenced_names(statement) for _, statement in statements]
    unused = []
    for i, (module, statement) in enumerate(statements):
        for name in _bound_names(statement):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in refs for j, refs in enumerate(references) if j != i):
                unused.append(f"{module}: {name}")
    assert unused == []


def test_public_methods_are_read():
    # A public method or property of a class in src/ must be read as an
    # attribute somewhere in src/ or tests/, outside its own body.
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES + TESTS}
    reads = Counter(
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    )
    unread = []
    for path in SOURCES:
        for cls in ast.walk(trees[path]):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                    continue
                own = sum(isinstance(n, ast.Attribute) and n.attr == fn.name for n in ast.walk(fn))
                if reads[fn.name] == own:
                    unread.append(f"{path.name}: {cls.name}.{fn.name}")
    assert unread == []


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.name != "__init__.py"], ids=lambda path: path.name
)
def test_sibling_imports_are_read(path):
    # A name imported from a sibling module must be read in the importing
    # module; __init__.py is exempt, being the package's re-export surface.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert imported - read == set()
