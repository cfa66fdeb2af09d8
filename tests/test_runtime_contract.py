"""The runtime contract of the package: it imports nothing but the
standard library and its own modules, and no rational arithmetic, so
every computation stays exact over the integers; and every name a module
imports is used there."""
import ast
import sys
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).parent.parent / "src" / "satake").glob("*.py"))


def imported_modules(path):
    """(module name, relative level) of every import statement in a file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((alias.name, 0) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or "", node.level


def unused_imports(path):
    """Names bound by import statements of a module that the module never
    references; ``from __future__`` imports are directives, not names."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_every_module_is_scanned():
    assert {p.name for p in MODULES} >= {"lattices.py", "root_datum.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_within_the_package(path):
    for name, level in imported_modules(path):
        if level:
            # relative to the satake package, never above it
            assert level == 1, (path.name, name, level)
            continue
        top = name.split(".")[0]
        assert top in sys.stdlib_module_names, (path.name, name)
        assert top != "fractions", (path.name, name)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # __init__.py imports only to re-export
    assert unused_imports(path) == [], path.name
