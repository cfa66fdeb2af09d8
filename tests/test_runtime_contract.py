"""The runtime contract of the package: it imports nothing but the
standard library and its own modules, and no rational arithmetic, so
every computation stays exact over the integers; no module reads the
environment; every name a module imports is used there; and neither multiplication path reaches into the
other, so the agreement of the two stays an independent check.  The
import is cheap: no module pulls in ``dataclasses``, and with it
``inspect``, so a CLI call does not pay for them on every start."""
import ast
import json
import os
import subprocess
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


def package_modules(path):
    """The modules of the package that a file imports, by relative
    imports: ``from .m import x`` names m, ``from . import m`` names m."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_reads_no_environment(path):
    """Output is a function of the arguments alone."""
    text = path.read_text()
    assert "os.environ" not in text and "getenv" not in text and "SATAKE_" not in text


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
        # dataclasses would import inspect, ast and dis on every start
        assert top not in ("fractions", "dataclasses"), (path.name, name)


def modules_after(code):
    """The names in ``sys.modules`` after ``python -s -c code``, with the
    package importable from ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(MODULES[0].parent.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-s", "-c", f"{code}\nimport sys, json\n"
                          "print(json.dumps(sorted(sys.modules)))"],
                         env=env, capture_output=True, text=True, check=True).stdout
    return set(json.loads(out))


def test_import_loads_neither_dataclasses_nor_inspect():
    """What ``import satake`` adds to a bare interpreter's modules; those
    that the site or the listing itself imports do not count."""
    added = modules_after("import satake") - modules_after("pass")
    assert "satake.k0" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added & {"dataclasses", "inspect"})


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # __init__.py imports only to re-export
    assert unused_imports(path) == [], path.name


DUAL_PATH_NAMES = {"k0", "g1", "rep_ring", "convolve", "c_mul_satake",
                   "to_ic_basis", "ic_expansion", "_ic_expansion_cache"}


def self_attributes(fn):
    """Names of the attributes of ``self`` that a method reads."""
    return {node.attr for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


def hecke_methods():
    """{class name: {method name: AST}} for the classes of hecke.py."""
    path = next(p for p in MODULES if p.name == "hecke.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    return {cls.name: {fn.name: fn for fn in cls.body if isinstance(fn, ast.FunctionDef)}
            for cls in tree.body if isinstance(cls, ast.ClassDef)}


def reached_through_self(methods, names):
    """``names`` and every method of ``methods`` they reach through ``self``."""
    path_names, frontier = set(names), set(names)
    while frontier:
        reached = set().union(*(self_attributes(methods[name]) for name in frontier)) & set(methods)
        frontier = reached - path_names
        path_names |= frontier
    return sorted(path_names)


def iwahori_path_bodies():
    """(qualified name, AST) of every IwahoriHecke method and of the
    Iwahori-path methods of SphericalHecke: those that read
    ``self.iwahori``, and every method those reach through ``self``."""
    classes = hecke_methods()
    yield from ((f"IwahoriHecke.{name}", fn) for name, fn in classes["IwahoriHecke"].items())
    methods = classes["SphericalHecke"]
    starts = [name for name, fn in methods.items() if "iwahori" in self_attributes(fn)]
    yield from ((f"SphericalHecke.{name}", methods[name])
                for name in reached_through_self(methods, starts))


def test_iwahori_path_shares_nothing_with_the_dual_path():
    bodies = dict(iwahori_path_bodies())
    assert {"IwahoriHecke.mul", "SphericalHecke.c_mul_iwahori",
            "SphericalHecke.left_minimal_sum", "SphericalHecke.stabiliser_polynomial"} <= set(bodies)
    for name, fn in bodies.items():
        used = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
        used |= {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)}
        assert used.isdisjoint(DUAL_PATH_NAMES), (name, sorted(used & DUAL_PATH_NAMES))


def reaching_through_self(methods, names):
    """``names`` and every method of ``methods`` that reaches one of them
    through ``self``."""
    path_names = set(names)
    while True:
        callers = {name for name, fn in methods.items() if self_attributes(fn) & path_names}
        if callers <= path_names:
            return path_names
        path_names |= callers


def dual_path_methods(methods):
    """The dual-path methods of SphericalHecke: those that read ``self.k0``
    or ``self.g1``, every method that reaches one of those through
    ``self``, and every method all of these reach."""
    starts = [name for name, fn in methods.items() if self_attributes(fn) & {"k0", "g1"}]
    return reached_through_self(methods, reaching_through_self(methods, starts))


def test_dual_path_shares_nothing_with_the_iwahori_path():
    # the dual-path modules import nothing from the Weyl-group module
    for path in MODULES:
        if path.name in ("rep_ring.py", "k0.py"):
            assert "weyl" not in set(package_modules(path)), path.name
    # and the dual-path methods of SphericalHecke read neither the affine
    # Weyl group nor the Iwahori algebra
    methods = hecke_methods()["SphericalHecke"]
    names = dual_path_methods(methods)
    assert {"to_ic_basis", "ic_expansion", "c_mul_satake", "satake_transform", "k0_to_g1",
            "satake_inverse", "ic_function"} <= set(names)
    for name in names:
        read = self_attributes(methods[name]) & {"W", "iwahori"}
        assert not read, (name, sorted(read))
