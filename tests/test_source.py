"""Source-level guards over the library modules."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ccalc").glob("*.py"))


def test_library_has_no_assert_statements():
    """Invariants are raised exceptions, since `python -O` strips asserts."""
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert not found, found


def test_library_imports_only_the_stdlib():
    """ccalc is stdlib-only: every import is relative or names a top-level
    module of the standard library."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [
                "%s:%d %s" % (path.name, node.lineno, m)
                for m in modules
                if m.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert SOURCES
    assert not found, found


def _oracle_leaks(path, oracles, modules=("rings", "etale")):
    """Names imported from `modules` that the bodies of the `oracles`, or of
    the module-level functions they reach by name, refer to."""
    tree = ast.parse(path.read_text(), str(path))
    banned = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                # `from . import etale` and `from ccalc import etale` bind
                # the module itself
                if source in modules or alias.name in modules:
                    banned.add(alias.asname or alias.name)
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    assert set(oracles) <= set(functions), set(oracles) - set(functions)
    leaks, seen, todo = set(), set(), list(oracles)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                if node.id in banned:
                    leaks.add((name, node.id))
                elif node.id in functions:
                    todo.append(node.id)
    return leaks


def test_checks_oracles_share_no_code_with_the_library():
    """The second implementations in `checks` are compared against `rings`
    and `etale`, so they must not call into either."""
    path = next(p for p in SOURCES if p.name == "checks.py")
    assert not _oracle_leaks(path, ("_independent_reduce", "_independent_galois_sw"))


def test_trace_form_oracle_shares_no_code_with_etale():
    """The Gram-matrix reference in the étale tests is compared against
    `etale.trace_form`, so it may use `rings` but nothing from `etale`."""
    path = Path(__file__).with_name("test_etale.py")
    assert not _oracle_leaks(path, ("_gram_trace_form",), modules=("etale",))


# Public names whose only callers outside the tests live outside src/ccalc:
# perfbench/spans.py times `etale.alpha_tot_product_check` as a span of the
# `algebras` workload, so it stays until that benchmark stops binding it.
OUTSIDE_CALLERS = {"etale.alpha_tot_product_check"}


def _is_property(function):
    return any(
        isinstance(d, ast.Name) and d.id == "property" for d in function.decorator_list
    )


def test_every_public_name_has_a_library_caller():
    """A public module-level function or class, or a public method, defined in
    src/ccalc has a caller somewhere in src/ccalc; code that only the tests
    call is deleted, and the tests check the same behaviour through the public
    operations.

    A function or class counts as used when its name is referenced (as a
    name, an attribute or an import alias), and a property when its name is
    read as an attribute.  A method counts as used only through an attribute
    read `x.name`, and, when some code in src/ccalc also stores an attribute of
    that name (`x.name = ...`), only through a call `x.name(...)`; otherwise
    a method such as `Poly.degree()` would pass on the strength of
    `report.degree`, which reads `LocusClassReport`'s stored attribute."""
    defined, properties, methods = [], [], []
    referenced, loaded, stored, called = set(), set(), set(), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append("%s.%s" % (path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        kind = properties if _is_property(item) else methods
                        kind.append("%s.%s.%s" % (path.stem, node.name, item.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
                elif isinstance(node.ctx, ast.Store):
                    stored.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)

    def leaf(qualified):
        return qualified.rpartition(".")[2]

    # every public name, with the set its spelling must be in to count as used
    uses = [(qualified, referenced) for qualified in defined]
    uses += [(qualified, loaded) for qualified in properties]
    uses += [
        (qualified, called if leaf(qualified) in stored else loaded)
        for qualified in methods
    ]
    unused = {
        qualified
        for qualified, spellings in uses
        if not leaf(qualified).startswith("_") and leaf(qualified) not in spellings
    }
    assert defined and properties and methods
    assert unused <= OUTSIDE_CALLERS, sorted(unused - OUTSIDE_CALLERS)
