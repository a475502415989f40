"""Source hygiene of the library modules, the tests and the benchmark."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import bioqm

SOURCES = sorted(Path(bioqm.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
ROOT = Path(__file__).resolve().parents[1]
BENCH = sorted((ROOT / "bench").glob("*.py"))
# the files whose imports must be read; __init__ imports to re-export
IMPORTERS = [*MODULES, *sorted((ROOT / "tests").glob("*.py")), *BENCH]
# the names that refer to a package module, as in groups.orbits or bioqm.FieldConfig
PACKAGE = {"bioqm", *(p.stem for p in MODULES)}


def _unread_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", IMPORTERS, ids=[f"{p.parent.name}/{p.stem}" for p in IMPORTERS])
def test_every_imported_name_is_read(path):
    assert _unread_imports(ast.parse(path.read_text())) == []


def _is_package(node: ast.AST) -> bool:
    """Whether node names a package module: bioqm, groups, bioqm.cli, ..."""
    while isinstance(node, ast.Attribute) and node.attr in PACKAGE:
        node = node.value
    return isinstance(node, ast.Name) and node.id in PACKAGE


def _reads(node: ast.AST) -> Counter:
    """Top-level names read under node: loaded names and attributes of package modules."""
    reads = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            reads[n.id] += 1
        elif isinstance(n, ast.Attribute) and _is_package(n.value):
            reads[n.attr] += 1
    return reads


def _attribute_reads(node: ast.AST) -> Counter:
    """Member names read under node: every loaded attribute, whatever its owner."""
    return Counter(
        n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    )


def _traced_names(tree: ast.Module) -> Counter:
    """The parts of the dotted names the tracer's SPANS and COUNTERS patch by string."""
    reads = Counter()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTERS") for t in node.targets
        ):
            for n in ast.walk(node.value):
                if isinstance(n, ast.Constant) and isinstance(n.value, str):
                    reads.update(n.value.split("."))
    return reads


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def test_every_definition_is_read_in_the_package():
    # a definition that only the tests read is reference code, and reference
    # code lives in the tests; an export from __init__ is not a read, a read
    # in the benchmark is.  A top-level name is read when loaded or taken off
    # a package module, so x.frobenius() is no read of a gf.frobenius; a
    # method or property is read as any attribute of its name
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    readers = [*trees.values(), *(ast.parse(path.read_text()) for path in BENCH)]
    traced = sum(map(_traced_names, readers), Counter())
    reads = sum(map(_reads, readers), traced)
    attributes = sum(map(_attribute_reads, readers), traced)
    unread = [
        f"{path.stem}.{node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (*FUNCTIONS, ast.ClassDef))
        and reads[node.name] == _reads(node)[node.name]
    ]
    unread += [
        f"{path.stem}.{cls.name}.{node.name}"
        for path, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, FUNCTIONS)
        and not node.name.startswith("__")  # dunders are read by the language
        and attributes[node.name] == _attribute_reads(node)[node.name]
    ]
    assert unread == []


# ROADMAP item 4's line budget for the library, counted over every module
LINE_BUDGET = 4634


def test_the_library_stays_within_its_line_budget():
    lines = sum(len(path.read_text().splitlines()) for path in SOURCES)
    assert lines <= LINE_BUDGET, f"src/bioqm/*.py has {lines} lines, over {LINE_BUDGET}"
