"""Source hygiene of the library modules."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import bioqm

SOURCES = sorted(Path(bioqm.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
BENCH = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_read(path):
    assert _unread_imports(ast.parse(path.read_text())) == []


def _reads(node: ast.AST) -> Counter:
    """Names read under node: loaded names and attribute names."""
    reads = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            reads[n.id] += 1
        elif isinstance(n, ast.Attribute):
            reads[n.attr] += 1
    return reads


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


def test_every_definition_is_read_in_the_package():
    # a top-level function or class that only the tests read is reference
    # code, and reference code lives in the tests; an export from __init__
    # is not a read, a read in the benchmark is
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    bench = [ast.parse(path.read_text()) for path in BENCH]
    reads = sum(map(_reads, [*trees.values(), *bench]), Counter())
    reads += sum(map(_traced_names, bench), Counter())
    unread = [
        f"{path.stem}.{node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and reads[node.name] == _reads(node)[node.name]
    ]
    assert unread == []


# ROADMAP item 4's line budget for the library, counted over every module
LINE_BUDGET = 4634


def test_the_library_stays_within_its_line_budget():
    lines = sum(len(path.read_text().splitlines()) for path in SOURCES)
    assert lines <= LINE_BUDGET, f"src/bioqm/*.py has {lines} lines, over {LINE_BUDGET}"
