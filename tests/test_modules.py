"""Source hygiene of the library modules."""

import ast
from pathlib import Path

import pytest

import bioqm

MODULES = sorted(p for p in Path(bioqm.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
