"""The mutant register (``tests/mutants.json``) still applies to this tree.

The runner, ``tests/mutants.py``, is not part of this suite: it runs each
mutant's tests in a temporary copy.  This checks what a refactor can break
without running any mutant: every entry's old text occurs exactly once in its
file, and every named test is defined in the file it names.
"""

import ast
import re
from pathlib import Path

import pytest

from mutants import ROOT, load_register, mutated

REGISTER = load_register()
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


@pytest.mark.parametrize("entry", REGISTER, ids=[entry["id"] for entry in REGISTER])
def test_register_entry_applies_once_and_names_defined_tests(entry):
    assert mutated(entry, ROOT) != (ROOT / entry["file"]).read_text()
    assert entry["tests"]
    for test in entry["tests"]:
        path, name = re.fullmatch(r"(tests/test_\w+\.py)::(\w+)(\[.*\])?", test).group(1, 2)
        tree = ast.parse(Path(ROOT, path).read_text())
        assert name in {node.name for node in tree.body if isinstance(node, FUNCTIONS)}, test
