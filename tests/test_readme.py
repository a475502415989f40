"""The README's Library example runs and prints what its comments say."""

import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_block_prints_its_commented_outputs():
    block = _library_block()
    namespace: dict = {}
    out = StringIO()
    with redirect_stdout(out):
        exec(compile(block, str(README), "exec"), namespace)
    comments = [line.split("#", 1)[1].strip() for line in block.splitlines()
                if line.startswith("print(")]
    assert comments[:3] == ["1 0", "-4", "False"]
    # the last print is the certificate, described rather than shown
    certificate = str(namespace["report"].result.certificate)
    assert out.getvalue().splitlines() == [*comments[:3], certificate]
