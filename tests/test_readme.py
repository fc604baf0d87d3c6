"""The README's Python examples run as written against the dfep under test,
so a renamed or removed public name cannot leave the docs behind."""

import re
from pathlib import Path

from tests.conftest import run_python

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_run(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks, "README.md has no python example"
    for code in blocks:
        run = run_python("-c", code, cwd=tmp_path, text=True)
        assert run.returncode == 0, run.stderr
