"""The README's examples run as written against the dfep under test, so a
renamed or removed public name, command or option cannot leave the docs
behind."""

import re
import shlex
from pathlib import Path

from tests.conftest import run_dfep, run_python

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_run(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks, "README.md has no python example"
    for code in blocks:
        run = run_python("-c", code, cwd=tmp_path, text=True)
        assert run.returncode == 0, run.stderr


def test_command_line_block_runs(tmp_path):
    # The config block named ``batch.json`` is written where the commands run,
    # and the commands run in order, each on the files of the ones before.
    text = README.read_text(encoding="utf-8")
    [config] = re.findall(r"`batch\.json`[^\n]*\n\n```json\n(.*?)^```$", text, re.M | re.S)
    (tmp_path / "batch.json").write_text(config, encoding="utf-8")
    commands = [
        shlex.split(line)
        for block in re.findall(r"^```sh\n(.*?)^```$", text, re.M | re.S)
        for line in block.splitlines()
        if line.startswith("dfep ")
    ]
    assert commands[-1] == ["dfep", "experiment", "--config", "batch.json", "-o", "results.tsv"]
    for argv in commands:
        run = run_dfep(*argv[1:], cwd=tmp_path, text=True)
        assert run.returncode == 0, (argv, run.stderr)
