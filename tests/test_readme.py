"""The README's code samples must keep running."""

import json
import re
import shlex
from pathlib import Path

from dimeralg.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_block_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_cli_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert len(commands) == 14
    for argv in commands:
        assert argv[0] == "dimeralg"
        assert main(argv[1:]) == 0, argv
        out = capsys.readouterr().out
        if argv[1:] != ["fixtures", "--list"]:
            json.loads(out)
