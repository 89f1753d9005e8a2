"""The README's examples run against the package as documented."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from bellnet import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def test_library_example_runs():
    section = TEXT.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == "2.0 > 1.0\n"


def _command_lines():
    section = TEXT.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("bellnet ")]


def test_command_block_is_found():
    assert len(_command_lines()) >= 10


@pytest.mark.parametrize("line", _command_lines())
def test_command_line_example_exits_zero(line, tmp_path, capsys):
    argv = shlex.split(line.split(">", 1)[0])[1:]
    if "--out" in argv:
        index = argv.index("--out") + 1
        argv[index] = str(tmp_path / argv[index])
    assert cli.main(argv) == 0
    capsys.readouterr()
