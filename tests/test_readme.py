"""The README's command lines and library example run as documented.

Every ``pencilkit ...`` line of README's ``sh`` blocks runs in-process through
``cli.main``, from a directory that holds README's JSON block as
``pencil.json``, and must exit 0.  The library example runs as written, and
each printed verdict must be the one its ``# comment`` names.
"""

import contextlib
import io
import os
import re
import shlex

import pytest

from pencilkit.cli import EXIT_OK, main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
VERDICTS = {"point_singular", "approx_singular_only", "singular_only", "regular"}


def _blocks(lang: str) -> list[str]:
    with open(README, encoding="utf-8") as fh:
        return re.findall(rf"^```{lang}\n(.*?)^```", fh.read(), re.M | re.S)


COMMANDS = [line.split(" #")[0].strip() for block in _blocks("sh")
            for line in block.splitlines() if line.startswith("pencilkit ")]


def test_readme_documents_commands():
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_0(line, tmp_path, monkeypatch, capsys):
    (pencil_json,) = _blocks("json")
    (tmp_path / "pencil.json").write_text(pencil_json, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(line)[1:])
    assert code == EXIT_OK, capsys.readouterr().err


def test_readme_library_example_prints_its_commented_verdicts():
    (example,) = _blocks("python")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(example, "README library example", "exec"), {})
    printed = buf.getvalue().splitlines()
    comments = [line.split("# ", 1)[1].split()[0] for line in example.splitlines()
                if line.startswith("print(")]
    assert len(printed) == len(comments)
    checked = [(out, want) for out, want in zip(printed, comments) if want in VERDICTS]
    assert checked
    assert all(out == want for out, want in checked), checked
