"""The README's examples run and print what the README shows.

The Python blocks run in one namespace; each `print(...)  # expected` line
is checked against its comment, where a token ending in `...` matches any
printed token it begins. Each `text` block that starts with `$ marc-cap`
runs through cli.main in a directory holding the README's `config.json`;
its lines must match the ones shown, where a `...` line stands for any
lines.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from marc_cap.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCK = re.compile(r"^```(\w+)\n(.*?)^```", re.M | re.S)


def blocks(kind):
    return [body for lang, body in BLOCK.findall(README.read_text()) if lang == kind]


def tokens_match(expected, printed):
    exp, got = expected.split(), printed.split()
    return len(exp) == len(got) and all(
        g.startswith(e[:-3]) if e.endswith("...") else g == e for e, g in zip(exp, got)
    )


def test_python_blocks_print_their_comments():
    namespace, chunk, checked = {}, [], 0
    for line in "".join(blocks("python")).splitlines():
        chunk.append(line)
        if not (line.startswith("print(") and "  # " in line):
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec("\n".join(chunk), namespace)
        chunk = []
        expected = line.split("  # ", 1)[1]
        assert tokens_match(expected, out.getvalue()), (line, out.getvalue())
        checked += 1
    assert checked == 3


COMMAND_BLOCKS = [body for body in blocks("text") if body.startswith("$ marc-cap ")]


def argv(body):
    """The arguments of a block's `$ marc-cap ...` line."""
    return shlex.split(body.split("\n", 1)[0])[2:]


def test_readme_shows_the_cli_blocks():
    assert sorted(argv(body)[0] for body in COMMAND_BLOCKS) == ["classify", "region", "sumcap", "verify"]


@pytest.mark.parametrize("body", COMMAND_BLOCKS, ids=lambda body: argv(body)[0])
def test_cli_blocks_print_what_they_show(tmp_path, monkeypatch, capsys, body):
    (tmp_path / "config.json").write_text(blocks("json")[0])
    monkeypatch.chdir(tmp_path)
    shown = body.rstrip("\n").split("\n")[1:]
    code = main(argv(body))
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    pattern = "\n".join(".*?" if line == "..." else re.escape(line) for line in shown)
    assert re.fullmatch(pattern, out.rstrip("\n"), re.S), out
