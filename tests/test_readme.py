"""The README's console transcripts, replayed through the CLI byte for byte.

Every `$ ccalc ...` line of a console block is run through `cli.main`, with a
trailing `| tail -N` applied to its output, and its stdout must equal the
lines that follow it up to the next prompt or blank line.  `check-all` (its
last line carries the elapsed time) and the `--json` transcript (its JSON is
wrapped by hand and carries `elapsed`) are left out.
"""

import pathlib
import re
import shlex

import pytest

from ccalc.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
SKIPPED = ("check-all", "--json")


def transcripts():
    out = []
    blocks = re.findall(r"```console\n(.*?)```", README.read_text(), re.S)
    for block in blocks:
        command, expected = None, []
        for line in block.splitlines() + [""]:
            if line.startswith("$ "):
                command, expected = line[2:], []
            elif line and command is not None:
                expected.append(line)
            elif command is not None:
                out.append((command, expected))
                command = None
    return [(c, e) for c, e in out if not any(s in c.split() for s in SKIPPED)]


TRANSCRIPTS = transcripts()


def test_transcripts_found():
    assert len(TRANSCRIPTS) == 7


@pytest.mark.parametrize("command, expected", TRANSCRIPTS, ids=[c for c, _ in TRANSCRIPTS])
def test_transcript(capsys, monkeypatch, command, expected):
    monkeypatch.delenv("CCALC_MODEL", raising=False)
    argv, _, pipe = command.partition("|")
    argv = shlex.split(argv)
    assert argv[0] == "ccalc"
    assert main(argv[1:]) == 0
    out, _ = capsys.readouterr()
    lines = out.splitlines(keepends=True)
    if pipe:
        tail, count = shlex.split(pipe)
        assert tail == "tail" and count.startswith("-")
        lines = lines[-int(count[1:]) :]
    assert "".join(lines) == "".join(line + "\n" for line in expected)
