"""README's examples run as written: the library block, and the CLI walkthrough."""

import re
import shlex
from pathlib import Path

from hopsets.cli import EXIT_OK, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(lang: str, after: str = "") -> str:
    """The first ```lang block of README that follows the line `after`."""
    start = README.index(after) if after else 0
    match = re.compile(rf"^```{lang}\n(.*?)^```$", re.M | re.S).search(README, start)
    assert match, f"README has no {lang} block after {after!r}"
    return match.group(1)


def walkthrough_commands() -> list[list[str]]:
    """Each `hopset ...` command of the CLI walkthrough, continuation lines joined."""
    text = fenced_block("sh", "## CLI walkthrough").replace("\\\n", " ")
    lines = [line.strip() for line in text.splitlines()]
    return [shlex.split(line) for line in lines if line.startswith("hopset ")]


def test_library_block_runs(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    exec(compile(fenced_block("python"), "README.md", "exec"), {})


def test_cli_walkthrough_exits_zero(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    commands = walkthrough_commands()
    assert [argv[1] for argv in commands] == ["gen", "build", "verify", "query", "stats"]
    for argv in commands:
        assert main(argv[1:]) == EXIT_OK, " ".join(argv)
