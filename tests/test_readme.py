"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from isopair.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _code_block(heading: str, language: str) -> str:
    """The first fenced ``language`` block after the ``## heading`` line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    match = re.search(rf"```{language}\n(.*?)```", section, re.DOTALL)
    assert match, f"no {language} block under {heading!r}"
    return match.group(1)


def test_library_tour_runs(capsys):
    tour = _code_block("Library tour", "python")
    exec(compile(tour, "README.md", "exec"), {})
    # the comment on the print line is what the line prints
    expected = re.search(r"^print\(.*\) +# (.*)$", tour, re.MULTILINE).group(1)
    assert capsys.readouterr().out == expected + "\n"


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = [line for line in _code_block("Command line", "sh").splitlines()
             if line.strip()]
    assert len(lines) == 10
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "isopair"
        code = main(argv[1:])
        captured = capsys.readouterr()
        assert code == 0, f"{line!r} exited {code}: {captured.err}"
