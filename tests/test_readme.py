"""README's examples print what README says they print."""

import re
import shlex
from pathlib import Path

import pytest

from codedcache import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
PROMPT = "$ python -m codedcache "


def _toy_config(text):
    """The config that README's heredoc writes to toy.json."""
    match = re.search(r"cat > toy\.json <<'JSON'\n(.*?)\nJSON\n", text, re.S)
    assert match, "README has no toy.json heredoc"
    return match.group(1) + "\n"


def _examples(text):
    """``(argv, expected stdout lines)`` of every command in README's
    ``console`` blocks."""
    out = []
    for block in re.findall(r"```console\n(.*?)```", text, re.S):
        for line in block.splitlines():
            if line.startswith("$ "):
                assert line.startswith(PROMPT), line
                out.append((shlex.split(line[len(PROMPT) :]), []))
            else:
                out[-1][1].append(line)
    return out


EXAMPLES = _examples(README)


def test_readme_has_the_three_commands():
    assert [argv[0] for argv, _ in EXAMPLES] == ["place", "deliver", "rates"]


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[argv[0] for argv, _ in EXAMPLES])
def test_readme_example_prints_its_output(tmp_path, monkeypatch, capsys, argv, expected):
    (tmp_path / "toy.json").write_text(_toy_config(README))
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == expected
