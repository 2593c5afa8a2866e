"""The README's character-grammar examples run as documented.

Each ``k4holo ...`` line of the ``Examples:`` block runs in-process, and
every comma-separated part of its trailing comment ("-> sigma2",
"so(10)+c, dim 46") must appear in stdout; "dim 46" is printed "dim: 46".
"""
import re
import shlex
from pathlib import Path

import pytest

from k4holo import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCK = re.search(r"^Examples:\n\n```sh\n(.*?)^```", README, re.M | re.S).group(1)
EXAMPLES = [line for line in BLOCK.splitlines() if line.startswith("k4holo ")]


def test_the_examples_block_is_found():
    assert len(EXAMPLES) == 3


@pytest.mark.parametrize("line", EXAMPLES, ids=[l.partition("#")[0].strip() for l in EXAMPLES])
def test_readme_example_prints_what_its_comment_says(line, capsys):
    command, _, comment = line.partition("#")
    argv = shlex.split(command)[1:]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    for part in comment.strip().removeprefix("->").split(","):
        expected = re.sub(r"^(\w+) (\d+)$", r"\1: \2", part.strip())
        assert expected in out
