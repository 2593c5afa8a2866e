"""The README's command-line synopsis and character-grammar examples hold.

Each subcommand's synopsis line states the ``--format`` values the parser
accepts.  Each ``k4holo ...`` line of the ``Examples:`` block runs
in-process, and every comma-separated part of its trailing comment
("-> sigma2", "so(10)+c, dim 46") must appear in stdout; "dim 46" is
printed "dim: 46".
"""
import argparse
import re
import shlex
from pathlib import Path

import pytest

from k4holo import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCK = re.search(r"^Examples:\n\n```sh\n(.*?)^```", README, re.M | re.S).group(1)
EXAMPLES = [line for line in BLOCK.splitlines() if line.startswith("k4holo ")]
USAGE = re.search(r"^## Command-line usage\n\n```sh\n(.*?)^```", README, re.M | re.S).group(1)
SYNOPSES = {line.split()[1]: line for line in USAGE.splitlines() if line.startswith("k4holo ")}


def test_synopsis_states_each_subcommands_format_choices():
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(SYNOPSES) == set(subparsers.choices)
    for name, sub in subparsers.choices.items():
        choices = next(a.choices for a in sub._actions if a.dest == "format")
        stated = re.search(r"\[--format ([\w|]+)\]", SYNOPSES[name]).group(1)
        assert stated.split("|") == list(choices), name


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
