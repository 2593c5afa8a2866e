"""The README's command-line synopsis, character-grammar examples,
criteria table and mutation-survivor citations hold.

Each subcommand's synopsis line states the ``--format`` values the parser
accepts.  Each ``k4holo ...`` line of the ``Examples:`` block runs
in-process, and every comma-separated part of its trailing comment
("-> sigma2", "so(10)+c, dim 46") must appear in stdout; "dim 46" is
printed "dim: 46".  The criteria table, which CI's criteria step reads,
names 16 distinct tests, each of which exists.  Each piece of code the
mutation-survivor list cites occurs exactly once in its module, and the
list cites exactly the modules the score table shows with survivors.
"""
import argparse
import ast
import re
import shlex
from pathlib import Path

import pytest

from k4holo import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCK = re.search(r"^Examples:\n\n```sh\n(.*?)^```", README, re.M | re.S).group(1)
EXAMPLES = [line for line in BLOCK.splitlines() if line.startswith("k4holo ")]
USAGE = re.search(r"^## Command-line usage\n\n```sh\n(.*?)^```", README, re.M | re.S).group(1)
SYNOPSES = {line.split()[1]: line for line in USAGE.splitlines() if line.startswith("k4holo ")}
CRITERIA = re.search(r"^\| criterion \| owning tests \|\n\|---\|---\|\n((?:\|.*\n)+)",
                     README, re.M).group(1)
NODE_ID = re.compile(r"tests/test_\w+\.py::test_\w+")
SCORES = re.search(r"^\| module \| mutants \| killed \| survived \|\n\|---.*\n((?:\|.*\n)+)",
                   README, re.M).group(1)
SURVIVORS = re.search(r"^Every survivor is equivalent\..*?\n\n(.*?)^The tool", README,
                      re.M | re.S).group(1)
# A survivor bullet opens with its module and the code it mutates:
# "- `module` at `piece`, ..." or "- `module` at `piece` and `piece`, ...".
SURVIVOR_CITE = re.compile(r"^- `(\w+)` at (`[^`]+`(?: and\s+`[^`]+`)*),", re.M)


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


def test_criteria_table_names_16_distinct_existing_tests():
    assert len(CRITERIA.splitlines()) == 8
    table = NODE_ID.findall(CRITERIA)
    assert len(table) == len(set(table)) == 16
    for node in table:
        path, _, name = node.partition("::")
        tree = ast.parse((ROOT / path).read_text())
        assert name in {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}, node


def test_mutation_survivors_cite_the_lines_that_hold_them():
    cites = SURVIVOR_CITE.findall(SURVIVORS)
    assert len(cites) == len(re.findall(r"^- ", SURVIVORS, re.M))
    cited = [(module, piece) for module, pieces in cites
             for piece in re.findall(r"`([^`]+)`", pieces)]
    for module, piece in cited:
        source = (ROOT / "src" / "k4holo" / f"{module}.py").read_text()
        assert source.count(piece) == 1, (module, piece)
    survived = {row.split("`")[1] for row in SCORES.splitlines() if row.split("|")[4].strip() != "0"}
    assert {module for module, _ in cited} == survived
