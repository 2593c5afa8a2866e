"""The README's command-line synopsis, character-grammar examples,
criteria table and mutation-survivor citations hold.

Each subcommand's synopsis line states the ``--format`` values the parser
accepts.  Each ``k4holo ...`` line of the ``Examples:`` block runs
in-process, and every comma-separated part of its trailing comment
("-> sigma2", "so(10)+c, dim 46") must appear in stdout; "dim 46" is
printed "dim: 46".  The criteria table and CI's criteria step name the
same tests, each of which exists.  Each source line the mutation-survivor
list cites still holds the code it argues about.
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
# CI has no YAML parser, so the step is read as text: from its name to the next step.
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
CI_STEP = re.search(r"- name: paper criteria.*?(?=\n\s*- |\Z)", WORKFLOW, re.S).group(0)
NODE_ID = re.compile(r"tests/test_\w+\.py::test_\w+")
SURVIVORS = re.search(r"^Every survivor is equivalent:\n(.*?)^The tool", README,
                      re.M | re.S).group(1)
SURVIVOR_CITE = re.compile(r"^- `(\w+)` lines? (\d+)(?: and (\d+))?", re.M)
# Each line the survivor list cites, by module and line number, with a piece
# of its source: a line that moves fails here until the README follows it.
SURVIVOR_LINES = [
    ("realform", 63, '"so_star": 2'),
    ("realform", 98, "1 if self.is_compact else 0"),
    ("realform", 133, "signs = [False]"),
    ("realform", 197, "if next(x for x in reversed(cross) if x) < 0"),
    ("reductive", 33, "TorusCharacter(2, (0, 1, 0, 0, 0, 0))"),
    ("reductive", 38, "TorusCharacter(2, (1, 0, 0, 0, 0, 1))"),
    ("toral", 95, "TorusCharacter(1, (0,) * RANK)"),
    ("toral", 174, "range(1 << k)"),
    ("rootsys", 240, "base = 6 * maxc + 1"),
    ("chevalley", 57, "1 << i"),
    ("chevalley", 60, "x + sum(r[j] for j in up)"),
    ("chevalley", 90, "eps(a, b) * c[a] * c[b]"),
    ("chevalley", 111, "eps(a, b) * c[a] * c[b] * c[s]"),
    ("chevalley", 219, "acc.get(p, 0) + c * c2"),
    ("cli", 161, "flush=True"),
    ("cli", 212, "sys.simple_pairings(r)[0] ** 2"),
    ("cli", 382, '"--jobs", type=int, default=1'),
]


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


def test_criteria_table_and_ci_step_name_the_same_existing_tests():
    assert len(CRITERIA.splitlines()) == 8
    table = NODE_ID.findall(CRITERIA)
    assert len(table) == len(set(table)) == 16
    assert NODE_ID.findall(CI_STEP) == table
    for node in table:
        path, _, name = node.partition("::")
        tree = ast.parse((ROOT / path).read_text())
        assert name in {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}, node


def test_mutation_survivors_cite_the_lines_that_hold_them():
    cited = [(module, int(line)) for module, *lines in SURVIVOR_CITE.findall(SURVIVORS)
             for line in lines if line]
    assert cited == [(module, line) for module, line, _ in SURVIVOR_LINES]
    for module, line, piece in SURVIVOR_LINES:
        source = (ROOT / "src" / "k4holo" / f"{module}.py").read_text().splitlines()
        assert piece in source[line - 1], (module, line)
