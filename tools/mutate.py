"""Mutation testing for k4holo: do the tests catch a wrong engine?

    python3 tools/mutate.py MODULE [MODULE ...] [--out FILE]

Each mutant makes one change to the syntax tree of src/k4holo/MODULE.py:
a comparison negated (== and !=, < and >=, > and <=, in and not in, is and
is not), an arithmetic or bit operator swapped (+ and -, * and //, % to //,
** to *, & and |, ^ to &, << and >>), an integer constant + 1, a boolean
constant flipped, and and or swapped, or a `not` dropped.  Annotations are
left alone: the package never evaluates them.

For each mutant the package is copied to a temporary directory with the
mutated module in place, and the module's test subset (TESTS) runs on the
copy with `pytest -x`, a fixed hypothesis seed and the "mutate" hypothesis
profile of tests/conftest.py, which skips shrinking.  A mutant is killed when
the tests fail or run out of time, and survives when they pass.  The tests
must pass on the unmutated package first.  The score goes to stdout, and
the survivors, with their line and change, to FILE (default mutants.json).

Stdlib only; at most two test runs at once (JOBS).
"""
from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "k4holo"
JOBS = min(2, os.cpu_count() or 1)

# The test files run on each module's mutants, its own tests first.
_CORE = ("test_realform.py", "test_golden.py", "test_reductive.py", "test_pipeline.py")
TESTS = {
    "rootsys": ("test_rootsys.py", *_CORE),
    "toral": ("test_toral.py", "test_records.py", *_CORE),
    "reductive": ("test_reductive.py", "test_realform.py", "test_golden.py", "test_pipeline.py"),
    "realform": _CORE,
    "pipeline": ("test_pipeline.py", "test_golden.py", "test_realform.py", "test_reductive.py",
                 "test_cli.py"),
    "chevalley": ("test_chevalley.py", "test_acceptance.py", "test_cli.py"),
    "cli": ("test_cli.py", "test_readme.py"),
}

_COMPARE = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
            ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In,
            ast.Is: ast.IsNot, ast.IsNot: ast.Is}
_BINARY = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
           ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.BitAnd: ast.BitOr,
           ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitAnd, ast.LShift: ast.RShift,
           ast.RShift: ast.LShift}
_SYMBOL = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.GtE: ">=", ast.Gt: ">",
           ast.LtE: "<=", ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not",
           ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.Mod: "%",
           ast.Pow: "**", ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^", ast.LShift: "<<",
           ast.RShift: ">>", ast.And: "and", ast.Or: "or"}


class _Sites(ast.NodeTransformer):
    """Visit the mutation sites of a tree in one fixed order, recording each
    as (line, column, change); with a target index, apply that one change."""

    def __init__(self, tree: ast.Module, target: int | None = None):
        self.target = target
        self.sites: list[tuple[int, int, str]] = []
        self.skip = {id(n) for node in ast.walk(tree)
                     for ann in (getattr(node, "annotation", None), getattr(node, "returns", None))
                     if ann is not None for n in ast.walk(ann)}

    def _site(self, node: ast.AST, change: str) -> bool:
        """Record a site; true when it is the one to apply."""
        if id(node) in self.skip:
            return False
        self.sites.append((node.lineno, node.col_offset, change))
        return len(self.sites) - 1 == self.target

    def visit_Compare(self, node: ast.Compare) -> ast.AST:
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            swap = _COMPARE[type(op)]
            if self._site(node, f"{_SYMBOL[type(op)]} -> {_SYMBOL[swap]}"):
                node.ops[i] = swap()
        return node

    def _operator(self, node: ast.BinOp | ast.AugAssign) -> ast.AST:
        self.generic_visit(node)
        swap = _BINARY.get(type(node.op))
        if swap and self._site(node, f"{_SYMBOL[type(node.op)]} -> {_SYMBOL[swap]}"):
            node.op = swap()
        return node

    visit_BinOp = visit_AugAssign = _operator

    def visit_BoolOp(self, node: ast.BoolOp) -> ast.AST:
        self.generic_visit(node)
        swap = ast.Or if isinstance(node.op, ast.And) else ast.And
        if self._site(node, f"{_SYMBOL[type(node.op)]} -> {_SYMBOL[swap]}"):
            node.op = swap()
        return node

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.AST:
        self.generic_visit(node)
        if isinstance(node.op, ast.Not) and self._site(node, "drop not"):
            return node.operand
        return node

    def visit_Constant(self, node: ast.Constant) -> ast.AST:
        if isinstance(node.value, bool):
            if self._site(node, f"{node.value} -> {not node.value}"):
                node.value = not node.value
        elif isinstance(node.value, int):
            if self._site(node, f"{node.value} -> {node.value + 1}"):
                node.value += 1
        return node


def mutants(source: str) -> list[tuple[int, int, str, str]]:
    """Every mutant of a module's source, as (line, column, change, mutated
    source); the column is that of the changed expression."""
    tree = ast.parse(source)
    sites = _Sites(tree)
    sites.visit(tree)
    out = []
    for target, site in enumerate(sites.sites):
        tree = ast.parse(source)
        mutated = _Sites(tree, target).visit(tree)
        out.append((*site, ast.unparse(ast.fix_missing_locations(mutated))))
    return out


def _passes(package: Path, module: str, source: str, command: list[str],
            timeout: float) -> bool:
    """Whether command passes with PYTHONPATH at a copy of package whose
    module holds source.  It runs in the copy's directory, so nothing it
    writes (a hypothesis database) outlives the run."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, package.name)
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        (copy / f"{module}.py").write_text(source)
        env = {**os.environ, "PYTHONPATH": tmp, "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            done = subprocess.run(command, cwd=tmp, env=env, timeout=timeout,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            return False
        return done.returncode == 0


def run(module_file: Path, command: list[str]) -> dict:
    """Run command on every mutant of module_file, a module of the package
    directory that holds it; the score and the survivors, as a dict."""
    module_file = Path(module_file)
    package, module = module_file.parent, module_file.stem
    source = module_file.read_text()
    started = time.monotonic()
    if not _passes(package, module, source, command, timeout=600):
        raise SystemExit(f"the tests fail on the unmutated {module_file.name}")
    timeout = 10 + 5 * (time.monotonic() - started)
    todo = mutants(source)
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        passed = list(pool.map(lambda m: _passes(package, module, m[3], command, timeout), todo))
    lines = source.splitlines()
    survivors = [{"line": line, "col": col, "change": change, "source": lines[line - 1].strip()}
                 for (line, col, change, _), alive in zip(todo, passed) if alive]
    return {"module": module, "mutants": len(todo), "killed": len(todo) - len(survivors),
            "survivors": survivors}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", choices=sorted(TESTS), metavar="MODULE")
    parser.add_argument("--out", default="mutants.json", help="survivors file (default %(default)s)")
    args = parser.parse_args(argv)
    results = []
    for module in args.modules:
        tests = [str(ROOT / "tests" / name) for name in TESTS[module]]
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   "--hypothesis-seed=0", "--hypothesis-profile=mutate", f"--rootdir={ROOT}",
                   *tests]
        result = run(PACKAGE / f"{module}.py", command)
        results.append(result)
        print(f"{module}: {result['killed']} of {result['mutants']} mutants killed, "
              f"{len(result['survivors'])} survived")
    Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
