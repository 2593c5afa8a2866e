"""Byte-identity of the CLI against the recorded reference outputs.

perfbench/refs.json holds outputs recorded from the seed engine, and
perfbench/record_refs.py shows the argv of each.  The commands run
in-process here, so any change to an output fails these tests and not only
the benchmark.  The references are only read, never rewritten.
"""
import hashlib
import json
import os
from pathlib import Path

import pytest

from k4holo import cli

REFS = json.loads((Path(__file__).resolve().parent.parent
                   / "perfbench" / "refs.json").read_text())


@pytest.fixture(autouse=True)
def default_environment(monkeypatch):
    for key in list(os.environ):
        if key.startswith("K4HOLO_"):
            monkeypatch.delenv(key)


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 0, (argv, captured.err)
    return captured.out


@pytest.mark.parametrize("fmt", ["plain", "json", "markdown"])
def test_theorem24(fmt, capsys):
    assert run(["theorem24", "--format", fmt], capsys) == REFS["theorem24"][fmt]


def test_selftest_and_ntable_dump(tmp_path, capsys):
    dump = tmp_path / "ntable"
    assert run(["selftest", "--ntable-out", str(dump)], capsys) == REFS["selftest"]
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == REFS["ntable_sha256"]


def test_e6_roots(capsys):
    doc = json.loads(run(["roots", "--type", "E6", "--format", "json"], capsys))
    assert doc["roots"] == REFS["e6_roots"]


def test_survey_every_sigma2_theta(capsys):
    assert len(REFS["survey"]) == 12
    for theta, ref in REFS["survey"].items():
        assert run(["survey", "--theta", theta], capsys) == ref, theta


def test_realform_every_candidate(capsys):
    assert len(REFS["realform"]) == 48
    for key, ref in REFS["realform"].items():
        group, theta, g1, g2 = key.split()
        argv = ["realform", "--group", group, "--gamma", g1, g2,
                "--theta", theta, "--format", "json"]
        assert run(argv, capsys) == ref, key


def test_classify_every_modulus2_character(capsys):
    assert len(REFS["classify"]) == 63
    for chain, ref in REFS["classify"].items():
        argv = ["classify", "--char", f"chi m=2 [{chain}]", "--format", "json"]
        assert run(argv, capsys) == ref, chain
