import concurrent.futures
import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from k4holo import chevalley, cli, pipeline
from k4holo.errors import EngineError
from k4holo.realform import RealFormLabel, RealFormType
from k4holo.rootsys import build_root_system
from k4holo.toral import TorusCharacter


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_theorem24_json(capsys):
    code, out, err = run_cli(["theorem24", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verified_against_theorem24"] is True
    assert len(doc["distinct_pairs"]) == 8


@pytest.mark.parametrize("args", [
    ["roots", "--type", "E6"],
    ["selftest"],
    ["fixed", "--chars", "chi m=2 [1,0,0,0,1,0]", "chi m=4 [0,2,0,0,0,1]"],
    ["classify", "--char", "chi m=2 [0,0,0,0,0,1]"],
    ["realform", "--gamma", "x1", "x2", "--theta", "x4"],
    ["survey", "--theta", "x4"],
    ["theorem24"],
], ids=lambda args: args[0])
def test_json_roundtrips_byte_identical(args, capsys):
    code, out, _ = run_cli([*args, "--format", "json"], capsys)
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_theorem24_markdown(capsys):
    code, out, _ = run_cli(["theorem24", "--format", "markdown"], capsys)
    assert code == 0
    assert out.startswith("# Klein four symmetric pairs")
    assert "verified: true" in out


def test_theorem24_mismatch_exit_code(capsys, monkeypatch):
    # two reports built from real data: one with no candidates, so every
    # golden pair is missing, and one whose first candidate's real form is
    # replaced by one outside the golden list
    first, *rest = pipeline.classify_all(build_root_system("E", 6)).groups
    odd = first.candidates[0]._replace(real_form=RealFormType((RealFormLabel("su", 2, 1),), 2))
    one_odd = pipeline.K4Report((first._replace(candidates=(odd, *first.candidates[1:])), *rest))
    for broken, mismatch in [
        (pipeline.K4Report(groups=()),
         "MISMATCH missing=['2su(1,1)+su(4)+c', '2su(2,1)+2c', 'so(6,2)+2c', "
         "'su(2,1)+su(3)+2c', 'su(2,2)+2su(2)+c', 'su(3,1)+su(1,1)+su(2)+c', "
         "'su(3,2)+2c', 'su(4,1)+2c'] unexpected=[]"),
        (one_odd, "MISMATCH missing=[] unexpected=['su(2,1)+2c']"),
    ]:
        monkeypatch.setattr(pipeline, "classify_all", lambda sys: broken)
        code, out, err = run_cli(["theorem24"], capsys)
        assert (code, err) == (1, mismatch + "\n")
        assert out.endswith("\nverified: false\n")


def test_a_survey_value_outside_the_admissible_list_exits_1(capsys, monkeypatch):
    # x4's own g^x4 is so(10)+so(2), the form dropped here
    assert pipeline.SURVEY_FORMS[-1] == "so(10)+so(2)"
    monkeypatch.setattr(pipeline, "SURVEY_FORMS", pipeline.SURVEY_FORMS[:-1])
    code, out, err = run_cli(["survey", "--theta", "x4"], capsys)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("verification failure: survey value so(10)+so(2) for (x1x2x4, x4) ")


def test_classify_x4_spec(capsys):
    code, out, _ = run_cli(
        ["classify", "--char", "su6sp1 m=4 d=[2,2,0,2,2,0] y=0"], capsys)
    assert code == 0
    assert out.strip() == "sigma2"


def test_classify_json_fields(capsys):
    code, out, _ = run_cli(
        ["classify", "--format", "json", "--char", "su6sp1 m=4 d=[0,0,0,0,0,0] y=2"],
        capsys)
    doc = json.loads(out)
    assert doc["class"] == "sigma1"
    assert doc["mu"] == -1
    assert doc["fixed_dim"] == 38


@pytest.mark.parametrize("fmt", ["plain"])
def test_classify_text_computes_only_the_class(fmt, capsys, monkeypatch):
    def unused(*args):
        raise AssertionError("plain classify read the fixed subalgebra or mu")

    monkeypatch.setattr(cli, "fixed_subalgebra", unused)
    monkeypatch.setattr(cli, "mu", unused)
    code, out, _ = run_cli(["classify", "--format", fmt, "--char", "chi m=2 [0,0,0,0,0,1]"],
                           capsys)
    assert (code, out) == (0, "sigma1\n")


@pytest.mark.parametrize("args", [
    ["roots", "--type", "E6"],
    ["selftest"],
    ["fixed", "--chars", "chi m=2 [1,0,0,0,0,0]"],
    ["classify", "--char", "chi m=2 [0,0,0,0,0,1]"],
    ["realform", "--gamma", "y4", "y5", "--theta", "y3", "--group", "y3y4y5"],
    ["survey", "--theta", "x4"],
], ids=lambda args: args[0])
def test_markdown_only_on_theorem24(args):
    # argparse rejects the choice before any computation
    assert _run_in_process([*args, "--format", "markdown"]) == (2, "")


def test_classify_chi_chain_order(capsys):
    # chain-order vector [a1,a3,a4,a5,a6,a2]; the last slot is alpha2
    code, out, _ = run_cli(
        ["classify", "--char", "chi m=2 [0,0,0,0,0,1]"], capsys)
    assert code == 0
    assert out.strip() == "sigma1"
    chi = cli.parse_char_spec("chi m=2 [0,0,0,0,0,1]")
    assert chi == TorusCharacter(2, (0, 1, 0, 0, 0, 0))


def test_fixed_without_chars_is_whole_algebra(capsys):
    code, out, _ = run_cli(["fixed", "--format", "json"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["dim"] == 78 and doc["type"] == "e6"


def test_fixed_with_two_chars(capsys):
    code, out, _ = run_cli(
        ["fixed", "--format", "json",
         "--chars", "chi m=2 [0,0,0,0,0,1]", "su6sp1 m=4 d=[2,2,0,2,2,0] y=0"],
        capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["fixed_root_count"] + 6 == doc["dim"]


# Specs parse_char_spec refuses, at least one per message, with the stderr line each gives.
_REFUSED_SPECS = [
    ("chi m=2 1,0,0,0,0,0", "expected a bracketed vector, got '1,0,0,0,0,0'"),
    ("chi [1,0,0,0,0,0", "expected a bracketed vector, got '[1,0,0,0,0,0'"),
    ("chi [1,a,0,0,0,0]", "non-integer entry in vector '[1,a,0,0,0,0]'"),
    ("chi m=4 [1,2]", "expected 6 entries in '[1,2]', got 2"),
    ("", "empty character spec"),
    ("chi m=2 m=4 [1,0,0,0,0,0]", "duplicate field 'm=4' in character spec"),
    ("chi m=x [0,0,0,0,0,0]", "bad modulus token m='x'"),
    ("chi m=0 [1,0,0,0,0,0]", "modulus must be >= 1, got m=0"),
    ("chi y=1 [1,0,0,0,0,0]", "malformed chi spec 'chi y=1 [1,0,0,0,0,0]'"),
    ("su6sp1 [1,0,0,0,0,0]", "malformed su6sp1 spec 'su6sp1 [1,0,0,0,0,0]'"),
    ("su6sp1 d=[0,0,0,0,0,0]",
     "su6sp1 spec 'su6sp1 d=[0,0,0,0,0,0]' needs d=[...] and y=N"),
    ("su6sp1 d=[0,0,0,0,0,0] y=q", "bad sp(1) token y='q'"),
    # spec integers are ASCII decimal with an optional '-': int() alone
    # would read other scripts' digits, underscores and a '+'
    ("chi m=٣ [1,0,0,0,0,0]", "bad modulus token m='٣'"),
    ("chi m=1_2 [1,0,0,0,0,0]", "bad modulus token m='1_2'"),
    ("chi m=+3 [1,0,0,0,0,0]", "bad modulus token m='+3'"),
    ("chi m=2 [١,0,0,0,0,0]", "non-integer entry in vector '[١,0,0,0,0,0]'"),
    ("chi [1_0,0,0,0,0,0]", "non-integer entry in vector '[1_0,0,0,0,0,0]'"),
    ("chi [+1,0,0,0,0,0]", "non-integer entry in vector '[+1,0,0,0,0,0]'"),
    ("su6sp1 d=[0,0,0,0,0,0] y=٣", "bad sp(1) token y='٣'"),
    ("su6sp1 d=[0,0,0,0,0,0] y=1_2", "bad sp(1) token y='1_2'"),
    ("su6sp1 d=[0,0,0,0,0,0] y=+3", "bad sp(1) token y='+3'"),
    ("blah m=4", "unknown character kind 'blah' (want chi or su6sp1)"),
]


def test_malformed_char_spec_is_usage_error(capsys):
    for spec, message in _REFUSED_SPECS:
        assert run_cli(["classify", "--char", spec], capsys) == (2, "", f"usage error: {message}\n")


def test_modulus_one_is_accepted(capsys):
    # the smallest modulus: every exponent reduces to 0, the identity
    assert run_cli(["classify", "--char", "chi m=1 [0,0,0,0,0,0]"], capsys) == (0, "identity\n", "")


_BLANKS = st.text(" \t", max_size=2)


@given(st.lists(st.integers(-30, 30), min_size=6, max_size=6),
       st.lists(st.tuples(_BLANKS, _BLANKS), min_size=6, max_size=6))
def test_spaces_inside_brackets_do_not_change_the_character(vec, pads):
    vec[-1] = -sum(vec[:-1])  # su6sp1 diagonals must sum to 0
    tight = ",".join(map(str, vec))
    loose = ",".join(f"{a}{v}{b}" for v, (a, b) in zip(vec, pads))
    for template in ("chi m=12 [{}]", "su6sp1 m=12 d=[{}] y=1"):
        assert (cli.parse_char_spec(template.format(loose))
                == cli.parse_char_spec(template.format(tight)))


_SPEC_PIECES = st.sampled_from(
    ["chi", "su6sp1", " ", "m=", "d=", "y=", "=", "[", "]", ",", "0", "1", "-4", "12"])


@given(st.one_of(st.text(max_size=40),
                 st.lists(st.one_of(_SPEC_PIECES, st.text(max_size=2)), max_size=20)
                 .map("".join)))
def test_parse_char_spec_raises_only_engine_errors(spec):
    try:
        cli.parse_char_spec(spec)
    except EngineError:
        pass


def _run_in_process(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue()


@pytest.mark.parametrize("args, code", [
    (["roots", "--format", "markdown"], 2), (["nosuch"], 2), (["theorem24", "-h"], 0)])
def test_argparse_exits_return_their_code_in_process(args, code, capsys):
    # argparse prints its usage or help itself; main returns its exit code
    assert cli.main(args) == code
    captured = capsys.readouterr()
    assert (captured.out.startswith("usage: k4holo") if code == 0
            else captured.err.startswith("usage: k4holo"))


_HOSTILE_SPECS = st.one_of(
    st.text(max_size=30),
    st.lists(st.one_of(_SPEC_PIECES, st.text(max_size=2)), max_size=16).map("".join))


@given(_HOSTILE_SPECS, st.lists(_HOSTILE_SPECS, max_size=3))
@settings(max_examples=100, deadline=None)
def test_hostile_specs_exit_0_or_2_with_no_output_on_error(spec, specs):
    for args in (["classify", "--char", spec], ["fixed", "--chars", *specs]):
        code, out = _run_in_process(args)
        assert code in (0, 2)
        if code == 2:
            assert out == ""


_LABEL_PIECES = st.sampled_from(
    ["x1", "x2", "x4", "x5", "y1", "y3", "y4", "y5", "1", ":", "x1x2x4", "y3y4y5", "-"])
_HOSTILE_LABELS = st.one_of(
    st.text(max_size=12),
    st.lists(st.one_of(_LABEL_PIECES, st.text(max_size=2)), max_size=4).map("".join),
    # two colons: a group qualifier whose element part holds a colon
    st.lists(st.one_of(_LABEL_PIECES, st.text(max_size=2)), min_size=3, max_size=3)
    .map(":".join))


@given(_HOSTILE_LABELS, _HOSTILE_LABELS, _HOSTILE_LABELS,
       st.sampled_from([[]] + [["--group", g] for g in pipeline.GROUP_NAMES]))
@settings(max_examples=60, deadline=None)
def test_hostile_labels_exit_0_or_2_with_no_output_on_error(theta, g1, g2, group):
    for args in (["realform", "--gamma", g1, g2, "--theta", theta, *group],
                 ["survey", "--theta", theta]):
        code, out = _run_in_process(args)
        assert code in (0, 2)
        if code == 2:
            assert out == ""


def test_spaced_vector_on_the_command_line(capsys):
    code, out, _ = run_cli(["fixed", "--chars", "chi m=2 [1, 0,0,0,1, 0]"], capsys)
    assert code == 0
    assert out.startswith("type: so(10)+c\n")


def test_su6sp1_determinant_violation_exits_2(capsys):
    code, out, err = run_cli(["classify", "--char", "su6sp1 m=4 d=[1,1,1,1,1,1] y=0"], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: determinant violation: diagonal exponents "
                   "[1, 1, 1, 1, 1, 1] do not sum to 0 mod 4\n")


def test_higher_order_char_rejected(capsys):
    code, _, err = run_cli(["classify", "--char", "chi m=4 [1,0,0,0,0,0]"], capsys)
    assert code == 2


@pytest.mark.parametrize("args, option", [
    ([], "command"), (["roots"], "--type"), (["classify"], "--char"), (["survey"], "--theta"),
    (["realform", "--theta", "x4"], "--gamma"), (["realform", "--gamma", "x1", "x2"], "--theta")],
    ids=["command", "roots", "classify", "survey", "realform-gamma", "realform-theta"])
def test_a_missing_required_option_is_an_argparse_error(args, option, capsys):
    prog = " ".join(["k4holo", *args[:1]])
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: {prog} ")
    assert err.splitlines()[-1] == f"{prog}: error: the following arguments are required: {option}"


def test_roots_verbose_lists_every_root_sorted(capsys):
    code, out, err = run_cli(["roots", "--type", "A2", "-v"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines() == ["type: A2", "rank: 2", "roots: 6", "highest root: [1, 1]",
                                "[-1, -1]", "[-1, 0]", "[0, -1]", "[0, 1]", "[1, 0]", "[1, 1]"]


def test_roots_json(capsys):
    code, out, _ = run_cli(["roots", "--type", "E6", "--format", "json"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["root_count"] == 72
    assert doc["highest_root"] == [1, 2, 2, 3, 2, 1]


def test_roots_bad_type(capsys):
    # U+0663 is a digit to str.isdigit and int(), but not an ASCII one
    for token in ("Q3", "E6x", "A\u0663"):
        assert run_cli(["roots", "--type", token], capsys) == (
            2, "", f"usage error: bad type token {token!r} (want e.g. E6, A5, D4)\n")
    code, _, err = run_cli(["roots", "--type", "E7"], capsys)
    assert code == 2


@pytest.mark.parametrize("token", ["A100000", "D" + "9" * 5000], ids=["A100000", "D99999..."])
def test_roots_huge_rank_rejected_before_building(token, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("root system build attempted")

    monkeypatch.setattr(cli, "build_root_system", refuse)
    code, out, err = run_cli(["roots", "--type", token], capsys)
    assert code == 2
    assert out == ""
    assert "rank" in err


@pytest.mark.parametrize("token, spelled", [
    ("A33", "A33"), ("a33", "A33"), ("A100", "A100"), ("a0100", "A100"),
    ("D" + "9" * 50, "D" + "9" * 50)], ids=["A33", "a33", "A100", "a0100", "D99..."])
def test_roots_rank_bound_is_one_engine_error(token, spelled, capsys):
    # The digit-count guard and the engine spell the same bound alike.
    code, out, err = run_cli(["roots", "--type", token], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {spelled} is above the largest supported rank 32\n"


def test_realform_subcommand(capsys):
    code, out, _ = run_cli(
        ["realform", "--gamma", "x1", "x2", "--theta", "x4"], capsys)
    assert code == 0
    assert out.strip() == "2su(2,1)+2c"


def test_realform_group_resolution(capsys):
    code, out, _ = run_cli(
        ["realform", "--gamma", "y4", "y5", "--theta", "y3",
         "--group", "y3y4y5", "--format", "json"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["real_form"] == "so(6,2)+2c"
    assert doc["group"] == "y3y4y5"


@pytest.mark.parametrize("gamma, theta", [
    (("x1", "x1"), "x4"),    # Gamma is not a Klein four group
    (("x1", "1"), "x4"),     # one generator is the identity
    (("x1", "x4"), "x4"),    # theta lies in Gamma
    (("x1", "x2"), "x1x2"),  # theta is in the sigma1 class (and in Gamma)
    (("x1", "x4"), "x2"),    # theta is in the sigma1 class, outside Gamma
], ids=["equal", "identity", "theta-in-gamma", "sigma1-in-gamma", "sigma1"])
def test_realform_rejects_what_is_not_a_candidate_pair(gamma, theta, capsys):
    code, out, err = run_cli(["realform", "--gamma", *gamma, "--theta", theta], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_survey_subcommand(capsys):
    code, out, _ = run_cli(
        ["survey", "--theta", "x4", "--format", "json"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["theta_group"] == "x1x2x4"
    assert doc["values"]["x1x2x4"]["x1"] == "su(4,2)+su(2)"


@pytest.mark.parametrize("args, err", [
    (["survey", "--theta", ":x4"], "error: unknown builtin group ''\n"),
    (["realform", "--group", "y3y4y5", "--gamma", ":y4", "y5", "--theta", "y3"],
     "error: label ':y4' conflicts with group y3y4y5\n"),
    (["survey", "--theta", "x1x2x4:nope"], "error: group x1x2x4 has no element 'nope'\n"),
    # two colons: the qualifier is split off at the first, the rest names no element
    (["survey", "--theta", "x1x2x4:x1:x2"], "error: group x1x2x4 has no element 'x1:x2'\n"),
    (["realform", "--gamma", "x1x2x4:x1:x2", "x4", "--theta", "x4"],
     "error: group x1x2x4 has no element 'x1:x2'\n"),
    (["realform", "--gamma", "x1", "x2", "--theta", "x1x2x4:x1:x2"],
     "error: group x1x2x4 has no element 'x1:x2'\n"),
], ids=["survey-empty-qualifier", "realform-empty-qualifier", "unknown-element",
        "survey-two-colons", "realform-gamma-two-colons", "realform-theta-two-colons"])
def test_bad_group_qualifier_exits_2(args, err, capsys):
    assert run_cli(args, capsys) == (2, "", err)


def test_survey_rejects_sigma1_theta(capsys):
    code, _, err = run_cli(["survey", "--theta", "x1"], capsys)
    assert code == 2


def test_selftest_passes(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("check ")]
    assert lines and all(": PASS" in l for l in lines)


def test_selftest_ntable_export(tmp_path, capsys):
    target = tmp_path / "ntable.txt"
    code, _, _ = run_cli(["selftest", "--ntable-out", str(target)], capsys)
    assert code == 0
    text = target.read_text()
    assert text.splitlines()[0].count(" ") == 2


@pytest.mark.parametrize("target", ["missing_parent", "directory", "empty"])
def test_selftest_unwritable_ntable_out_exits_2(target, tmp_path, capsys):
    path = {"missing_parent": tmp_path / "no" / "such" / "dir" / "x",
            "directory": tmp_path, "empty": ""}[target]
    code, out, err = run_cli(["selftest", "--ntable-out", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write the N table") and str(path) in err
    assert len(err.splitlines()) == 1


def test_selftest_reports_a_failing_jacobi_check(capsys, monkeypatch):
    triple = (("x", (1, 0, 0, 0, 0, 0)), ("x", (0, 0, 1, 0, 0, 0)), ("x", (0, 0, 0, 1, 0, 0)))
    failed = chevalley.JacobiReport(triples_checked=76076, violations=(triple,))
    monkeypatch.setattr(chevalley, "check_jacobi", lambda sc: failed)
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 1
    assert f"check jacobi: FAIL (76076 triples, first violation {triple})" in out.splitlines()
    code, out, _ = run_cli(["selftest", "--format", "json"], capsys)
    doc = json.loads(out)
    assert code == 1
    assert doc["passed"] is False
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == ["jacobi"]


def test_selftest_reports_a_failing_antisymmetry_check(capsys, monkeypatch):
    build = chevalley.build_chevalley_basis

    def broken(sys):
        # [X_a1, X_a3] negated in one order only
        sc = build(sys)
        rows = [list(row) for row in sc.btable]
        i, j = sc.index[("x", sys.simple_roots[0])], sc.index[("x", sys.simple_roots[2])]
        rows[i][j] = tuple((p, -c) for p, c in rows[i][j])
        return sc._replace(btable=tuple(map(tuple, rows)))

    monkeypatch.setattr(chevalley, "build_chevalley_basis", broken)
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 1
    assert "check antisymmetry: FAIL (1440 ordered pairs)" in out.splitlines()
    code, out, _ = run_cli(["selftest", "--format", "json"], capsys)
    doc = json.loads(out)
    assert code == 1
    assert doc["passed"] is False
    assert {"name": "antisymmetry", "passed": False, "detail": "1440 ordered pairs"} in doc["checks"]


def _with_doubled_bracket(k1, k2):
    """build_chevalley_basis with the terms of [k1, k2] doubled, in that order only."""
    build = chevalley.build_chevalley_basis

    def broken(sys):
        sc = build(sys)
        rows = [list(row) for row in sc.btable]
        i, j = sc.index[k1], sc.index[k2]
        rows[i][j] = tuple((p, 2 * c) for p, c in rows[i][j])
        return sc._replace(btable=tuple(map(tuple, rows)))

    return broken


_A1, _MINUS_A1 = ("x", (1, 0, 0, 0, 0, 0)), ("x", (-1, 0, 0, 0, 0, 0))


@pytest.mark.parametrize("name, line", [
    # the last positive root, the highest, replaced by the sum of the
    # simple roots, a lower root, beside the true bracket table
    ("root_system", "check root_system: FAIL (72 roots, highest [1, 1, 1, 1, 1, 1])"),
    # [h_1, X_a1] = 2 X_a1 becomes 4 X_a1: the trace of ad(h_1)^2 gains 16 - 4
    ("killing_cartan", "check killing_cartan: FAIL (adjoint trace 60, root-sum 48)"),
    # the Cartan matrix doubled beside the true bracket table: each root's
    # pairing with alpha_1 doubles, so the root sum is 4 * 48 and the trace stays
    ("killing_cartan", "check killing_cartan: FAIL (adjoint trace 48, root-sum 192)"),
    # [X_a1, X_-a1] = h_1 becomes 2 h_1
    ("killing_root_pair", "check killing_root_pair: FAIL (kappa(X,X-) = 26)"),
    # x1x2x4 (one sigma2 element) replaced by x1x4x5 (three)
    ("involution_census", "check involution_census: FAIL ((3, 3, 3, 5))"),
    # one sum a1 + b recorded as b, beside the true bracket table
    ("character_homomorphism",
     "check character_homomorphism: FAIL (20 sampled characters)"),
])
def test_selftest_reports_a_failing_check(name, line, capsys, monkeypatch):
    if name == "root_system":
        true_table = chevalley.build_chevalley_basis(build_root_system("E", 6))
        wrong = build_root_system.__wrapped__("E", 6)
        wrong = wrong._replace(positive_roots=wrong.positive_roots[:-1] + ((1,) * 6,))
        monkeypatch.setattr(cli, "build_root_system", lambda family, rank: wrong)
        monkeypatch.setattr(chevalley, "build_chevalley_basis", lambda sys: true_table)
    elif name == "involution_census":
        groups = pipeline.builtin_groups()
        groups["x1x2x4"] = groups["x1x4x5"]
        monkeypatch.setattr(pipeline, "builtin_groups", lambda: groups)
    elif name == "character_homomorphism":
        true_table = chevalley.build_chevalley_basis(build_root_system("E", 6))
        wrong = build_root_system.__wrapped__("E", 6)
        row = wrong.sums_from[wrong.simple_roots[0]]
        row[0] = (row[0][0], row[0][0])
        monkeypatch.setattr(cli, "build_root_system", lambda family, rank: wrong)
        monkeypatch.setattr(chevalley, "build_chevalley_basis", lambda sys: true_table)
    elif line.endswith("root-sum 192)"):
        true_table = chevalley.build_chevalley_basis(build_root_system("E", 6))
        right = build_root_system.__wrapped__("E", 6)
        wrong = right._replace(cartan=tuple(tuple(2 * x for x in row) for row in right.cartan))
        monkeypatch.setattr(cli, "build_root_system", lambda family, rank: wrong)
        monkeypatch.setattr(chevalley, "build_chevalley_basis", lambda sys: true_table)
    else:
        pair = ((("h", 0), _A1) if name == "killing_cartan" else (_A1, _MINUS_A1))
        monkeypatch.setattr(chevalley, "build_chevalley_basis", _with_doubled_bracket(*pair))
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 1
    assert line in out.splitlines()
    code, out, _ = run_cli(["selftest", "--format", "json"], capsys)
    doc = json.loads(out)
    assert code == 1
    assert doc["passed"] is False
    assert name in [c["name"] for c in doc["checks"] if not c["passed"]]


def _reference_homomorphism(sys):
    """The 20 sampled characters checked one at a time on every sum in sums_from."""
    rng = random.Random(0)
    ok = True
    for _ in range(20):
        chi = TorusCharacter(12, tuple(rng.randrange(12) for _ in range(6)))
        value = {r: chi.evaluate(r) for r in sys.roots}
        ok &= all(value[s] == (value[a] + value[b]) % chi.modulus
                  for a, pairs in sys.sums_from.items() for b, s in pairs)
    return ok


_E6 = build_root_system("E", 6)
_TRUE_TABLE = chevalley.build_chevalley_basis(_E6)
_ROOTS = sorted(_E6.roots)


def test_selftest_samples_20_characters_mod_12_from_seed_0(capsys, monkeypatch):
    built = []

    def recording(modulus, exps):
        built.append(TorusCharacter(modulus, exps))
        return built[-1]

    monkeypatch.setattr(cli, "TorusCharacter", recording)
    code, _, _ = run_cli(["selftest"], capsys)
    assert code == 0
    assert built[:3] == [TorusCharacter(12, (6, 6, 0, 4, 8, 7)),
                         TorusCharacter(12, (6, 4, 7, 5, 9, 3)),
                         TorusCharacter(12, (8, 2, 4, 2, 1, 9))]
    rng = random.Random(0)
    assert built == [TorusCharacter(12, tuple(rng.randrange(12) for _ in range(6)))
                     for _ in range(20)]
    # The first three already tell the 72 roots apart, so a sum recorded as
    # any wrong root fails on one of them.
    assert len({tuple(chi.evaluate(r) for chi in built[:3]) for r in _E6.roots}) == 72
    assert len({tuple(chi.evaluate(r) for chi in built[:2]) for r in _E6.roots}) < 72


# Each example runs one selftest on a fresh system (about 30 ms).
@settings(max_examples=20, deadline=None)
@given(st.sampled_from(_ROOTS), st.integers(0, 19), st.sampled_from(["partner", "sum"]),
       st.sampled_from(_ROOTS))
@example(_ROOTS[0], 0, "sum", _E6.sums_from[_ROOTS[0]][0][1])  # left as it was: PASS
@example((-1, -2, -2, -3, -2, -1), 1, "sum", (0, 1, 0, 1, 1, 1))  # only the third character fails
def test_character_homomorphism_matches_a_per_character_loop(a, index, field, root):
    wrong = build_root_system.__wrapped__("E", 6)
    row = wrong.sums_from[a]
    b, s = row[index]
    row[index] = (root, s) if field == "partner" else (b, root)
    verdict = "PASS" if _reference_homomorphism(wrong) else "FAIL"
    out = io.StringIO()
    with mock.patch.object(cli, "build_root_system", lambda family, rank: wrong), \
            mock.patch.object(chevalley, "build_chevalley_basis", lambda sys: _TRUE_TABLE), \
            contextlib.redirect_stdout(out):
        code = cli.main(["selftest"])
    assert f"check character_homomorphism: {verdict} (20 sampled characters)" in \
        out.getvalue().splitlines()
    assert code == (0 if verdict == "PASS" else 1)


def test_selftest_json_lists_the_checks(capsys):
    code, out, _ = run_cli(["selftest", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    names = [c["name"] for c in doc["checks"]]
    assert names[0] == "root_system" and "jacobi" in names
    assert all(c["passed"] is True and c["detail"] for c in doc["checks"])
    code, plain, _ = run_cli(["selftest"], capsys)
    assert plain.splitlines() == [f"check {c['name']}: PASS ({c['detail']})"
                                  for c in doc["checks"]]


def test_selftest_jobs_starts_no_process_and_changes_nothing(tmp_path, capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("selftest started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    serial, jobs = tmp_path / "A", tmp_path / "B"
    code_a, out_a, _ = run_cli(["selftest", "--ntable-out", str(serial)], capsys)
    code_b, out_b, _ = run_cli(["selftest", "--jobs", "2", "--ntable-out", str(jobs)], capsys)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert serial.read_bytes() == jobs.read_bytes()


def test_selftest_rejects_zero_jobs(capsys):
    code, out, err = run_cli(["selftest", "--jobs", "0"], capsys)
    assert code == 2 and out == "" and "--jobs" in err


# a spec without m=M is read mod 4 whatever the environment holds
_ENV_CASES = [
    (["roots", "--type", "A2"], "highest root: [1, 1]"),
    (["classify", "--char", "chi [0,0,0,0,0,4]"], "identity"),
    (["fixed", "--chars", "chi [1,0,0,0,1,0]"], "type: so(8)+2c"),
]


def _assert_env_changes_nothing(name, value, capsys, monkeypatch):
    monkeypatch.delenv(name, raising=False)
    expected = [run_cli(args, capsys)[:2] for args, _ in _ENV_CASES]
    for (code, out), (_, line) in zip(expected, _ENV_CASES):
        assert code == 0 and line in out.splitlines()
    monkeypatch.setenv(name, value)
    assert [run_cli(args, capsys)[:2] for args, _ in _ENV_CASES] == expected


def test_modulus_env_override(capsys, monkeypatch):
    # K4HOLO_MODULUS=8 once made chi [0,0,0,0,0,4] a half turn; it is read mod 4
    _assert_env_changes_nothing("K4HOLO_MODULUS", "8", capsys, monkeypatch)


def test_bad_modulus_env(capsys, monkeypatch):
    # a non-integer K4HOLO_MODULUS once exited 2; nothing reads it now
    _assert_env_changes_nothing("K4HOLO_MODULUS", "zero", capsys, monkeypatch)


def test_closed_stdout_ends_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "k4holo", "roots", "--type", "E6",
         "--format", "json", "--verbose"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err and "Exception ignored" not in err
    assert sum(line.startswith("error:") for line in err.splitlines()) <= 1


def test_closed_stdout_on_help_exits_2():
    # argparse drops the error of its own help write, which once ended in exit 0
    for args in (["-h"], ["theorem24", "-h"]):
        proc = subprocess.Popen([sys.executable, "-m", "k4holo", *args],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err == b""


@pytest.mark.parametrize("args", [["survey", "--theta", "zz"], ["roots", "--type", "Q9"],
                                  ["nosuch"]])
def test_closed_stderr_keeps_exit_code_2(args):
    # stderr buffered, as without PYTHONUNBUFFERED: argparse's usage error
    # once left its text in the buffer, and the final flush exited 120
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "k4holo", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stderr.close()
    out = proc.stdout.read()
    proc.stdout.close()
    assert proc.wait(timeout=60) == 2
    assert out == b""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_quiet_stream_leaves_no_descriptor_open():
    read_end, write_end = os.pipe()
    os.set_blocking(read_end, False)  # a pipe still written to reads None, not a hang
    with os.fdopen(read_end, "rb") as reader, os.fdopen(write_end, "w") as stream:
        before = len(os.listdir("/proc/self/fd"))
        cli._quiet_stream(stream)
        assert len(os.listdir("/proc/self/fd")) == before
        stream.write("lost")
        stream.flush()
        # the pipe lost its only writer to the null device: the reader sees EOF
        assert reader.read() == b""


def _run_with_fd(args, fd, how, **pipes):
    """Run the module with fd 1 or 2 closed before exec (Python then sets
    that sys stream to None) or opened read-only (its writes fail with
    EBADF)."""
    with open(os.devnull, "rb") as readonly:
        if how == "closed":
            pipes["preexec_fn"] = lambda: os.close(fd)
        else:
            pipes["stdout" if fd == 1 else "stderr"] = readonly
        return subprocess.run([sys.executable, "-m", "k4holo", *args], timeout=60, **pipes)


@pytest.mark.parametrize("how", ["closed", "read-only"])
@pytest.mark.parametrize("args", [["survey", "--theta", "zz"], ["nosuch"]])
def test_closed_or_unwritable_stderr_exits_2_with_empty_stdout(args, how):
    # a None stderr once sent the diagnostic, or argparse's usage, to stdout;
    # a read-only one once raised EBADF out of _diagnose, exit 1
    proc = _run_with_fd(args, 2, how, stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stdout) == (2, b"")


@pytest.mark.parametrize("args,how", [(["theorem24"], "closed"), (["selftest"], "closed"),
                                      (["-h"], "closed"), (["theorem24"], "read-only")])
def test_closed_or_unwritable_stdout_exits_2_without_traceback(args, how):
    # each once ended in an AttributeError or OSError traceback, exit 1
    proc = _run_with_fd(args, 1, how, stderr=subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (2, b"")


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "k4holo", "classify", "--char",
         "su6sp1 m=4 d=[2,2,0,2,2,0] y=0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "sigma2"


@pytest.mark.parametrize("args", [["theorem24", "--format", fmt] for fmt in ("plain", "json", "markdown")]
                         + [["selftest", "--ntable-out", "{dump}"]])
def test_module_entry_matches_in_process_main(args, tmp_path, capsys):
    in_process, module = tmp_path / "in_process.txt", tmp_path / "module.txt"
    before = gc.get_freeze_count()
    code, out, _ = run_cli([a.format(dump=in_process) for a in args], capsys)
    assert gc.get_freeze_count() == before  # only the entry point freezes
    proc = subprocess.run([sys.executable, "-m", "k4holo", *(a.format(dump=module) for a in args)],
                          capture_output=True)
    assert (proc.returncode, proc.stdout) == (code, out.encode())
    if args[0] == "selftest":
        assert module.read_bytes() == in_process.read_bytes()


def test_both_launchers_use_one_entry_function(monkeypatch):
    import re
    from pathlib import Path
    import k4holo.__main__ as entry
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(entry, "main", lambda: calls.append("main") or 7)
    assert entry.run() == 7
    assert calls == ["freeze", "main"]
    # Read as text: tomllib is Python 3.11+, and the package supports 3.10.
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    assert [line for line in table.group(1).splitlines() if line.strip()] \
        == ['k4holo = "k4holo.__main__:run"']
