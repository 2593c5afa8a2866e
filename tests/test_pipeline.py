import ast
import functools
import json
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from k4holo.errors import PreconditionError
from k4holo.pipeline import (GOLDEN_PAIRS, GROUP_NAMES, SURVEY_FORMS,
                             builtin_groups, classify_all,
                             enumerate_candidates,
                             klein_four_subgroups, report_to_dict,
                             report_to_markdown, resolve_label, sigma2_elements,
                             symmetric_pair_survey)
from k4holo.realform import identify_real_form
from k4holo.reductive import ConjClass, classify_involution, fixed_subalgebra
from k4holo.rootsys import build_root_system
from k4holo.toral import TorusCharacter, embed_su6_sp1, identity_character
from oracles import compact_type, complexification, reductive_dim, reflect_character

E6 = build_root_system("E", 6)
GROUPS = builtin_groups()
REPORT = classify_all(E6)
BY_GROUP = {g.group.name: g for g in REPORT.groups}


def test_builtin_groups_structure():
    assert tuple(GROUPS) == GROUP_NAMES
    for g in GROUPS.values():
        assert g.order == 8 and g.rank == 3


def test_realisation_words_match_embedding_data():
    # the generator words carry exactly the diagonal data they were built from
    m22 = embed_su6_sp1(4, (2, 2, 0, 2, 2, 0), 0)
    assert GROUPS["x1x2x4"].element("x4") == m22
    m2_p4 = embed_su6_sp1(4, (2, 2, 0, 0, 0, 0), 0)
    assert GROUPS["x1x4x5"].element("x1x4") == m2_p4
    i3_i3_i = embed_su6_sp1(4, (1, 1, 1, 3, 3, 3), 1)
    assert GROUPS["y1y3y4"].element("y1y4") == i3_i3_i
    minus_one = embed_su6_sp1(4, (0, 0, 0, 0, 0, 0), 2)
    assert GROUPS["y1y3y4"].element("y1y3") == minus_one
    assert GROUPS["y3y4y5"].element("y3y4") == minus_one
    i5_i = embed_su6_sp1(4, (1, 1, 1, 1, 1, 3), 1)
    assert GROUPS["y3y4y5"].element("y3") == i5_i


def test_sigma2_census():
    counts = tuple(len(sigma2_elements(GROUPS[n], E6)) for n in GROUP_NAMES)
    assert counts == (1, 3, 3, 5)


def test_klein_subgroup_enumeration():
    for group in GROUPS.values():
        pos = {label: i for i, (label, _) in enumerate(group.nonidentity())}
        subs = klein_four_subgroups(group)
        assert len(subs) == 7
        for s in subs:
            la, lb = s.labels
            a, b = group.element(la), group.element(lb)
            assert s.chars == {a, b, a * b}
            # the labels are the subgroup's two earliest elements
            assert [l for l in pos if group.element(l) in s.chars][:2] == [la, lb]
        keys = [tuple(pos[l] for l in s.labels) for s in subs]
        assert keys == sorted(keys)
    subs = klein_four_subgroups(GROUPS["x1x2x4"])
    theta = GROUPS["x1x2x4"].element("x4")
    avoiding = [s for s in subs if theta not in s.chars]
    assert len(avoiding) == 4


def test_rank3_fixed_types():
    expected = {
        "x1x2x4": ("2su(2)+4c", 10),
        "x1x4x5": ("4su(2)+2c", 14),
        "y1y3y4": ("su(3)+su(2)+3c", 14),
        "y3y4y5": ("su(4)+3c", 18),
    }
    for name, (render, dim) in expected.items():
        chars = [c for _, c in GROUPS[name].nonidentity()]
        fs = fixed_subalgebra(chars, E6)
        assert (fs.render(), fs.dim) == (render, dim)


RANK2_DUALS = {
    ("x1x2x4", ("x1", "x2")): "2su(3)+2c",
    ("y1y3y4", ("y1y3", "y3y4")): "2su(3)+2c",
    ("x1x4x5", ("x1", "x4")): "su(4)+2su(2)+c",
    ("y1y3y4", ("y1", "y4")): "su(4)+2su(2)+c",
    ("y3y4y5", ("y3y4", "y5")): "su(4)+2su(2)+c",
    ("y1y3y4", ("y1y3", "y4")): "su(5)+2c",
    ("y3y4y5", ("y3", "y4")): "su(5)+2c",
    ("y3y4y5", ("y4", "y3y5")): "su(5)+2c",
    ("y3y4y5", ("y4", "y5")): "so(8)+2c",
}


def test_rank2_compact_duals_with_stated_groupings():
    for (gname, labels), expected in RANK2_DUALS.items():
        g = GROUPS[gname]
        fs = fixed_subalgebra([g.element(l) for l in labels], E6)
        assert fs.render() == expected, (gname, labels)


def test_group_without_sigma2_elements():
    # every rank-3 toral group turns out to contain a sigma2 element, so the
    # empty-candidate path can only be witnessed at rank 2
    from k4holo.toral import generate_group
    g1 = GROUPS["x1x2x4"]
    sub = generate_group([("x1", g1.element("x1")), ("x2", g1.element("x2"))])
    assert sigma2_elements(sub, E6) == ()


def test_candidate_multiplicities():
    counts = {name: len(g.candidates) for name, g in BY_GROUP.items()}
    assert counts == {"x1x2x4": 4, "x1x4x5": 12, "y1y3y4": 12, "y3y4y5": 20}
    assert sum(counts.values()) == 48


def test_group_i_candidates_all_same_form():
    cands = BY_GROUP["x1x2x4"].candidates
    assert len(cands) == 4
    assert {c.theta_label for c in cands} == {"x4"}
    assert {c.real_form.render() for c in cands} == {"2su(2,1)+2c"}
    assert {c.gamma_labels for c in cands} == {
        ("x1", "x2"), ("x1", "x2x4"), ("x2", "x1x4"), ("x1x2", "x1x4")}


def test_named_candidate_from_y1y3y4():
    group = BY_GROUP["y1y3y4"]
    match = [c for c in group.candidates
             if c.theta_label == "y3" and c.gamma_labels == ("y1", "y4")]
    assert len(match) == 1
    cand = match[0]
    assert cand.compact_dual.render() == "su(4)+2su(2)+c"
    assert cand.real_form.render() == "su(3,1)+su(1,1)+su(2)+c"
    assert group.fixed.render() == "su(3)+su(2)+3c"


def test_candidate_invariants():
    for g in REPORT.groups:
        assert g.group == GROUPS[g.group.name]
        for c in g.candidates:
            assert complexification(c.real_form) == compact_type(c.compact_dual)
            a, b = (g.group.element(label) for label in c.gamma_labels)
            gamma = {identity_character(), a, b, a * b}
            assert len(gamma) == 4
            assert g.group.element(c.theta_label) not in gamma
            # maximal compact dimension equals the compact parts of the form
            compact = sum(l.compact_part_dim for l in c.real_form.ideals)
            compact += c.real_form.center
            assert reductive_dim(g.fixed) == compact


def test_report_candidates_are_the_groups_candidates_in_order():
    flat = REPORT.candidates
    assert flat == tuple(c for g in REPORT.groups for c in g.candidates)
    assert len(flat) == 48
    for g in REPORT.groups:
        assert {c.group_name for c in g.candidates} == {g.group.name}


def test_candidate_lookup_accepts_exactly_the_pair_rule():
    # Rule: Gamma = <g1, g2> a Klein four subgroup, theta sigma2-class outside it.
    for g in REPORT.groups:
        group = g.group
        sigma2 = sigma2_elements(group, E6)
        labels = [label for label, _ in group.labels.items()]
        found = set()
        for theta in labels:
            for g1 in labels:
                for g2 in labels:
                    a, b = group.element(g1), group.element(g2)
                    gamma = {identity_character(), a, b, a * b}
                    admitted = (len(gamma) == 4 and theta in sigma2
                                and group.element(theta) not in gamma)
                    try:
                        cand = g.find(theta, (g1, g2))
                    except PreconditionError as exc:
                        assert not admitted
                        assert "Gamma a Klein four subgroup, theta sigma2-class outside it" \
                            in str(exc)
                        continue
                    assert admitted
                    assert cand.theta_label == theta
                    ca, cb = (group.element(label) for label in cand.gamma_labels)
                    assert {identity_character(), ca, cb, ca * cb} == gamma
                    found.add(cand)
        assert found == set(g.candidates)


def test_candidate_lookup_rejects_an_unknown_label():
    g = BY_GROUP["x1x2x4"]
    with pytest.raises(PreconditionError, match=r"^group x1x2x4 has no element 'nope'$"):
        g.find("nope", ("x1", "x2"))
    with pytest.raises(PreconditionError, match=r"^group x1x2x4 has no element 'nope'$"):
        g.find("x4", ("x1", "nope"))


def test_distinct_pairs_match_golden_list():
    fresh = build_root_system.__wrapped__("E", 6)
    t0 = time.monotonic()
    report = classify_all(fresh)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"classification took {elapsed:.2f}s"
    assert report.verified
    assert len(report.distinct_pairs) == 8
    assert set(report.distinct_pairs) == set(GOLDEN_PAIRS)
    assert report.missing == () and report.unexpected == ()


@pytest.mark.parametrize("extra, drop, row", [
    (True, False, "| 9 | su(9) | MISSING | 0 |"),
    (False, True, "| ? | 2su(2,1)+2c | UNEXPECTED | 4 |"),
], ids=["only-missing", "only-unexpected"])
def test_a_report_with_missing_or_unexpected_pairs_alone_is_not_verified(extra, drop, row,
                                                                         monkeypatch):
    from k4holo import pipeline
    golden = GOLDEN_PAIRS[drop:] + ("su(9)",) * extra
    monkeypatch.setattr(pipeline, "GOLDEN_PAIRS", golden)
    report = classify_all(E6)
    assert report.missing == ("su(9)",) * extra
    assert report.unexpected == GOLDEN_PAIRS[:drop]
    assert report.verified is False
    # markdown lists each golden pair, then each unexpected one, with its candidate count
    lines = report_to_markdown(report).splitlines()
    assert len(lines) == 4 + len(golden) + drop + 2
    assert [l for l in lines if "MISSING" in l or "UNEXPECTED" in l] == [row]
    assert lines[-2:] == ["", "verified: false"]


def _sigma_forms(theta, gamma):
    """The multiset, sorted, of the real forms under theta of the fixed
    algebras g^sigma, sigma in Gamma = <gamma> minus 1 (survey spelling).
    An automorphism carrying (theta, Gamma) to (theta', Gamma') carries each
    g^sigma onto a g^sigma' and theta onto theta', so it keeps this."""
    a, b = gamma
    return tuple(sorted(identify_real_form(fixed_subalgebra([s], E6), theta, E6).render("survey")
                        for s in (a, b, a * b)))


def _candidate_chars(group, cand):
    return group.element(cand.theta_label), [group.element(l) for l in cand.gamma_labels]


CANDIDATES = [(g.group, c) for g in REPORT.groups for c in g.candidates]


def _mask(chi) -> int:
    """A character of order 1 or 2 as a 6-bit int: bit j is its exponent on
    simple root j."""
    return sum(e << j for j, e in enumerate(chi.exps))


def _mod2(mask: int) -> TorusCharacter:
    return TorusCharacter(2, tuple(mask >> j & 1 for j in range(6)))


def test_toral_pairs_fall_into_exactly_nine_weyl_orbits():
    # "eight" counts real-form types; W-orbits of toral pairs split one type
    reflections = [[_mask(reflect_character(E6, _mod2(m), i)) for m in range(64)]
                   for i in range(6)]
    classes = {m: classify_involution(_mod2(m), E6) for m in range(1, 64)}
    assert Counter(classes.values()) == {ConjClass.SIGMA2: 27, ConjClass.SIGMA1: 36}
    thetas = [m for m, cls in classes.items() if cls is ConjClass.SIGMA2]
    gammas = sorted({frozenset((a, b, a ^ b)) for a in range(1, 64) for b in range(a + 1, 64)},
                    key=sorted)
    assert len(gammas) == 651
    pairs = [(theta, gamma) for theta in thetas for gamma in gammas if theta not in gamma]
    assert len(pairs) == 16740

    orbit_of: dict[tuple[int, frozenset], int] = {}
    reps = []
    for start in pairs:
        if start in orbit_of:
            continue
        orbit_of[start] = len(reps)
        frontier = [start]
        while frontier:
            theta, gamma = frontier.pop()
            for w in reflections:
                image = (w[theta], frozenset(w[s] for s in gamma))
                if image not in orbit_of:
                    orbit_of[image] = len(reps)
                    frontier.append(image)
        reps.append(start)
    sizes = Counter(orbit_of.values())
    assert sorted(sizes.values()) == [1080] * 4 + [1620] + [2160] * 3 + [4320]

    # each representative as theta and two generators of Gamma
    rep_chars = [(_mod2(theta), [_mod2(s) for s in sorted(gamma)[:2]]) for theta, gamma in reps]
    types = [identify_real_form(fixed_subalgebra(gamma, E6), theta, E6).render()
             for theta, gamma in rep_chars]
    sigma_forms = [_sigma_forms(theta, gamma) for theta, gamma in rep_chars]
    assert sorted(types) == sorted(GOLDEN_PAIRS + ("su(4,1)+2c",))
    assert sorted(sizes[k] for k, t in enumerate(types) if t == "su(4,1)+2c") == [1080, 2160]
    assert len(set(sigma_forms)) == 9  # the sigma-multiset separates the orbits

    met = Counter()
    for group, c in CANDIDATES:
        theta, (a, b) = _candidate_chars(group, c)
        k = orbit_of[_mask(theta), frozenset(map(_mask, (a, b, a * b)))]
        assert c.real_form.render() == types[k]
        met[k] += 1
    assert len(CANDIDATES) == 48
    assert sorted(met.values()) == [3, 3, 4, 4, 4, 4, 6, 8, 12]
    assert {sigma_forms[k]: (sizes[k], met[k]) for k, t in enumerate(types)
            if t == "su(4,1)+2c"} == {
        ("so(8,2)+so(2)", "so*(10)+so(2)", "su(5,1)+sl(2,R)"): (2160, 8),
        ("so(8,2)+so(2)", "so(8,2)+so(2)", "su(4,2)+su(2)"): (1080, 4)}
    assert {c.group_name for _, c in CANDIDATES if c.real_form.render() == "su(4,1)+2c"} \
        == {"y3y4y5"}


@given(st.lists(st.integers(0, 5), max_size=36), st.sampled_from(CANDIDATES))
@settings(max_examples=25, deadline=None)
def test_real_form_and_sigma_forms_are_weyl_invariant(word, candidate):
    group, cand = candidate
    theta, gamma = _candidate_chars(group, cand)
    forms = _sigma_forms(theta, gamma)
    for i in word:
        theta = reflect_character(E6, theta, i)
        gamma = [reflect_character(E6, c, i) for c in gamma]
    assert classify_involution(theta, E6) is ConjClass.SIGMA2
    fs = fixed_subalgebra(gamma, E6)
    assert identify_real_form(fs, theta, E6).render() == cand.real_form.render()
    assert _sigma_forms(theta, gamma) == forms


def test_report_deterministic():
    again = classify_all(E6)
    assert report_to_dict(again) == report_to_dict(REPORT)


def test_classify_all_and_realform_never_compute_the_centre(monkeypatch, capsys):
    # theta's holomorphic-type premise is settled where sigma2_elements
    # chooses theta; neither path re-checks it through center_of_fixed.
    from k4holo import cli, pipeline, realform
    seen = []

    def recording(theta, sys):
        seen.append(theta)

    # Patch the name wherever the classification can reach it.
    monkeypatch.setattr(realform, "center_of_fixed", recording)
    monkeypatch.setattr(pipeline, "center_of_fixed", recording, raising=False)
    assert classify_all(E6).distinct_pairs == REPORT.distinct_pairs
    assert cli.main(["realform", "--gamma", "y3", "y4", "--theta", "y5", "--group", "y3y4y5"]) == 0
    assert capsys.readouterr().out == "su(4,1)+2c\n"
    assert seen == []


def test_classify_all_computes_each_fixed_subalgebra_once(monkeypatch):
    from k4holo import pipeline
    seen = []

    def counting(chars, sys):
        chars = tuple(chars)
        seen.append(frozenset(chars))
        return fixed_subalgebra(chars, sys)

    monkeypatch.setattr(pipeline, "fixed_subalgebra", counting)
    assert classify_all(E6).distinct_pairs == REPORT.distinct_pairs
    # 24 Klein four subgroups that avoid some theta, plus the 4 whole groups
    assert len(seen) == 28
    assert sorted(len(chars) for chars in seen) == [3] * 24 + [7] * 4


def test_classify_all_decomposes_25_subsets_in_28_calls_unvalidated(monkeypatch):
    # Every subset classify_all decomposes is a kernel intersection, closed
    # by construction, so none goes through the public boundary's validation:
    # one call per fixed subalgebra, on the 25 distinct fixed-root sets of
    # its 28 fixed subalgebras.
    from k4holo import rootsys
    fresh = build_root_system.__wrapped__("E", 6)
    validated, decomposed = [], []
    original_validate = rootsys._validate_closed
    original_decompose = rootsys.RootSystem.decomposition

    def validating(subset, sys):
        validated.append(subset)
        return original_validate(subset, sys)

    def decomposing(sys, subset):
        decomposed.append(subset)
        return original_decompose(sys, subset)

    monkeypatch.setattr(rootsys, "_validate_closed", validating)
    monkeypatch.setattr(rootsys.RootSystem, "decomposition", decomposing)
    assert classify_all(fresh).distinct_pairs == REPORT.distinct_pairs
    assert len(decomposed) == 28
    assert len(set(decomposed)) == 25
    assert validated == []


@functools.cache
def _import_footprint(command):
    """One `python -X importtime -m k4holo COMMAND` process per command,
    shared by the footprint tests below: the finished process and the set of
    modules it imported (-X importtime lists each one on stderr)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "k4holo", command],
                          capture_output=True, text=True)
    loaded = frozenset(line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                       if line.startswith("import time:"))
    return proc, loaded


def test_import_loads_no_rational_arithmetic():
    # a command process imports k4holo.cli, k4holo.chevalley and every layer they use
    for command in ("theorem24", "selftest"):
        proc, loaded = _import_footprint(command)
        assert proc.returncode == 0, proc.stderr
        assert {"k4holo.cli", "k4holo.chevalley"} <= loaded
        assert not {"fractions", "decimal", "numbers"} & loaded


def test_import_loads_no_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize: about 20 ms a process
    for command in ("theorem24", "selftest"):
        proc, loaded = _import_footprint(command)
        assert proc.returncode == 0, proc.stderr
        assert {"k4holo.cli", "k4holo.chevalley"} <= loaded
        assert not {"dataclasses", "inspect"} & loaded


def test_theorem24_process_loads_no_dataclasses_or_inspect():
    proc, loaded = _import_footprint("theorem24")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("verified: true\n")
    assert "k4holo.pipeline" in loaded
    assert not {"dataclasses", "inspect"} & loaded


@pytest.mark.parametrize("command", ["theorem24", "selftest"])
def test_plain_output_loads_no_json(command):
    # Only JSON output imports json.
    proc, loaded = _import_footprint(command)
    assert proc.returncode == 0, proc.stderr
    assert "json" not in loaded
    # perfbench/shim.py rebinds only functions of modules loaded before cli.main runs
    traced = {f"k4holo.{module}" for module, _ in _traced_layers()}
    assert {"k4holo.cli", "k4holo.pipeline"} | traced <= loaded


def _traced_layers() -> tuple[tuple[str, str], ...]:
    shim = Path(__file__).resolve().parent.parent / "perfbench" / "shim.py"
    for node in ast.parse(shim.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["SPANNED"]):
            return ast.literal_eval(node.value)
    raise AssertionError("shim.py defines no SPANNED")


def test_report_to_dict_reuses_the_report(monkeypatch):
    from k4holo import pipeline

    def forbidden(*args, **kwargs):
        raise AssertionError("report_to_dict recomputed what the report holds")

    expected = report_to_dict(REPORT)
    monkeypatch.setattr(pipeline, "builtin_groups", forbidden)
    monkeypatch.setattr(pipeline, "fixed_subalgebra", forbidden)
    monkeypatch.setattr(pipeline, "sigma2_elements", forbidden)
    assert report_to_dict(REPORT) == expected
    assert [g["fixed_subalgebra"] for g in expected["groups"]] == [
        "2su(2)+4c", "4su(2)+2c", "su(3)+su(2)+3c", "su(4)+3c"]


def test_report_dict_schema():
    doc = report_to_dict(REPORT)
    assert set(doc) == {"groups", "candidates", "distinct_pairs",
                        "verified_against_theorem24"}
    assert doc["verified_against_theorem24"] is True
    assert len(doc["groups"]) == 4
    for c in doc["candidates"]:
        assert set(c) == {"group", "theta", "gamma", "compact_dual",
                          "real_form", "maximal_compact"}
        assert len(c["gamma"]) == 2
    json.dumps(doc)  # JSON-serialisable with no further conversion


def test_report_markdown_layout():
    text = report_to_markdown(REPORT)
    for pair in GOLDEN_PAIRS:
        assert pair in text
    assert "verified: true" in text
    assert "MISSING" not in text and "UNEXPECTED" not in text


def test_enumerate_rejects_wrong_rank():
    from k4holo.toral import generate_group
    g = GROUPS["x1x2x4"]
    small = generate_group([("x1", g.element("x1")), ("x2", g.element("x2"))])
    with pytest.raises(PreconditionError):
        enumerate_candidates(small, E6)


def test_resolve_theta():
    assert resolve_label("x4", GROUPS) == ("x1x2x4", "x4")
    assert resolve_label("x1x4x5:x4", GROUPS) == ("x1x4x5", "x4")
    assert resolve_label("x4", GROUPS, "x1x4x5") == ("x1x4x5", "x4")
    with pytest.raises(PreconditionError):
        symmetric_pair_survey("x1", E6)  # sigma1-class element
    with pytest.raises(PreconditionError):
        resolve_label("nope", GROUPS)
    with pytest.raises(PreconditionError):
        resolve_label("x1x2x4:x4", GROUPS, "x1x4x5")  # conflicts with the hint
    with pytest.raises(PreconditionError, match=r"^unknown builtin group ''$"):
        resolve_label(":x4", GROUPS)  # an empty qualifier names no group
    with pytest.raises(PreconditionError, match=r"^label ':y4' conflicts with group y3y4y5$"):
        resolve_label(":y4", GROUPS, "y3y4y5")
    with pytest.raises(PreconditionError, match=r"^group x1x2x4 has no element 'nope'$"):
        resolve_label("x1x2x4:nope", GROUPS)


def test_survey_values_and_coverage():
    seen = set()
    for gname in GROUP_NAMES:
        for theta in sigma2_elements(GROUPS[gname], E6):
            res = symmetric_pair_survey(f"{gname}:{theta}", E6)
            assert res.theta_group == gname
            for g, per in res.values.items():
                assert len(per) == 7
                for form in per.values():
                    rendered = form.render("survey")
                    assert rendered in SURVEY_FORMS
                    seen.add(rendered)
            # theta's own fixed algebra is all compact
            own = res.values[gname][theta]
            assert own.render("survey") == "so(10)+so(2)"
    assert seen == set(SURVEY_FORMS)


def test_survey_names_each_character_once(monkeypatch):
    # The four groups' 28 nonidentity elements are 19 distinct characters.
    from k4holo import pipeline
    fixed_calls, form_calls = [], []

    def fixing(chars, sys):
        fixed_calls.append(tuple(chars))
        return fixed_subalgebra(chars, sys)

    def naming(sub, theta, sys):
        form_calls.append(sub)
        return identify_real_form(sub, theta, sys)

    monkeypatch.setattr(pipeline, "fixed_subalgebra", fixing)
    monkeypatch.setattr(pipeline, "identify_real_form", naming)
    res = symmetric_pair_survey("y3y4y5:y3", E6)
    assert len(fixed_calls) == len(set(fixed_calls)) == len(form_calls) == 19
    theta = GROUPS["y3y4y5"].element("y3")
    for g in GROUP_NAMES:
        assert list(res.values[g]) == [label for label, _ in GROUPS[g].nonidentity()]
        for label, form in res.values[g].items():
            sigma = GROUPS[g].element(label)
            assert form == identify_real_form(fixed_subalgebra([sigma], E6), theta, E6)


def test_survey_sigma1_values_hit_both_forms_for_every_theta():
    from k4holo.reductive import ConjClass, classify_involution
    for gname in GROUP_NAMES:
        for theta in sigma2_elements(GROUPS[gname], E6):
            res = symmetric_pair_survey(f"{gname}:{theta}", E6)
            sigma1_values = set()
            for g in GROUP_NAMES:
                for label, form in res.values[g].items():
                    char = GROUPS[g].element(label)
                    if classify_involution(char, E6) is ConjClass.SIGMA1:
                        sigma1_values.add(form.render("survey"))
            assert sigma1_values == {"su(4,2)+su(2)", "su(5,1)+sl(2,R)"}
