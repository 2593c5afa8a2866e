"""End-to-end classification of Klein four symmetric pairs of holomorphic type.

Over the four builtin rank-3 groups of commuting toral involutions
(``toral.builtin_groups``, re-exported here), candidate pairs (theta, Gamma)
with theta a Cartan-involution representative outside the Klein four
subgroup Gamma are enumerated exhaustively, their real forms computed, and
the deduplicated result checked verbatim against the embedded golden list
of eight pairs.
Each fixed subalgebra is computed and decomposed once, per Klein four
subgroup and per group, and the survey names each character's form once.
The report holds each fact once: a candidate keeps its group's name and
its own labels and types, its maximal compact subalgebra (the group's
fixed subalgebra) is read from the GroupCandidates that holds it, and the
report stores only its groups: its flat candidate list, its distinct pairs
and its verdict against the golden list are read off them.  Every candidate
is of holomorphic type by construction, as the realform module docstring
argues: theta is chosen by sigma2_elements.
Deduplication is by real-form type equality, not by conjugacy: all raw
candidates stay inspectable in the report, and "eight" counts types.  There
are exactly nine conjugacy classes of pairs (theta, Gamma).  Every pair is
toral, because C(theta) and each C(theta, x) are connected
(tests/test_pipeline.py::test_every_pair_is_toral_by_connected_centralisers;
README's design notes give the argument and the one step it cites).  The
toral pairs fall into nine W-orbits in T[2], all met by the 48 candidates;
su(4,1)+2c alone takes two, which the multiset of the real forms of
g^sigma under theta, sigma in Gamma minus 1, tells apart
(tests/test_pipeline.py::test_toral_pairs_fall_into_exactly_nine_weyl_orbits).
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import PreconditionError, VerificationError
from .realform import RealFormType, identify_real_form
from .reductive import ConjClass, FixedSubalgebra, classify_involution, fixed_subalgebra
from .rootsys import RootSystem
from .toral import GROUP_NAMES, CharacterGroup, TorusCharacter, builtin_groups

# Golden list of the eight pairs; the exact spelling is part of the contract.
GOLDEN_PAIRS = (
    "2su(2,1)+2c",
    "su(2,2)+2su(2)+c",
    "su(3,1)+su(1,1)+su(2)+c",
    "su(3,2)+2c",
    "su(2,1)+su(3)+2c",
    "su(4,1)+2c",
    "so(6,2)+2c",
    "2su(1,1)+su(4)+c",
)

# Real forms a single commuting involution can cut out of e6(-14).
SURVEY_FORMS = (
    "su(4,2)+su(2)",
    "su(5,1)+sl(2,R)",
    "so(8,2)+so(2)",
    "so*(10)+so(2)",
    "so(10)+so(2)",
)


def sigma2_elements(group: CharacterGroup, sys: RootSystem) -> tuple[str, ...]:
    """Labels of the group elements in the Cartan-involution class."""
    return tuple(label for label, char in group.nonidentity()
                 if classify_involution(char, sys) is ConjClass.SIGMA2)


class KleinSubgroup(NamedTuple):
    """An order-4 subgroup: the labels of its two earliest nonidentity
    elements, which generate it, and its three nonidentity characters."""
    labels: tuple[str, str]
    chars: frozenset[TorusCharacter]


def klein_four_subgroups(group: CharacterGroup) -> tuple[KleinSubgroup, ...]:
    """All order-4 subgroups (seven, for a rank-3 group), each labelled by
    its two generating elements.

    The i < j scan first meets a subgroup at its two earliest elements, so
    its labels are those two, and the subgroups come out in label order."""
    nonid = group.nonidentity()
    seen: dict[frozenset[TorusCharacter], KleinSubgroup] = {}
    for i, (la, ca) in enumerate(nonid):
        for lb, cb in nonid[i + 1:]:
            prod = ca * cb
            key = frozenset((ca, cb, prod))
            if key not in seen:
                seen[key] = KleinSubgroup((la, lb), key)
    return tuple(seen.values())


class K4Candidate(NamedTuple):
    """One pair (theta, Gamma) of a group; Gamma is generated by gamma_labels,
    and compact_dual is Gamma's fixed subalgebra."""
    group_name: str
    theta_label: str
    gamma_labels: tuple[str, str]
    compact_dual: FixedSubalgebra
    real_form: RealFormType


class GroupCandidates(NamedTuple):
    """One group's share of the classification, with the facts it rests on.

    fixed is the group's fixed subalgebra, which is also the maximal compact
    subalgebra of each of its candidates.
    """
    group: CharacterGroup
    sigma2_labels: tuple[str, ...]
    fixed: FixedSubalgebra
    candidates: tuple[K4Candidate, ...]

    def find(self, theta_label: str, gamma_labels: tuple[str, str]) -> K4Candidate:
        """The candidate of theta and the subgroup that gamma_labels generate,
        in either order and by any two of its nonidentity elements.  An
        unknown label or a pair that is not a candidate raises
        PreconditionError."""
        element = self.group.element
        theta = element(theta_label)
        a, b = map(element, gamma_labels)
        for c in self.candidates:
            ca, cb = map(element, c.gamma_labels)
            if element(c.theta_label) == theta and {a, b, a * b} == {ca, cb, ca * cb}:
                return c
        raise PreconditionError(
            f"(theta {theta_label}, <{','.join(gamma_labels)}>) is not a candidate pair: need "
            "Gamma a Klein four subgroup, theta sigma2-class outside it")


class K4Report(NamedTuple):
    """The classification: its groups, with the verdict read off their
    candidates against GOLDEN_PAIRS."""
    groups: tuple[GroupCandidates, ...]

    @property
    def candidates(self) -> tuple[K4Candidate, ...]:
        """Every group's candidates, in group order."""
        return tuple(c for g in self.groups for c in g.candidates)

    @property
    def distinct_pairs(self) -> tuple[str, ...]:
        """The candidates' real forms, each spelled once, sorted."""
        return tuple(sorted({c.real_form.render() for c in self.candidates}))

    @property
    def missing(self) -> tuple[str, ...]:
        """Golden pairs no candidate has, sorted."""
        return tuple(sorted(set(GOLDEN_PAIRS) - set(self.distinct_pairs)))

    @property
    def unexpected(self) -> tuple[str, ...]:
        """Candidates' real forms outside the golden list, sorted."""
        return tuple(sorted(set(self.distinct_pairs) - set(GOLDEN_PAIRS)))

    @property
    def verified(self) -> bool:
        """No golden pair missing and no unexpected one: the candidates'
        real forms are exactly the golden pairs."""
        return set(self.distinct_pairs) == set(GOLDEN_PAIRS)


def enumerate_candidates(group: CharacterGroup, sys: RootSystem) -> GroupCandidates:
    """All (theta, Gamma) pairs of the group passing the four requirements,
    with the group's sigma2 labels and fixed subalgebra.

    theta runs over the Cartan-involution-class elements, Gamma over the
    Klein four subgroups not containing theta; commutation is automatic on
    a shared torus, and so is holomorphic type (see realform).

    Each Gamma's fixed subalgebra is computed once, however many thetas it
    pairs with.  Gamma and theta together generate the whole rank-3 group,
    so every candidate's maximal compact subalgebra is the group's fixed
    subalgebra, also computed once.
    """
    if group.rank != 3:
        raise PreconditionError(f"group {group.name} has rank {group.rank}, expected 3")
    fixed = fixed_subalgebra([c for _, c in group.nonidentity()], sys)
    thetas = tuple((label, group.element(label)) for label in sigma2_elements(group, sys))
    gammas = [(sub, fixed_subalgebra(sub.chars, sys)) for sub in klein_four_subgroups(group)
              if any(theta not in sub.chars for _, theta in thetas)]
    out = []
    for theta_label, theta in thetas:
        for sub, fixed_gamma in gammas:
            if theta in sub.chars:
                continue
            out.append(K4Candidate(
                group_name=group.name,
                theta_label=theta_label,
                gamma_labels=sub.labels,
                compact_dual=fixed_gamma,
                real_form=identify_real_form(fixed_gamma, theta, sys),
            ))
    return GroupCandidates(group=group, sigma2_labels=tuple(l for l, _ in thetas),
                           fixed=fixed, candidates=tuple(out))


def classify_all(sys: RootSystem) -> K4Report:
    """Run the whole classification on the E6 root system sys; the report
    checks it against the golden list."""
    groups = builtin_groups()
    return K4Report(tuple(enumerate_candidates(groups[name], sys) for name in GROUP_NAMES))


class SurveyResult(NamedTuple):
    theta_group: str
    theta_label: str
    values: dict[str, dict[str, RealFormType]]


def resolve_label(label: str, groups: dict[str, CharacterGroup],
                  group_hint: str | None = None) -> tuple[str, str]:
    """Resolve "label" or "group:label" to (group name, element label).

    An unqualified label resolves in group_hint when one is given, else in
    the first builtin group that has an element of that name.
    """
    gname, elem = label.split(":", 1) if ":" in label else (None, label)
    if group_hint is not None:
        if gname is not None and gname != group_hint:
            raise PreconditionError(f"label {label!r} conflicts with group {group_hint}")
        gname = group_hint
    if gname is not None:
        if gname not in groups:
            raise PreconditionError(f"unknown builtin group {gname!r}")
        groups[gname].element(elem)  # raises when the group has no such element
        return gname, elem
    for name in GROUP_NAMES:
        if elem in groups[name].labels:
            return name, elem
    raise PreconditionError(f"no builtin group has an element labelled {elem!r}")


def symmetric_pair_survey(theta_label: str, sys: RootSystem) -> SurveyResult:
    """Real form of the fixed algebra of every builtin involution, under theta.

    Values outside the five admissible symmetric-pair forms are a
    verification failure, not data.  The four groups' 28 elements are 19
    characters, and each character's form is computed once.
    """
    groups = builtin_groups()
    gname, label = resolve_label(theta_label, groups)
    theta = groups[gname].element(label)
    if classify_involution(theta, sys) is not ConjClass.SIGMA2:
        raise PreconditionError(
            f"{theta_label!r} is not a sigma2-class element of a builtin group")
    forms: dict[TorusCharacter, RealFormType] = {}
    values: dict[str, dict[str, RealFormType]] = {}
    for name in GROUP_NAMES:
        group = groups[name]
        per: dict[str, RealFormType] = {}
        for slabel, schar in group.nonidentity():
            form = forms.get(schar)
            if form is None:
                form = forms[schar] = identify_real_form(fixed_subalgebra([schar], sys),
                                                         theta, sys)
                rendered = form.render("survey")
                if rendered not in SURVEY_FORMS:
                    raise VerificationError(
                        f"survey value {rendered} for ({name}, {slabel}) is outside "
                        f"the admissible list {list(SURVEY_FORMS)}")
            per[slabel] = form
        values[name] = per
    return SurveyResult(theta_group=gname, theta_label=label, values=values)


def report_to_dict(report: K4Report) -> dict:
    """JSON-ready view of a report; key order is part of the output contract."""
    group_items = [
        {
            "name": g.group.name,
            "order": g.group.order,
            "elements": list(g.group.labels),
            "sigma2_elements": list(g.sigma2_labels),
            "fixed_subalgebra": g.fixed.render(),
            "fixed_dim": g.fixed.dim,
            "candidates": len(g.candidates),
        }
        for g in report.groups
    ]
    return {
        "groups": group_items,
        "candidates": [
            {
                "group": g.group.name,
                "theta": c.theta_label,
                "gamma": list(c.gamma_labels),
                "compact_dual": c.compact_dual.render(),
                "real_form": c.real_form.render(),
                "maximal_compact": g.fixed.render(),
            }
            for g in report.groups for c in g.candidates
        ],
        "distinct_pairs": list(report.distinct_pairs),
        "verified_against_theorem24": report.verified,
    }


def report_to_markdown(report: K4Report) -> str:
    """Markdown table mirroring the eight-pair layout of the golden list."""
    by_form: dict[str, list[K4Candidate]] = {}
    for c in report.candidates:
        by_form.setdefault(c.real_form.render(), []).append(c)
    lines = [
        "# Klein four symmetric pairs of holomorphic type for e6(-14)",
        "",
        "| # | subalgebra | representative (group; theta; Gamma) | candidates |",
        "|---|------------|---------------------------------------|------------|",
    ]
    for idx, form in enumerate(GOLDEN_PAIRS, 1):
        cands = by_form.get(form, [])
        if cands:
            rep = cands[0]
            where = f"{rep.group_name}; {rep.theta_label}; <{','.join(rep.gamma_labels)}>"
        else:
            where = "MISSING"
        lines.append(f"| {idx} | {form} | {where} | {len(cands)} |")
    for form in report.unexpected:
        lines.append(f"| ? | {form} | UNEXPECTED | {len(by_form[form])} |")
    lines += ["", f"verified: {str(report.verified).lower()}"]
    return "\n".join(lines) + "\n"
