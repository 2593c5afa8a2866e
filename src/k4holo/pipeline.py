"""End-to-end classification of Klein four symmetric pairs of holomorphic type.

The four builtin rank-3 groups of commuting toral involutions are realised
through the su(6)+sp(1) embedding from explicit diagonal data mod 4 (the
characters are canonical, so no other modulus could change them); composite
names are resolved multiplicatively (in x1x4x5 the datum given is x1*x4, so
x4 = x1*(x1*x4); in y1y3y4 the data are y1*y3, y1*y4 and y4; in y3y4y5 they
are y3*y4, y5 and y3).  Candidate pairs (theta, Gamma) with theta a
Cartan-involution representative outside the Klein four subgroup Gamma are
enumerated exhaustively, their real forms computed, and the deduplicated
result checked verbatim against the embedded golden list of eight pairs.
Each fixed subalgebra is computed and decomposed once, per Klein four
subgroup and per group.  The report holds each fact once: a candidate
keeps its group's name and its own labels and types, its maximal compact
subalgebra (the group's fixed subalgebra) is read from the GroupCandidates
that holds it, and the report's flat candidate list is derived from its
groups.  The holomorphic-type condition holds by
construction for toral sigma, so only its premise on theta (the so(10)+R
class with a corank-1 centre) is checked, once per theta.  Deduplication is by real-form
type equality, not by conjugacy: all raw candidates stay inspectable in the
report.  Two of the candidate pairs in y3y4y5 yield the same type; whether
they are actually conjugate is not decided here.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import PreconditionError, VerificationError
from .realform import RealFormType, center_of_fixed, identify_real_form
from .reductive import ConjClass, FixedSubalgebra, classify_involution, fixed_subalgebra
from .rootsys import ReductiveType, RootSystem, build_root_system
from .toral import CharacterGroup, TorusCharacter, UnitaryPairData, embed_su6_sp1, generate_group

GROUP_NAMES = ("x1x2x4", "x1x4x5", "y1y3y4", "y3y4y5")

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


def builtin_groups() -> dict[str, CharacterGroup]:
    """The four rank-3 groups of commuting involutions, with element labels.

    Each has order 8; the tests and selftest's involution census pin that."""

    def emb(diag, sp1):
        return embed_su6_sp1(UnitaryPairData(4, diag, sp1))

    minus_one = emb((0,) * 6, 2)            # (I6, -1)
    i3_i3_i = emb((1, 1, 1, 3, 3, 3), 1)    # (diag(i,i,i,-i,-i,-i), i)
    i5_i = emb((1, 1, 1, 1, 1, 3), 1)       # (diag(i,i,i,i,i,-i), i)
    m2_p4 = emb((2, 2, 0, 0, 0, 0), 0)      # (diag(-1,-1,1,1,1,1), 1)
    m4_p2 = emb((2, 2, 2, 2, 0, 0), 0)      # (diag(-1,-1,-1,-1,1,1), 1)
    m22 = emb((2, 2, 0, 2, 2, 0), 0)        # (diag(-1,-1,1,-1,-1,1), 1)

    groups = {
        "x1x2x4": generate_group(
            [("x1", minus_one), ("x2", i3_i3_i), ("x4", m22)], "x1x2x4"),
        "x1x4x5": generate_group(
            [("x1", minus_one), ("x4", minus_one * m2_p4), ("x5", m4_p2)], "x1x4x5"),
        "y1y3y4": generate_group(
            [("y1", i3_i3_i * i5_i), ("y3", minus_one * i3_i3_i * i5_i), ("y4", i5_i)],
            "y1y3y4"),
        "y3y4y5": generate_group(
            [("y3", i5_i), ("y4", minus_one * i5_i), ("y5", m4_p2)], "y3y4y5"),
    }
    return groups


def sigma2_elements(group: CharacterGroup, sys: RootSystem) -> tuple[str, ...]:
    """Labels of the group elements in the Cartan-involution class."""
    return tuple(label for label, char in group.nonidentity()
                 if classify_involution(char, sys) is ConjClass.SIGMA2)


class KleinSubgroup(NamedTuple):
    """An order-4 subgroup; its first two labels generate it."""
    labels: tuple[str, str, str]
    chars: frozenset[TorusCharacter]


def klein_four_subgroups(group: CharacterGroup) -> tuple[KleinSubgroup, ...]:
    """All order-4 subgroups (seven, for a rank-3 group), canonically labelled."""
    nonid = group.nonidentity()
    pos = {label: i for i, (label, _) in enumerate(nonid)}
    seen: dict[frozenset[TorusCharacter], tuple[str, ...]] = {}
    for i, (la, ca) in enumerate(nonid):
        for lb, cb in nonid[i + 1:]:
            prod = ca * cb
            key = frozenset((ca, cb, prod))
            if key not in seen:
                members = sorted((la, lb, group.canonical_label(prod)),
                                 key=pos.__getitem__)
                seen[key] = tuple(members)
    subs = [KleinSubgroup(labels=labels, chars=key) for key, labels in seen.items()]
    subs.sort(key=lambda s: tuple(pos[l] for l in s.labels))
    return tuple(subs)


class K4Candidate(NamedTuple):
    """One pair (theta, Gamma) of a group; Gamma is generated by gamma_labels."""
    group_name: str
    theta_label: str
    gamma_labels: tuple[str, str]
    compact_dual: ReductiveType
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
        in either order and by any two of its nonidentity elements.  A pair
        that is not a candidate raises PreconditionError."""
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
    groups: tuple[GroupCandidates, ...]
    distinct_pairs: tuple[str, ...]
    verified: bool
    missing: tuple[str, ...]
    unexpected: tuple[str, ...]

    @property
    def candidates(self) -> tuple[K4Candidate, ...]:
        """Every group's candidates, in group order."""
        return tuple(c for g in self.groups for c in g.candidates)


def enumerate_candidates(group: CharacterGroup, sys: RootSystem) -> GroupCandidates:
    """All (theta, Gamma) pairs of the group passing the four requirements,
    with the group's sigma2 labels and fixed subalgebra.

    theta runs over the Cartan-involution-class elements, Gamma over the
    Klein four subgroups not containing theta; commutation is automatic on
    a shared torus.  Every sigma in Gamma fixes the centre generator of
    theta's fixed subalgebra, because it lies in the Cartan subalgebra that
    toral characters fix pointwise; only the premise on theta (its class
    and the corank-1 centre) can fail, so center_of_fixed checks it once.

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
        center_of_fixed(theta, sys)
        for sub, fixed_gamma in gammas:
            if theta in sub.chars:
                continue
            out.append(K4Candidate(
                group_name=group.name,
                theta_label=theta_label,
                gamma_labels=sub.labels[:2],
                compact_dual=fixed_gamma.rtype,
                real_form=identify_real_form(fixed_gamma, theta, sys),
            ))
    return GroupCandidates(group=group, sigma2_labels=tuple(l for l, _ in thetas),
                           fixed=fixed, candidates=tuple(out))


def classify_all(sys: RootSystem | None = None) -> K4Report:
    """Run the whole classification and verify it against the golden list."""
    if sys is None:
        sys = build_root_system("E", 6)
    groups = builtin_groups()
    found = tuple(enumerate_candidates(groups[name], sys) for name in GROUP_NAMES)
    distinct = tuple(sorted({c.real_form.render() for g in found for c in g.candidates}))
    golden = set(GOLDEN_PAIRS)
    missing = tuple(sorted(golden - set(distinct)))
    unexpected = tuple(sorted(set(distinct) - golden))
    return K4Report(groups=found, distinct_pairs=distinct,
                    verified=not missing and not unexpected,
                    missing=missing, unexpected=unexpected)


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
    if group_hint:
        if gname and gname != group_hint:
            raise PreconditionError(f"label {label!r} conflicts with group {group_hint}")
        gname = group_hint
    if gname:
        if gname not in groups:
            raise PreconditionError(f"unknown builtin group {gname!r}")
        if elem not in groups[gname].labels:
            raise PreconditionError(f"group {gname} has no element {elem!r}")
        return gname, elem
    for name in GROUP_NAMES:
        if elem in groups[name].labels:
            return name, elem
    raise PreconditionError(f"no builtin group has an element labelled {elem!r}")


def symmetric_pair_survey(theta_label: str, sys: RootSystem | None = None) -> SurveyResult:
    """Real form of the fixed algebra of every builtin involution, under theta.

    Values outside the five admissible symmetric-pair forms are a
    verification failure, not data.
    """
    if sys is None:
        sys = build_root_system("E", 6)
    groups = builtin_groups()
    gname, label = resolve_label(theta_label, groups)
    theta = groups[gname].element(label)
    if classify_involution(theta, sys) is not ConjClass.SIGMA2:
        raise PreconditionError(
            f"{theta_label!r} is not a sigma2-class element of a builtin group")
    values: dict[str, dict[str, RealFormType]] = {}
    for name in GROUP_NAMES:
        group = groups[name]
        per: dict[str, RealFormType] = {}
        for slabel, schar in group.nonidentity():
            form = identify_real_form(fixed_subalgebra([schar], sys), theta, sys)
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
            "elements": [l for l, _ in g.group.element_order],
            "sigma2_elements": list(g.sigma2_labels),
            "fixed_subalgebra": g.fixed.rtype.render(),
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
                "maximal_compact": g.fixed.rtype.render(),
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
    extra = sorted(set(by_form) - set(GOLDEN_PAIRS))
    for form in extra:
        lines.append(f"| ? | {form} | UNEXPECTED | {len(by_form[form])} |")
    lines.append("")
    lines.append(f"verified: {str(report.verified).lower()}")
    return "\n".join(lines) + "\n"
