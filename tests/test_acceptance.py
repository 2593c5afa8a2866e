"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact symbolic reproduction; there are no numeric
tolerances anywhere.  Run with `pytest tests/test_acceptance.py -v -s` to
see the per-criterion lines.
"""
import random
import time
from contextlib import contextmanager

from k4holo.chevalley import build_chevalley_basis, check_jacobi, killing_form
from k4holo.pipeline import (GOLDEN_PAIRS, GROUP_NAMES, SURVEY_FORMS,
                             builtin_groups, classify_all, report_to_dict,
                             sigma2_elements, symmetric_pair_survey)
from k4holo.reductive import ConjClass, classify_involution, fixed_subalgebra, mu
from k4holo.rootsys import (_reflect, build_root_system, decompose_closed_subset,
                            reductive_type)
from k4holo.toral import TorusCharacter, embed_su6_sp1
from oracles import bracket, n, pairing

E6 = build_root_system("E", 6)
GROUPS = builtin_groups()


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_golden_run():
    with criterion(1, "theorem24 golden run"):
        t0 = time.monotonic()
        report = classify_all(E6)
        elapsed = time.monotonic() - t0
        assert report.verified
        assert len(report.distinct_pairs) == 8
        assert set(report.distinct_pairs) == set(GOLDEN_PAIRS)
        doc = report_to_dict(report)
        assert doc["verified_against_theorem24"] is True
        assert elapsed < 5.0, f"classification took {elapsed:.2f}s"


def test_criterion_2_rank3_fixed_algebras():
    with criterion(2, "rank-3 fixed algebras"):
        expected = {
            "x1x2x4": "2su(2)+4c",
            "x1x4x5": "4su(2)+2c",
            "y1y3y4": "su(3)+su(2)+3c",
            "y3y4y5": "su(4)+3c",
        }
        for name, want in expected.items():
            chars = [c for _, c in GROUPS[name].nonidentity()]
            got = fixed_subalgebra(chars, E6).rtype.render()
            assert got == want, f"{name}: {got} != {want}"


def test_criterion_3_rank2_compact_duals():
    with criterion(3, "rank-2 compact duals"):
        groupings = {
            "2su(3)+2c": [("x1x2x4", ("x1", "x2")),
                          ("y1y3y4", ("y1y3", "y3y4"))],
            "su(4)+2su(2)+c": [("x1x4x5", ("x1", "x4")),
                               ("y1y3y4", ("y1", "y4")),
                               ("y3y4y5", ("y3y4", "y5"))],
            "su(5)+2c": [("y1y3y4", ("y1y3", "y4")),
                         ("y3y4y5", ("y3", "y4")),
                         ("y3y4y5", ("y4", "y3y5"))],
            "so(8)+2c": [("y3y4y5", ("y4", "y5"))],
        }
        assert sum(len(v) for v in groupings.values()) == 9
        for want, subgroups in groupings.items():
            for gname, labels in subgroups:
                g = GROUPS[gname]
                got = fixed_subalgebra(
                    [g.element(l) for l in labels], E6).rtype.render()
                assert got == want, f"{gname}:{labels}: {got} != {want}"


def test_criterion_4_involution_census_and_mu():
    with criterion(4, "involution census and mu"):
        counts = tuple(len(sigma2_elements(GROUPS[n], E6)) for n in GROUP_NAMES)
        assert counts == (1, 3, 3, 5)
        g3, g4 = GROUPS["y1y3y4"], GROUPS["y3y4y5"]
        assert mu(g3.element("y1"), E6) == -1
        assert mu(g3.element("y3"), E6) == 1
        assert mu(g3.element("y4"), E6) == 1
        assert mu(g4.element("y5"), E6) == 1
        assert mu(g3.element("y3y4"), E6) == -1


def test_criterion_5_structure_constant_certification():
    with criterion(5, "structure-constant certification"):
        sc = build_chevalley_basis(E6)
        t0 = time.monotonic()
        report = check_jacobi(sc)
        elapsed = time.monotonic() - t0
        assert report.ok, f"first violation {report.first_violation}"
        assert report.triples_checked == 78 * 77 * 76 // 6
        assert elapsed < 60.0, f"jacobi sweep took {elapsed:.1f}s"
        n_table = {(a, b): n(sc, a, b) for a, pairs in E6.sums_from.items() for b, _ in pairs}
        for (a, b), v in n_table.items():
            assert n_table[(b, a)] == -v
        # independent oracle: adjoint trace against the root-sum formula
        root_sum = sum(pairing(E6, r, E6.simple_roots[0]) ** 2 for r in E6.roots)
        assert root_sum == 48
        assert killing_form(sc, ("h", 0), ("h", 0)) == 48


def test_criterion_6_symmetric_pair_survey():
    with criterion(6, "symmetric-pair survey"):
        for gname in GROUP_NAMES:
            for theta in sigma2_elements(GROUPS[gname], E6):
                res = symmetric_pair_survey(f"{gname}:{theta}", E6)
                sigma1_values = set()
                for g in GROUP_NAMES:
                    for label, form in res.values[g].items():
                        rendered = form.render("survey")
                        assert rendered in SURVEY_FORMS, (gname, theta, g, label)
                        char = GROUPS[g].element(label)
                        if classify_involution(char, E6) is ConjClass.SIGMA1:
                            sigma1_values.add(rendered)
                assert sigma1_values == {"su(4,2)+su(2)", "su(5,1)+sl(2,R)"}


def test_criterion_7_property_suites():
    with criterion(7, "property suites"):
        rng = random.Random(0)

        # character homomorphism law over all root pairs, sampled characters
        for _ in range(10):
            m = rng.choice((2, 3, 4, 6, 12))
            chi = TorusCharacter(m, tuple(rng.randrange(m) for _ in range(6)))
            for a in E6.roots:
                for b in E6.roots:
                    s = tuple(x + y for x, y in zip(a, b))
                    if s in E6.roots:
                        assert chi.evaluate(s) == \
                            (chi.evaluate(a) + chi.evaluate(b)) % chi.modulus

        # embedding centre-quotient invariance
        m = 12
        for _ in range(20):
            d = [rng.randrange(m) for _ in range(5)]
            d.append((-sum(d)) % m)
            y = rng.randrange(m)
            base = embed_su6_sp1(m, tuple(d), y)
            flip = embed_su6_sp1(m, tuple((x + 6) % m for x in d), (y + 6) % m)
            cube = embed_su6_sp1(m, tuple((x + 4) % m for x in d), y)
            assert base == flip == cube

        # fixed-set bracket closure for 50 random character sets
        sc = build_chevalley_basis(E6)
        span_h = {("h", i) for i in range(6)}
        for _ in range(50):
            m = rng.choice((2, 3, 4, 6))
            chars = [TorusCharacter(m, tuple(rng.randrange(m) for _ in range(6)))
                for _ in range(rng.randrange(1, 4))]
            fixed = {r for r in E6.roots
                     if all(c.evaluate(r) == 0 for c in chars)}
            span = span_h | {("x", r) for r in fixed}
            for a in fixed:
                for b in fixed:
                    assert set(bracket(sc, {("x", a): 1}, {("x", b): 1})) <= span

        # Weyl invariance of subsystem identification, 100 random closed sets
        for _ in range(100):
            m = rng.choice((2, 3, 4, 6))
            chars = [TorusCharacter(m, tuple(rng.randrange(m) for _ in range(6)))
                for _ in range(rng.randrange(1, 3))]
            subset = frozenset(r for r in E6.roots
                               if all(c.evaluate(r) == 0 for c in chars))
            t = reductive_type(decompose_closed_subset(subset, E6), E6)
            word = [rng.randrange(6) for _ in range(rng.randrange(1, 12))]
            image = subset
            for i in word:
                image = frozenset(_reflect(E6.cartan, r, i) for r in image)
            assert reductive_type(decompose_closed_subset(image, E6), E6) == t
