from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from k4holo.errors import InternalConsistencyError, PreconditionError, UnmappedPatternError
from k4holo.pipeline import builtin_groups
from k4holo.realform import (RealFormLabel, RealFormType, center_of_fixed,
                             holomorphic_type_check, identify_real_form,
                             _ideal_label, _integer_nullspace)
from k4holo.reductive import fixed_subalgebra, sigma1_reference, sigma2_reference
from k4holo.rootsys import Root, RootSystem, build_root_system, decompose_closed_subset
from k4holo.toral import TorusCharacter, identity_character

E6 = build_root_system("E", 6)
GROUPS = builtin_groups()


def forms_of(group_name, gamma_labels, theta_label):
    g = GROUPS[group_name]
    fs = fixed_subalgebra([g.element(l) for l in gamma_labels], E6)
    return fs, identify_real_form(fs, g.element(theta_label), E6)


def test_identify_real_form_reuses_the_components(monkeypatch):
    from k4holo import rootsys
    fresh = build_root_system.__wrapped__("E", 6)
    g = GROUPS["y3y4y5"]
    fs = fixed_subalgebra([g.element("y4"), g.element("y5")], fresh)

    def refusing(subset, sys):
        raise AssertionError("identify_real_form decomposed a root subset")

    monkeypatch.setattr(rootsys, "_decompose", refusing)
    assert identify_real_form(fs, g.element("y3"), fresh).render() == "so(6,2)+2c"


def test_two_su21_pair():
    fs, form = forms_of("x1x2x4", ("x1", "x2"), "x4")
    assert fs.rtype.render() == "2su(3)+2c"
    assert form.render() == "2su(2,1)+2c"


def test_so62_pair():
    fs, form = forms_of("y3y4y5", ("y4", "y5"), "y3")
    assert fs.rtype.render() == "so(8)+2c"
    assert form.render() == "so(6,2)+2c"


def test_identity_theta_gives_all_compact():
    g = GROUPS["x1x2x4"]
    fs = fixed_subalgebra([g.element("x1"), g.element("x2")], E6)
    form = identify_real_form(fs, identity_character(), E6)
    assert all(l.is_compact for l in form.ideals)
    assert form.render() == "2su(3)+2c"


def test_compact_real_forms_spell_like_their_complex_types(monkeypatch):
    # Under the identity every ideal is compact and every centre line a c,
    # so the real form and the compact type go through one renderer alike.
    from k4holo import pipeline
    built = []

    def recording(chars, sys):
        built.append(fixed_subalgebra(chars, sys))
        return built[-1]

    monkeypatch.setattr(pipeline, "fixed_subalgebra", recording)
    pipeline.classify_all(E6)
    t2 = [TorusCharacter(2, tuple(n >> i & 1 for i in range(6))) for n in range(1, 64)]
    subs = built + [fixed_subalgebra([chi], E6) for chi in t2]
    assert len(subs) == len(built) + 63 and built
    for fs in subs:
        form = identify_real_form(fs, identity_character(), E6)
        assert form.render() == fs.rtype.render()
        assert form.center == fs.rtype.center_dim


def test_complexification_matches_compact_dual():
    fs, form = forms_of("y1y3y4", ("y1", "y4"), "y3")
    assert form.complexification() == fs.rtype


def test_exceptional_ideal_is_unmapped():
    fs = fixed_subalgebra([], E6)
    with pytest.raises(UnmappedPatternError):
        identify_real_form(fs, sigma1_reference(), E6)


def test_theta_of_higher_order_rejected():
    from k4holo.toral import character_from_simple_values
    fs = fixed_subalgebra([sigma1_reference()], E6)
    with pytest.raises(PreconditionError):
        identify_real_form(fs, character_from_simple_values((1, 0, 0, 0, 0, 0), 3), E6)


def test_center_of_fixed_reference():
    basis = center_of_fixed(sigma2_reference(), E6)
    assert len(basis) == 1
    z = basis[0]
    fixed = [r for r in E6.roots if sigma2_reference().evaluate(r) == 0]
    assert all(E6.pairing(r, z) == 0 for r in fixed)
    assert any(E6.pairing(r, z) != 0 for r in E6.roots)


@pytest.mark.parametrize("group,label", [
    ("x1x2x4", "x4"), ("x1x4x5", "x4"), ("x1x4x5", "x5"),
    ("y1y3y4", "y3"), ("y3y4y5", "y5"),
])
def test_center_of_fixed_for_builtin_thetas(group, label):
    theta = GROUPS[group].element(label)
    basis = center_of_fixed(theta, E6)
    assert len(basis) == 1
    fixed = [r for r in E6.roots if theta.evaluate(r) == 0]
    assert all(E6.pairing(r, basis[0]) == 0 for r in fixed)


def test_center_of_fixed_rejects_sigma1():
    with pytest.raises(PreconditionError):
        center_of_fixed(sigma1_reference(), E6)


def test_holomorphic_type_check():
    g1 = GROUPS["x1x2x4"]
    assert holomorphic_type_check(g1.element("x1"), g1.element("x4"), E6)
    assert holomorphic_type_check(g1.element("x2"), g1.element("x4"), E6)
    assert holomorphic_type_check(identity_character(), sigma2_reference(), E6)


def test_theta_shift_by_gamma_is_invisible():
    # replacing theta by theta * gamma for gamma in the acting group does
    # not change the identified real form
    g = GROUPS["y3y4y5"]
    gamma = [g.element("y4"), g.element("y5")]
    fs = fixed_subalgebra(gamma, E6)
    theta = g.element("y3")
    base = identify_real_form(fs, theta, E6)
    for extra in gamma + [gamma[0] * gamma[1]]:
        assert identify_real_form(fs, theta * extra, E6) == base


def test_label_rendering_styles():
    assert RealFormLabel("su", 1, 1).render() == "su(1,1)"
    assert RealFormLabel("su", 1, 1).render("survey") == "sl(2,R)"
    assert RealFormLabel("so", 5, 1).render() == "so(10,2)"
    assert RealFormLabel("so_star", 5).render() == "so*(10)"
    assert RealFormLabel("so", 5).render() == "so(10)"
    assert RealFormLabel("su", 4).render() == "su(4)"


def test_form_rendering_and_ordering():
    form = RealFormType(
        ideals=(RealFormLabel("su", 4), RealFormLabel("su", 1, 1),
                RealFormLabel("su", 1, 1)),
        center=1)
    assert form.render() == "2su(1,1)+su(4)+c"
    survey = RealFormType(
        ideals=(RealFormLabel("so", 4, 1),), center=1)
    assert survey.render("survey") == "so(8,2)+so(2)"


def test_compact_part_dimensions():
    assert RealFormLabel("su", 4, 2).compact_part_dim == 19
    assert RealFormLabel("so", 4, 1).compact_part_dim == 29
    assert RealFormLabel("so_star", 5).compact_part_dim == 25
    assert RealFormLabel("so", 5).compact_part_dim == 45


def test_nullspace_helper():
    rows = [(1, 0, -1), (0, 1, 0)]
    basis = _integer_nullspace(rows, 3)
    assert basis == ((1, 0, 1),)
    assert _integer_nullspace([(1, 2, 3)], 3) == ((-2, 1, 0), (-3, 0, 1))
    assert _integer_nullspace([(2, 4)], 2) == ((-2, 1),)


def _fraction_nullspace(rows, ncols):
    """Reference: reduced row echelon form over the rationals, then one
    primitive integer vector per free column (entry 1 there, scaled)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        denom = 1
        for x in vec:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        ints = [int(x * denom) for x in vec]
        g = gcd(*ints)
        basis.append(tuple(x // g for x in ints))
    return tuple(basis)


_MATRICES = st.integers(0, 7).flatmap(
    lambda ncols: st.tuples(
        st.lists(st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols)
                 .map(tuple), max_size=9),
        st.just(ncols)))


@given(_MATRICES)
@settings(max_examples=200, deadline=None)
def test_integer_nullspace_matches_rational_elimination(matrix):
    rows, ncols = matrix
    # Repeated and negated rows exercise the duplicate-row dropping.
    rows = rows + rows[:2] + [tuple(-x for x in row) for row in rows[:1]]
    basis = _integer_nullspace(rows, ncols)
    assert basis == _fraction_nullspace(rows, ncols)
    for vec in basis:
        assert gcd(*vec) == 1
        assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in rows)


def test_integer_nullspace_of_the_centre_rows():
    # The rows center_of_fixed eliminates for the sigma2 reference.
    fixed = sorted(E6.kernel(sigma2_reference()))
    rows = [tuple(E6.pairing(r, s) for s in E6.simple_roots) for r in fixed]
    assert _integer_nullspace(rows, 6) == _fraction_nullspace(rows, 6)
    assert center_of_fixed(sigma2_reference(), E6) == _fraction_nullspace(rows, 6)


# An element of T[2]: its exponents on the six simple roots, as the bits of 0..63.
_T2 = st.integers(0, 63).map(lambda n: TorusCharacter(2, tuple(n >> i & 1 for i in range(6))))


@given(st.lists(_T2.filter(lambda c: c.order == 2), min_size=1, max_size=2), _T2)
@settings(max_examples=50, deadline=None)
def test_identify_real_form_passes_its_bookkeeping_on_t2(gamma, theta):
    fs = fixed_subalgebra(gamma, E6)
    assert identify_real_form(fs, theta, E6).complexification() == fs.rtype


def _d_shape(k: int) -> tuple[tuple[tuple[str, int], ...], int]:
    """Component multiset and centre count of the compact algebra so(2k)."""
    if k == 1:
        return ((), 1)
    if k == 2:
        return ((("A", 1), ("A", 1)), 0)
    if k == 3:
        return ((("A", 3),), 0)
    return ((("D", k),), 0)


def _reference_ideal_label(family: str, n: int, comp_roots: frozenset[Root],
                           fixed_in: frozenset[Root], sys: RootSystem) -> RealFormLabel:
    """Reference: decompose theta's fixed roots inside the ideal and match
    the pattern against the so(2p) x so(2q), su(p) x su(q) and so*(2n) shapes."""
    if fixed_in == comp_roots:
        if family == "A":
            return RealFormLabel("su", n + 1)
        if family == "D":
            return RealFormLabel("so", n)
        raise UnmappedPatternError(
            f"no real-form vocabulary for a compact {family}{n} ideal")

    sub = decompose_closed_subset(fixed_in, sys)
    comps = tuple(sorted(((c.family, c.rank) for c in sub),
                         key=lambda c: (-c[1], c[0])))
    inner_center = n - sum(r for _, r in comps)

    if family == "A":
        if inner_center == 1 and len(comps) <= 2 and all(f == "A" for f, _ in comps):
            ranks = sorted((r for _, r in comps), reverse=True) + [0, 0]
            p, q = ranks[0] + 1, ranks[1] + 1
            if p + q == n + 1:
                return RealFormLabel("su", p, q)
        raise UnmappedPatternError(
            f"fixed pattern {comps} + {inner_center} centre inside A{n} "
            "matches no equal-rank real form")

    if family == "D":
        for q in range(1, n // 2 + 1):
            p = n - q
            p_comps, p_center = _d_shape(p)
            q_comps, q_center = _d_shape(q)
            expected = tuple(sorted(p_comps + q_comps, key=lambda c: (-c[1], c[0])))
            if comps == expected and inner_center == p_center + q_center:
                return RealFormLabel("so", p, q)
        if inner_center == 1 and comps == (("A", n - 1),):
            # For n = 4 this pattern is already caught above as so(6,2),
            # which is the same algebra as so*(8).
            return RealFormLabel("so_star", n)
        raise UnmappedPatternError(
            f"fixed pattern {comps} + {inner_center} centre inside D{n} "
            "matches no equal-rank real form")

    raise UnmappedPatternError(f"no real-form vocabulary for an {family}{n} ideal")


def test_sign_rule_matches_the_pattern_lookup_on_every_t2_ideal():
    # Every simple component of the fixed subalgebra of 1-2 nonzero elements
    # of T[2], against every theta in T[2].  A fresh system keeps the
    # reference's decompositions out of the shared one.
    sys = build_root_system.__wrapped__("E", 6)
    t2 = [TorusCharacter(2, tuple(n >> i & 1 for i in range(6))) for n in range(64)]
    gammas = [[a] for a in t2[1:]] + [[a, b] for i, a in enumerate(t2[1:], 1) for b in t2[i + 1:]]
    comps = {c.roots: c for g in gammas for c in fixed_subalgebra(g, sys).components}
    assert len(comps) == 750
    assert {(c.family, c.rank) for c in comps.values()} == {
        ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5)}
    for comp in comps.values():
        # Both rules read theta only through the roots of comp it fixes, so
        # thetas fixing the same roots of comp are compared once.
        seen = set()
        for theta in t2:
            fixed_in = comp.roots & sys.kernel(theta)
            if fixed_in not in seen:
                seen.add(fixed_in)
                expected = _reference_ideal_label(comp.family, comp.rank, comp.roots,
                                                  fixed_in, sys)
                assert _ideal_label(comp, theta) == expected, (comp.simple, theta)
