from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from k4holo.errors import InternalConsistencyError, PreconditionError
from k4holo.pipeline import GROUP_NAMES, builtin_groups, sigma2_elements
from k4holo.realform import (RealFormLabel, RealFormType, center_of_fixed,
                             holomorphic_type_check, identify_real_form,
                             _ideal_label)
from k4holo.reductive import fixed_subalgebra, sigma1_reference, sigma2_reference
from k4holo.rootsys import Root, RootSystem, build_root_system, decompose_closed_subset
from k4holo.toral import TorusCharacter, identity_character
from oracles import complexification, pairing, reflect

E6 = build_root_system("E", 6)
GROUPS = builtin_groups()


def _t2(n: int) -> TorusCharacter:
    """The element of T[2] whose exponents on the six simple roots are the bits of n."""
    return TorusCharacter(2, tuple(n >> i & 1 for i in range(6)))


# The 27 sigma2 elements of T[2], told by their 40 fixed roots with evaluate alone.
SIGMA2_T2 = [t for t in map(_t2, range(64)) if sum(t.evaluate(r) == 0 for r in E6.roots) == 40]


def _w_orbit(v: tuple[int, ...]) -> set[tuple[int, ...]]:
    """W-orbit of a vector in simple-root coordinates, closed under the
    simple reflections v -> v - (v, alpha_i) alpha_i."""
    orbit, frontier = {v}, [v]
    while frontier:
        u = frontier.pop()
        for i in range(6):
            if (w := reflect(E6, u, i)) not in orbit:
                orbit.add(w)
                frontier.append(w)
    return orbit


def forms_of(group_name, gamma_labels, theta_label):
    g = GROUPS[group_name]
    fs = fixed_subalgebra([g.element(l) for l in gamma_labels], E6)
    return fs, identify_real_form(fs, g.element(theta_label), E6)


def test_identify_real_form_reuses_the_components(monkeypatch):
    from k4holo import rootsys
    fresh = build_root_system.__wrapped__("E", 6)
    g = GROUPS["y3y4y5"]
    fs = fixed_subalgebra([g.element("y4"), g.element("y5")], fresh)

    def refusing(sys, subset):
        raise AssertionError("identify_real_form decomposed a root subset")

    monkeypatch.setattr(rootsys.RootSystem, "decomposition", refusing)
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
    assert complexification(form) == fs.rtype


def test_exceptional_ideal_is_unmapped():
    fs = fixed_subalgebra([], E6)
    with pytest.raises(PreconditionError):
        identify_real_form(fs, sigma1_reference(), E6)


def test_theta_of_higher_order_rejected():
    fs = fixed_subalgebra([sigma1_reference()], E6)
    with pytest.raises(PreconditionError):
        identify_real_form(fs, TorusCharacter(3, (1, 0, 0, 0, 0, 0)), E6)


def test_center_of_fixed_reference():
    basis = center_of_fixed(sigma2_reference(), E6)
    assert len(basis) == 1
    z = basis[0]
    fixed = [r for r in E6.roots if sigma2_reference().evaluate(r) == 0]
    assert all(pairing(E6, r, z) == 0 for r in fixed)
    assert any(pairing(E6, r, z) != 0 for r in E6.roots)


# Every theta the classification pairs: its holomorphic-type premise, which
# the pipeline does not re-check, holds on each.
@pytest.mark.parametrize("group,label", [(name, label) for name in GROUP_NAMES
                                         for label in sigma2_elements(GROUPS[name], E6)])
def test_center_of_fixed_for_builtin_thetas(group, label):
    theta = GROUPS[group].element(label)
    rtype = fixed_subalgebra([theta], E6).rtype
    assert rtype.components == (("D", 5),)
    assert rtype.center_dim == 1
    basis = center_of_fixed(theta, E6)
    assert len(basis) == 1
    fixed = [r for r in E6.roots if theta.evaluate(r) == 0]
    assert all(pairing(E6, r, basis[0]) == 0 for r in fixed)


def test_center_of_fixed_rejects_sigma1():
    with pytest.raises(PreconditionError):
        center_of_fixed(sigma1_reference(), E6)


def test_holomorphic_type_check():
    g1 = GROUPS["x1x2x4"]
    assert holomorphic_type_check(g1.element("x1"), g1.element("x4"), E6)
    assert holomorphic_type_check(g1.element("x2"), g1.element("x4"), E6)
    assert holomorphic_type_check(identity_character(), sigma2_reference(), E6)
    for order in (3, 4):
        sigma = TorusCharacter(order, (1, 0, 0, 0, 0, 0))
        with pytest.raises(PreconditionError, match="sigma must be an involution"):
            holomorphic_type_check(sigma, sigma2_reference(), E6)


def test_centre_coweight_orbit_has_27_elements_without_its_negative():
    # No element of W maps the centre coweight H0 of theta's fixed
    # subalgebra to -H0.  Automorphisms of the E6 root system are W x {+-1},
    # so every one that fixes H0 lies in W.
    h0 = center_of_fixed(sigma2_reference(), E6)[0]
    orbit = _w_orbit(h0)
    assert len(orbit) == 27
    assert tuple(-c for c in h0) not in orbit


def test_centres_grade_the_roots_and_are_one_orbit_up_to_sign():
    # Independent of the engine's linear algebra: z generates the centre of
    # k = g^theta, so ad z has eigenvalues -3, 0, 3 on g = p- + k + p+
    # (Knapp, Lie Groups Beyond an Introduction, VII.9), 0 exactly on the
    # roots theta fixes; and the centres are W-conjugate up to sign.
    assert len(SIGMA2_T2) == 27
    centres = set()
    for theta in SIGMA2_T2:
        z = center_of_fixed(theta, E6)[0]
        for r in E6.roots:
            assert pairing(E6, r, z) in (-3, 0, 3)
            assert (pairing(E6, r, z) == 0) == (theta.evaluate(r) == 0)
        centres |= {z, tuple(-c for c in z)}
    z0 = center_of_fixed(sigma2_reference(), E6)[0]
    orbit = _w_orbit(z0)
    assert len(orbit) == 27
    assert centres == orbit | _w_orbit(tuple(-c for c in z0))
    assert len(centres) == 54


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
    assert RealFormLabel("so", 2, 2).render() == "so(4,4)"


def test_form_rendering_and_ordering():
    form = RealFormType(
        ideals=(RealFormLabel("su", 4), RealFormLabel("su", 1, 1),
                RealFormLabel("su", 1, 1)),
        center=1)
    assert form.render() == "2su(1,1)+su(4)+c"
    survey = RealFormType(
        ideals=(RealFormLabel("so", 4, 1),), center=1)
    assert survey.render("survey") == "so(8,2)+so(2)"
    # The order every rendering follows, written out by hand: noncompact
    # ideals first, then larger complex rank, then su, so, so*, then larger
    # a and larger b.
    expected = (RealFormLabel("su", 3, 3), RealFormLabel("so", 4, 1), RealFormLabel("so_star", 5),
                RealFormLabel("su", 3, 2), RealFormLabel("so", 3, 1), RealFormLabel("so_star", 4),
                RealFormLabel("su", 2, 1), RealFormLabel("so", 1, 1), RealFormLabel("su", 1, 1),
                RealFormLabel("su", 4), RealFormLabel("so", 3), RealFormLabel("su", 2))
    assert RealFormType(expected[::-1], 0).ideals == expected


def test_compact_part_dimensions():
    assert RealFormLabel("su", 4, 2).compact_part_dim == 19
    assert RealFormLabel("so", 4, 1).compact_part_dim == 29
    assert RealFormLabel("so_star", 5).compact_part_dim == 25
    assert RealFormLabel("so", 5).compact_part_dim == 45


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


def test_fraction_nullspace_on_hand_worked_matrices():
    assert _fraction_nullspace([(1, 0, -1), (0, 1, 0)], 3) == ((1, 0, 1),)
    assert _fraction_nullspace([(1, 2, 3)], 3) == ((-2, 1, 0), (-3, 0, 1))
    assert _fraction_nullspace([(2, 4)], 2) == ((-2, 1),)


def test_center_of_fixed_matches_rational_elimination_on_t2():
    # The reference eliminates all 40 fixed-root rows; the engine reads
    # only the five simple roots' rows.
    for theta in SIGMA2_T2:
        fixed = sorted(r for r in E6.roots if theta.evaluate(r) == 0)
        rows = [tuple(pairing(E6, r, s) for s in E6.simple_roots) for r in fixed]
        assert center_of_fixed(theta, E6) == _fraction_nullspace(rows, 6)


_T2 = st.integers(0, 63).map(_t2)


@given(st.lists(_T2.filter(lambda c: c.order == 2), min_size=1, max_size=2), _T2)
@settings(max_examples=50, deadline=None)
def test_identify_real_form_passes_its_bookkeeping_on_t2(gamma, theta):
    fs = fixed_subalgebra(gamma, E6)
    assert complexification(identify_real_form(fs, theta, E6)) == fs.rtype


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
        raise PreconditionError(
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
        raise PreconditionError(
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
        raise PreconditionError(
            f"fixed pattern {comps} + {inner_center} centre inside D{n} "
            "matches no equal-rank real form")

    raise PreconditionError(f"no real-form vocabulary for an {family}{n} ideal")


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
