from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from k4holo.errors import InternalConsistencyError, PreconditionError, UnmappedPatternError
from k4holo.pipeline import builtin_groups
from k4holo.realform import (RealFormLabel, RealFormType, center_of_fixed,
                             holomorphic_type_check, identify_real_form,
                             _integer_nullspace)
from k4holo.reductive import fixed_subalgebra, sigma1_reference, sigma2_reference
from k4holo.rootsys import build_root_system
from k4holo.toral import TorusCharacter, identity_character

E6 = build_root_system("E", 6)
GROUPS = builtin_groups()


def forms_of(group_name, gamma_labels, theta_label):
    g = GROUPS[group_name]
    fs = fixed_subalgebra([g.element(l) for l in gamma_labels], E6)
    return fs, identify_real_form(fs, g.element(theta_label), E6)


def test_identify_real_form_reuses_the_components(monkeypatch):
    from k4holo import realform
    seen = []
    original = realform.decompose_closed_subset

    def recording(subset, sys):
        subset = frozenset(subset)
        seen.append(subset)
        return original(subset, sys)

    g = GROUPS["y3y4y5"]
    fs = fixed_subalgebra([g.element("y4"), g.element("y5")], E6)
    monkeypatch.setattr(realform, "decompose_closed_subset", recording)
    assert identify_real_form(fs, g.element("y3"), E6).render() == "so(6,2)+2c"
    assert seen and fs.fixed_roots not in seen


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
    assert RealFormLabel("so_c", 5).render() == "so(10)"
    assert RealFormLabel("su_c", 4).render() == "su(4)"


def test_form_rendering_and_ordering():
    form = RealFormType(
        ideals=(RealFormLabel("su_c", 4), RealFormLabel("su", 1, 1),
                RealFormLabel("su", 1, 1)),
        center=("c",))
    assert form.render() == "2su(1,1)+su(4)+c"
    survey = RealFormType(
        ideals=(RealFormLabel("so", 4, 1),), center=("c",))
    assert survey.render("survey") == "so(8,2)+so(2)"


def test_compact_part_dimensions():
    assert RealFormLabel("su", 4, 2).compact_part_dim == 19
    assert RealFormLabel("so", 4, 1).compact_part_dim == 29
    assert RealFormLabel("so_star", 5).compact_part_dim == 25
    assert RealFormLabel("so_c", 5).compact_part_dim == 45


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
    rows = [tuple(E6.gram[r][s] for s in E6.simple_roots) for r in fixed]
    assert _integer_nullspace(rows, 6) == _fraction_nullspace(rows, 6)
    assert center_of_fixed(sigma2_reference(), E6) == _fraction_nullspace(rows, 6)


# An element of T[2]: its exponents on the six simple roots, as the bits of 0..63.
_T2 = st.integers(0, 63).map(lambda n: TorusCharacter(2, tuple(n >> i & 1 for i in range(6))))


@given(st.lists(_T2.filter(lambda c: c.order == 2), min_size=1, max_size=2), _T2)
@settings(max_examples=50, deadline=None)
def test_identify_real_form_passes_its_bookkeeping_on_t2(gamma, theta):
    fs = fixed_subalgebra(gamma, E6)
    assert identify_real_form(fs, theta, E6).complexification() == fs.rtype
