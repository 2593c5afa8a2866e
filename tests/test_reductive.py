from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from k4holo.errors import PreconditionError
from k4holo.pipeline import builtin_groups
from k4holo.reductive import (ConjClass, classify_involution, fixed_subalgebra,
                              mu, sigma1_reference, sigma2_reference)
from k4holo.rootsys import build_root_system
from k4holo.toral import TorusCharacter, identity_character

E6 = build_root_system("E", 6)
GROUPS = builtin_groups()


def test_fixed_of_nothing_is_whole_algebra():
    fs = fixed_subalgebra([], E6)
    assert fs.dim == 78
    assert [(c.family, c.rank) for c in fs.components] == [("E", 6)]


def test_fixed_of_sigma2_reference():
    fs = fixed_subalgebra([sigma2_reference()], E6)
    assert fs.dim == 46
    assert [(c.family, c.rank) for c in fs.components] == [("D", 5)]
    assert fs.center == 1


def test_fixed_of_sigma1_reference():
    fs = fixed_subalgebra([sigma1_reference()], E6)
    assert fs.dim == 38
    assert [(c.family, c.rank) for c in fs.components] == [("A", 5), ("A", 1)]


def test_fixed_of_x1x2x4_group():
    chars = [c for _, c in GROUPS["x1x2x4"].nonidentity()]
    fs = fixed_subalgebra(chars, E6)
    assert fs.dim == 10
    assert fs.render() == "2su(2)+4c"


def test_dim_bookkeeping():
    fs = fixed_subalgebra([sigma1_reference()], E6)
    assert fs.dim == len(fs.fixed_roots) + 6


def test_classify_reference_involutions():
    assert classify_involution(sigma1_reference(), E6) is ConjClass.SIGMA1
    assert classify_involution(sigma2_reference(), E6) is ConjClass.SIGMA2
    assert classify_involution(identity_character(), E6) is ConjClass.IDENTITY


def test_classify_x4_is_sigma2():
    g = GROUPS["x1x2x4"]
    assert classify_involution(g.element("x4"), E6) is ConjClass.SIGMA2


def test_classify_x2x4_is_sigma1():
    g = GROUPS["x1x2x4"]
    assert classify_involution(g.element("x2x4"), E6) is ConjClass.SIGMA1


def test_classify_rejects_higher_order():
    chi = TorusCharacter(3, (1, 0, 0, 0, 0, 0))
    with pytest.raises(PreconditionError):
        classify_involution(chi, E6)


def test_classify_requires_e6():
    with pytest.raises(PreconditionError):
        classify_involution(sigma1_reference(), build_root_system("A", 5))


@pytest.mark.parametrize("family, rank", [("A", 5), ("D", 16)])
def test_a_character_on_another_rank_is_refused(family, rank):
    # its six exponents would be zipped with roots of another length
    sys = build_root_system(family, rank)
    for _ in range(2):  # nothing is kept: the refusal repeats
        with pytest.raises(PreconditionError,
                           match=rf"^the character's exponents do not fit {family}{rank}$"):
            fixed_subalgebra([sigma2_reference()], sys)
    assert fixed_subalgebra([], sys).dim == len(sys.roots) + rank


def test_mu_values():
    g3, g4 = GROUPS["y1y3y4"], GROUPS["y3y4y5"]
    assert mu(g3.element("y1"), E6) == -1
    assert mu(g3.element("y3"), E6) == 1
    assert mu(g3.element("y4"), E6) == 1
    assert mu(g4.element("y5"), E6) == 1
    assert mu(g3.element("y3y4"), E6) == -1
    assert mu(g4.element("y3y4"), E6) == -1
    assert mu(identity_character(), E6) == 1


def test_monotonicity_of_fixed_sets():
    g = GROUPS["x1x4x5"]
    acc = []
    prev = fixed_subalgebra(acc, E6).fixed_roots
    for label in ("x1", "x4", "x5"):
        acc.append(g.element(label))
        cur = fixed_subalgebra(acc, E6).fixed_roots
        assert cur <= prev
        prev = cur


def test_fixed_set_is_intersection_of_single_fixed_sets():
    g = GROUPS["y3y4y5"]
    chars = [c for _, c in g.nonidentity()]
    joint = fixed_subalgebra(chars, E6).fixed_roots
    inter = set(E6.roots)
    for c in chars:
        inter &= fixed_subalgebra([c], E6).fixed_roots
    assert joint == frozenset(inter)


def test_sigma2_membership_in_x_groups():
    # exactly one Cartan-involution representative in x1x2x4, three in x1x4x5
    sys = E6
    g1 = GROUPS["x1x2x4"]
    s2 = {l for l, c in g1.nonidentity()
          if classify_involution(c, sys) is ConjClass.SIGMA2}
    assert s2 == {"x4"}
    g2 = GROUPS["x1x4x5"]
    s2 = {l for l, c in g2.nonidentity()
          if classify_involution(c, sys) is ConjClass.SIGMA2}
    assert s2 == {"x4", "x5", "x4x5"}


def test_sigma2_membership_in_y_groups():
    sys = E6
    g3 = GROUPS["y1y3y4"]
    s2 = {l for l, c in g3.nonidentity()
          if classify_involution(c, sys) is ConjClass.SIGMA2}
    assert s2 == {"y3", "y4", "y1y3y4"}
    g4 = GROUPS["y3y4y5"]
    s2 = {l for l, c in g4.nonidentity()
          if classify_involution(c, sys) is ConjClass.SIGMA2}
    assert s2 == {"y3", "y4", "y5", "y3y5", "y4y5"}


def test_involution_census_over_all_modulus_2_characters():
    chars = [TorusCharacter(2, tuple(exps))
             for exps in product((0, 1), repeat=6) if any(exps)]
    classes = [classify_involution(chi, E6) for chi in chars]
    assert classes.count(ConjClass.SIGMA1) == 36
    assert classes.count(ConjClass.SIGMA2) == 27
    # classify_involution compares with one reference kernel; the other
    # class is what is left, so pin both fixed-root counts here
    fixed = {cls: {len(E6.kernel(chi)) for chi, c in zip(chars, classes) if c is cls}
             for cls in (ConjClass.SIGMA1, ConjClass.SIGMA2)}
    assert fixed == {ConjClass.SIGMA1: {32}, ConjClass.SIGMA2: {40}}


def _brute_kernel(chi):
    return frozenset(r for r in E6.roots if chi.evaluate(r) == 0)


def test_kernel_of_every_modulus_2_character():
    chars = [TorusCharacter(2, tuple(exps))
             for exps in product((0, 1), repeat=6) if any(exps)]
    assert len(chars) == 63
    for chi in chars:
        assert E6.kernel(chi) == _brute_kernel(chi)
        assert E6.kernel(chi) is E6.kernel(chi)


@given(st.lists(st.integers(0, 11), min_size=6, max_size=6), st.sampled_from((4, 12)))
@settings(max_examples=100, deadline=None)
def test_kernel_matches_brute_force(exps, m):
    chi = TorusCharacter(m, tuple(exps))
    assert E6.kernel(chi) == _brute_kernel(chi)


def test_kernel_is_computed_once_per_character(monkeypatch):
    from k4holo import toral
    fresh = build_root_system.__wrapped__("E", 6)
    classify_involution(sigma2_reference(), E6)  # E6's reference kernels
    calls = []
    original = toral.TorusCharacter.evaluate

    def counting(self, root):
        calls.append(self)
        return original(self, root)

    monkeypatch.setattr(toral.TorusCharacter, "evaluate", counting)
    chi = sigma2_reference()
    assert fixed_subalgebra([chi], fresh).dim == 46
    assert classify_involution(chi, fresh) is ConjClass.SIGMA2
    assert fixed_subalgebra([chi, sigma1_reference()], fresh).fixed_roots \
        == fresh.kernel(chi) & fresh.kernel(sigma1_reference())
    assert calls.count(chi) == 72
