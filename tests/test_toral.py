import json
import random

import pytest

from k4holo import cli
from k4holo.errors import PreconditionError
from k4holo.pipeline import GROUP_NAMES, builtin_groups
from k4holo.rootsys import build_root_system
from k4holo.toral import TorusCharacter, embed_su6_sp1, generate_group, identity_character

E6 = build_root_system("E", 6)

SIGMA1 = TorusCharacter(4, (0, 2, 0, 0, 0, 0))
SIGMA2 = TorusCharacter(4, (2, 0, 0, 0, 0, 2))


def fixed_count(chi):
    return sum(1 for r in E6.roots if chi.evaluate(r) == 0)


def brute_force_order(chi):
    from math import lcm
    orders = []
    for r in E6.roots:
        e = chi.evaluate(r)
        from math import gcd
        orders.append(chi.modulus // gcd(chi.modulus, e) if e else 1)
    return lcm(*orders)


def test_identity_character():
    e = identity_character()
    assert e.order == 1
    assert all(e.evaluate(r) == 0 for r in E6.roots)


def test_canonicalisation():
    assert SIGMA1 == TorusCharacter(2, (0, 1, 0, 0, 0, 0))
    assert SIGMA1.modulus == 2
    assert TorusCharacter(12, (0, 0, 0, 0, 0, 0)) == identity_character()


def test_sigma1_values_are_alpha2_parity():
    for r in E6.roots:
        assert SIGMA1.evaluate(r) == r[1] % 2


def test_sigma2_values():
    for r in E6.roots:
        assert SIGMA2.evaluate(r) == (r[0] + r[5]) % 2


def test_involution_squares_to_identity():
    assert SIGMA1 * SIGMA1 == identity_character()
    assert SIGMA1.order == 2


def test_multiply_with_identity():
    chi = TorusCharacter(6, (1, 2, 3, 0, 1, 5))
    assert chi * identity_character() == chi


def test_multiply_lifts_moduli():
    a = TorusCharacter(2, (1, 0, 0, 0, 0, 0))
    b = TorusCharacter(3, (1, 0, 0, 0, 0, 0))
    c = a * b
    assert c.order == 6
    assert c.evaluate(E6.simple_roots[0]) == 5


def test_evaluate_sigma1_on_highest_root():
    # alpha2 coefficient of the highest root is 2, hence value 1
    assert SIGMA1.evaluate(E6.highest_root) == 0


def test_order_matches_brute_force():
    rng = random.Random(0)
    for _ in range(50):
        m = rng.choice((2, 3, 4, 6, 12))
        chi = TorusCharacter(m, tuple(rng.randrange(m) for _ in range(6)))
        assert chi.order == brute_force_order(chi)


def test_homomorphism_law_exhaustive():
    rng = random.Random(1)
    chars = [TorusCharacter(12, tuple(rng.randrange(12) for _ in range(6))) for _ in range(5)]
    for chi in chars:
        for a in E6.roots:
            for b in E6.roots:
                s = tuple(x + y for x, y in zip(a, b))
                if s in E6.roots:
                    assert chi.evaluate(s) == (chi.evaluate(a) + chi.evaluate(b)) % chi.modulus


def test_embed_identity_pair():
    chi = embed_su6_sp1(4, (0,) * 6, 0)
    assert chi == identity_character()


def test_embed_sigma1_generator():
    # (I6, -1) is the reference involution with 32 fixed roots (dim 38)
    chi = embed_su6_sp1(4, (0,) * 6, 2)
    assert chi == SIGMA1
    assert fixed_count(chi) == 32
    assert all((chi.evaluate(r) == 0) == (r[1] % 2 == 0) for r in E6.roots)


def test_embed_x4_has_fixed_dimension_46():
    chi = embed_su6_sp1(4, (2, 2, 0, 2, 2, 0), 0)
    assert fixed_count(chi) + 6 == 46


def test_embed_center_acts_trivially():
    # scalar cube root of unity, and the (-I6, -1) flip
    m = 12
    cube = embed_su6_sp1(m, (4,) * 6, 0)
    assert cube == identity_character()
    rng = random.Random(2)
    for _ in range(20):
        d = [rng.randrange(m) for _ in range(5)]
        d.append((-sum(d)) % m)
        y = rng.randrange(m)
        base = embed_su6_sp1(m, tuple(d), y)
        shifted = embed_su6_sp1(m, tuple((x + 6) % m for x in d), (y + 6) % m)
        cubed = embed_su6_sp1(m, tuple((x + 4) % m for x in d), y)
        assert base == shifted == cubed


def test_embed_is_homomorphism():
    m = 12
    rng = random.Random(3)
    for _ in range(20):
        d1 = [rng.randrange(m) for _ in range(5)]
        d1.append((-sum(d1)) % m)
        d2 = [rng.randrange(m) for _ in range(5)]
        d2.append((-sum(d2)) % m)
        y1, y2 = rng.randrange(m), rng.randrange(m)
        u = embed_su6_sp1(m, tuple(d1), y1)
        v = embed_su6_sp1(m, tuple(d2), y2)
        uv = embed_su6_sp1(m, tuple((a + b) % m for a, b in zip(d1, d2)), (y1 + y2) % m)
        assert u * v == uv


def test_embed_highest_root_value_is_2y():
    m = 12
    rng = random.Random(4)
    for _ in range(30):
        d = [rng.randrange(m) for _ in range(5)]
        d.append((-sum(d)) % m)
        y = rng.randrange(m)
        chi = embed_su6_sp1(m, tuple(d), y)
        lifted = chi.evaluate(E6.highest_root) * (m // chi.modulus)
        assert lifted % m == (2 * y) % m


def test_embed_rejects_determinant_violation():
    with pytest.raises(PreconditionError):
        embed_su6_sp1(4, (1, 0, 0, 0, 0, 0), 0)


def test_embed_su6_sp1_reduces_and_validates():
    assert embed_su6_sp1(4, (6, -2, 0, 2, 2, 0), 5) == embed_su6_sp1(4, (2, 2, 0, 2, 2, 0), 1)
    assert embed_su6_sp1(1, (5, 0, 0, 0, 0, 0), 3) == identity_character()
    with pytest.raises(PreconditionError, match=r"^modulus must be >= 1$"):
        embed_su6_sp1(0, (0,) * 6, 0)
    with pytest.raises(PreconditionError, match=r"^diagonal needs 6 exponents$"):
        embed_su6_sp1(4, (0,) * 5, 0)
    with pytest.raises(PreconditionError, match=r"^determinant violation: diagonal exponents "
                                              r"\[1, 0, 0, 0, 0, 0\] do not sum to 0 mod 4$"):
        embed_su6_sp1(4, (5, 0, 0, 0, 0, 0), 0)


def test_generate_group_single_involution():
    g = generate_group([("s", SIGMA1)], "s")
    assert g.order == 2 and g.rank == 1
    assert g.element("s") == SIGMA1
    assert g.element("1") == identity_character()
    with pytest.raises(PreconditionError, match=r"^group s has no element 'nope'$"):
        g.element("nope")


def test_generate_group_rejects_identity_generator():
    with pytest.raises(PreconditionError):
        generate_group([("s", SIGMA1), ("e", identity_character())])


def test_generate_group_rank3_labels():
    x1 = embed_su6_sp1(4, (0,) * 6, 2)
    x1x4 = embed_su6_sp1(4, (2, 2, 0, 0, 0, 0), 0)
    x5 = embed_su6_sp1(4, (2, 2, 2, 2, 0, 0), 0)
    g = generate_group([("x1", x1), ("x4", x1 * x1x4), ("x5", x5)], "x1x4x5")
    assert g.order == 8 and g.rank == 3
    assert g.element("x1x4") == x1x4
    assert set(g.labels) == {"1", "x1", "x4", "x5", "x1x4", "x1x5", "x4x5", "x1x4x5"}


def test_generate_group_rejects_dependent_base():
    a = embed_su6_sp1(4, (0,) * 6, 2)            # x1 of x1x2x4
    b = embed_su6_sp1(4, (1, 1, 1, 3, 3, 3), 1)  # x2 of x1x2x4
    with pytest.raises(PreconditionError, match=r"^base names \['a', 'b', 'c'\] do not give "
                       r"8 distinct elements and 8 distinct words$"):
        generate_group([("a", a), ("b", b), ("c", a * b)])


def test_generate_group_rejects_a_word_that_names_two_elements():
    x1x2x4 = builtin_groups()["x1x2x4"]
    a, b, c = (x1x2x4.element(label) for label in ("x1", "x2", "x4"))
    with pytest.raises(PreconditionError):
        generate_group([("a", a), ("b", b), ("ab", c)])


def test_builtin_groups_label_each_element_once_in_report_order(capsys):
    assert cli.main(["theorem24", "--format", "json"]) == 0
    elements = {g["name"]: g["elements"] for g in json.loads(capsys.readouterr().out)["groups"]}
    groups = builtin_groups()
    for name in GROUP_NAMES:
        labels = groups[name].labels
        assert len(labels) == groups[name].order == 8
        assert list(labels) == elements[name]


def test_pipeline_reexports_the_builtin_groups():
    from k4holo import pipeline, toral
    assert pipeline.builtin_groups is toral.builtin_groups
    assert pipeline.GROUP_NAMES is toral.GROUP_NAMES


def test_generate_group_rejects_higher_order():
    for order in (3, 4):
        chi = TorusCharacter(order, (1, 0, 0, 0, 0, 0))
        with pytest.raises(PreconditionError, match=f"^generator 'bad' has order {order} > 2;"):
            generate_group([("bad", chi)])
