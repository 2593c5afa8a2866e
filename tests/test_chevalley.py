import random
from itertools import combinations

import pytest

from k4holo.chevalley import (StructureConstants, build_chevalley_basis, check_jacobi,
                              export_n_table, killing_form)
from k4holo.rootsys import build_root_system
from k4holo.toral import character_from_simple_values

E6 = build_root_system("E", 6)
SC = build_chevalley_basis(E6)


def neg(r):
    return tuple(-c for c in r)


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def test_coroot_normalisation():
    # [X_a, X_-a] = H_a in coroot coordinates, for every root
    for r in E6.roots:
        h = SC.bracket_basis(("x", r), ("x", neg(r)))
        assert h == {("h", i): c for i, c in enumerate(r) if c}


def test_nonadjacent_simple_roots_commute():
    a1, a2 = E6.simple_roots[0], E6.simple_roots[1]
    assert SC.bracket_basis(("x", a1), ("x", a2)) == {}


def test_adjacent_simple_constant_is_unit():
    a1, a3 = E6.simple_roots[0], E6.simple_roots[2]
    assert abs(SC.n(a1, a3)) == 1
    # a3 - a1 is not a root, so the root string forces |N| = p + 1 = 1
    assert add(a3, neg(a1)) not in E6.roots


def test_all_constants_are_units():
    for (a, b), v in SC.n_table.items():
        assert v in (1, -1)
        assert add(a, b) in E6.roots


def test_antisymmetry_everywhere():
    for (a, b), v in SC.n_table.items():
        assert SC.n_table[(b, a)] == -v
    for k1, k2 in combinations(SC.basis, 2):
        left = SC.bracket_basis(k1, k2)
        right = SC.bracket_basis(k2, k1)
        assert left == {k: -c for k, c in right.items()}


def test_opposite_pair_rule():
    for (a, b), v in SC.n_table.items():
        assert SC.n_table[(neg(a), neg(b))] == -v


def test_cartan_acts_diagonally():
    for i in range(6):
        for r in list(E6.roots)[:20]:
            out = SC.bracket_basis(("h", i), ("x", r))
            c = E6.pairing(r, E6.simple_roots[i])
            assert out == ({("x", r): c} if c else {})


def test_jacobi_on_cartan_triples():
    # triples with two Cartan elements vanish termwise
    for i, j in combinations(range(6), 2):
        for r in list(E6.roots)[:10]:
            a, b, c = {("h", i): 1}, {("h", j): 1}, {("x", r): 1}
            s1 = SC.bracket(SC.bracket(a, b), c)
            s2 = SC.bracket(SC.bracket(b, c), a)
            s3 = SC.bracket(SC.bracket(c, a), b)
            total = {}
            for term in (s1, s2, s3):
                for k, v in term.items():
                    total[k] = total.get(k, 0) + v
            assert not any(total.values())


def test_jacobi_on_opposite_root_triples():
    rng = random.Random(0)
    roots = sorted(E6.roots)
    for _ in range(200):
        a = rng.choice(roots)
        b = rng.choice(roots)
        x, y, z = {("x", a): 1}, {("x", neg(a)): 1}, {("x", b): 1}
        s1 = SC.bracket(SC.bracket(x, y), z)
        s2 = SC.bracket(SC.bracket(y, z), x)
        s3 = SC.bracket(SC.bracket(z, x), y)
        total = {}
        for term in (s1, s2, s3):
            for k, v in term.items():
                total[k] = total.get(k, 0) + v
        assert not any(total.values())


def test_jacobi_report_shape():
    rep = check_jacobi(SC)
    assert rep.ok
    assert rep.first_violation is None
    assert rep.triples_checked == 78 * 77 * 76 // 6


def _with_flipped_sign(sc, a, b):
    """Copy of sc with N(a, b) and N(b, a) negated in both of its tables."""
    n_table, btable = dict(sc.n_table), dict(sc._btable)
    for x, y in ((a, b), (b, a)):
        n_table[(x, y)] = -n_table[(x, y)]
        key = (sc.index(("x", x)), sc.index(("x", y)))
        btable[key] = tuple((i, -c) for i, c in btable[key])
    return StructureConstants(sc.sys, sc.pos_order, n_table, sc.basis, sc._index, btable)


def _jacobiator(sc, x, y, z):
    x, y, z = {x: 1}, {y: 1}, {z: 1}
    total = {}
    for term in (sc.bracket(sc.bracket(x, y), z), sc.bracket(sc.bracket(y, z), x),
                 sc.bracket(sc.bracket(z, x), y)):
        for k, v in term.items():
            total[k] = total.get(k, 0) + v
    return {k: v for k, v in total.items() if v}


@pytest.mark.parametrize("limit", [1, 3, 10])
def test_jacobi_check_fails_on_one_flipped_sign(limit):
    a1, a3 = E6.simple_roots[0], E6.simple_roots[2]
    broken = _with_flipped_sign(SC, a1, a3)
    assert broken.n(a1, a3) == -SC.n(a1, a3) and broken.n(a3, a1) == -SC.n(a3, a1)
    rep = check_jacobi(broken, limit=limit)
    assert not rep.ok
    assert rep.triples_checked == 76076
    assert 1 <= len(rep.violations) <= limit
    assert rep.first_violation == rep.violations[0]
    positions = [tuple(broken.index(k) for k in triple) for triple in rep.violations]
    assert all(i < j < k for i, j, k in positions)
    assert positions == sorted(positions)
    for triple in rep.violations:
        assert _jacobiator(broken, *triple)
        assert not _jacobiator(SC, *triple)


def test_killing_cartan_value():
    # independent oracle: sum over all roots of the pairing squared
    direct = sum(E6.pairing(r, E6.simple_roots[0]) ** 2 for r in E6.roots)
    assert direct == 48
    assert killing_form(SC, ("h", 0), ("h", 0)) == 48


def test_killing_root_pairs():
    for r in sorted(E6.roots)[:12]:
        assert killing_form(SC, ("x", r), ("x", neg(r))) == 24


def test_killing_vanishes_off_weight_zero():
    roots = sorted(E6.roots)
    rng = random.Random(1)
    for _ in range(100):
        a, b = rng.choice(roots), rng.choice(roots)
        if add(a, b) != (0,) * 6:
            assert killing_form(SC, ("x", a), ("x", b)) == 0
        assert killing_form(SC, ("h", rng.randrange(6)), ("x", a)) == 0


def test_killing_symmetric_and_invariant():
    rng = random.Random(2)
    keys = list(SC.basis)
    for _ in range(40):
        k1, k2 = rng.choice(keys), rng.choice(keys)
        assert killing_form(SC, k1, k2) == killing_form(SC, k2, k1)
    # invariance kappa([a,b],c) = kappa(a,[b,c]) on sampled triples
    for _ in range(40):
        a, b, c = (rng.choice(keys) for _ in range(3))
        ab = SC.bracket_basis(a, b)
        bc = SC.bracket_basis(b, c)
        left = sum(coeff * killing_form(SC, k, c) for k, coeff in ab.items())
        right = sum(coeff * killing_form(SC, a, k) for k, coeff in bc.items())
        assert left == right


def test_killing_nondegenerate_on_cartan():
    from fractions import Fraction
    # kappa restricted to the Cartan is 24 * the Gram matrix; integer
    # elimination of the 6x6 block shows full rank
    mat = [[Fraction(killing_form(SC, ("h", i), ("h", j))) for j in range(6)]
           for i in range(6)]
    rank = 0
    for col in range(6):
        piv = next((r for r in range(rank, 6) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(6):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col] / mat[rank][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    assert rank == 6


def test_n_table_export_is_deterministic():
    text = export_n_table(SC)
    again = export_n_table(build_chevalley_basis(E6))
    assert text == again
    assert len(text.splitlines()) == len(SC.n_table)
    line = text.splitlines()[0].split()
    assert len(line) == 3 and line[2] in ("1", "-1")


def test_fixed_sets_are_bracket_closed():
    # spans of the Cartan plus the fixed root vectors close under bracket
    rng = random.Random(3)
    for _ in range(50):
        m = rng.choice((2, 3, 4, 6))
        chars = [character_from_simple_values(
            tuple(rng.randrange(m) for _ in range(6)), m)
            for _ in range(rng.randrange(1, 4))]
        fixed = {r for r in E6.roots
                 if all(c.evaluate(r) == 0 for c in chars)}
        span = {("h", i) for i in range(6)} | {("x", r) for r in fixed}
        for a in fixed:
            for b in fixed:
                out = SC.bracket_basis(("x", a), ("x", b))
                assert set(out) <= span
