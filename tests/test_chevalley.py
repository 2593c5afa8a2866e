import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from k4holo.chevalley import (_cocycle, build_chevalley_basis, check_antisymmetry, check_jacobi,
                              export_n_table, killing_form)
from k4holo.rootsys import build_root_system
from k4holo.toral import TorusCharacter
from oracles import bracket, n, pairing

E6 = build_root_system("E", 6)
SC = build_chevalley_basis(E6)


def neg(r):
    return tuple(-c for c in r)


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def n_map(sc):
    """N(a, b) read through oracles.n for every pair in sums_from, in its order."""
    return {(a, b): n(sc, a, b) for a, pairs in sc.sys.sums_from.items() for b, _ in pairs}


N_E6 = n_map(SC)


def bracket_keys(sc, k1, k2):
    """[k1, k2] of two basis elements as a sparse vector."""
    return bracket(sc, {k1: 1}, {k2: 1})


def test_coroot_normalisation():
    # [X_a, X_-a] = H_a in coroot coordinates, for every root
    for r in E6.roots:
        h = bracket_keys(SC, ("x", r), ("x", neg(r)))
        assert h == {("h", i): c for i, c in enumerate(r) if c}


def test_basis_lists_the_positive_roots_in_stored_order():
    assert SC.basis[:6] == tuple(("h", i) for i in range(6))
    assert SC.basis[6:42] == tuple(("x", r) for r in E6.positive_roots)


def test_nonadjacent_simple_roots_commute():
    a1, a2 = E6.simple_roots[0], E6.simple_roots[1]
    assert bracket_keys(SC, ("x", a1), ("x", a2)) == {}


def test_adjacent_simple_constant_is_unit():
    a1, a3 = E6.simple_roots[0], E6.simple_roots[2]
    assert abs(n(SC, a1, a3)) == 1
    # a3 - a1 is not a root, so the root string forces |N| = p + 1 = 1
    assert add(a3, neg(a1)) not in E6.roots


def test_all_constants_are_units():
    for (a, b), v in N_E6.items():
        assert v in (1, -1)
        assert add(a, b) in E6.roots


def test_n_is_zero_off_the_root_sums():
    roots = sorted(E6.roots)
    for a in roots:
        assert n(SC, a, neg(a)) == 0
        for b in roots:
            if add(a, b) not in E6.roots:
                assert n(SC, a, b) == 0
    assert sum(1 for a in roots for b in roots if n(SC, a, b)) == len(N_E6) == 1440


def test_antisymmetry_everywhere():
    for (a, b), v in N_E6.items():
        assert N_E6[(b, a)] == -v
    for k1, k2 in combinations(SC.basis, 2):
        left = bracket_keys(SC, k1, k2)
        right = bracket_keys(SC, k2, k1)
        assert left == {k: -c for k, c in right.items()}


def _four_term_positive_pairs(sys):
    """N(a, b) for all pairs of positive roots a, b with a + b a root, by the
    extraspecial-pair recursion (Carter, Simple Groups of Lie Type, 4.2).

    Both orders of each pair are keyed, N(b, a) = -N(a, b).  Each sum's
    extraspecial pair has its first member earliest in the (height, value)
    order of sys.positive_roots and takes N = +1; every other split
    (alpha, beta) of the sum follows from the four-term relation for
    alpha + beta + (-alpha1) + (-beta1) = 0.  Sums are processed by
    increasing height, so every constant the relation refers to is already
    known.  The relation never degenerates: simply laced gives
    (alpha, alpha1) + (alpha, beta1) = (alpha, alpha + beta) = 1, so
    exactly one of alpha - alpha1 and beta1 - alpha is a root, positive as
    alpha1 comes before alpha and alpha before beta: one of t2, t3 is +-1,
    the other 0.
    """
    pos = sys.positive_roots
    rank = {r: i for i, r in enumerate(pos)}
    splits = {}
    for a in pos:
        for b, gamma in sys.sums_from[a]:
            if b in rank and rank[a] < rank[b]:
                splits.setdefault(gamma, []).append((a, b))
    table = {}
    for gamma in pos:
        pairs = sorted(splits.get(gamma, ()), key=lambda p: rank[p[0]])
        if not pairs:
            continue
        alpha1, beta1 = pairs[0]
        table[(alpha1, beta1)], table[(beta1, alpha1)] = 1, -1
        for alpha, beta in pairs[1:]:
            d1 = sub(beta1, alpha)
            d2 = sub(beta, alpha1)
            t2 = table[(alpha, d1)] * table[(alpha1, d2)] \
                if d1 in rank and d2 in rank else 0
            d3 = sub(alpha, alpha1)
            d4 = sub(beta1, beta)
            t3 = -table[(alpha1, d3)] * table[(beta, d4)] \
                if d3 in rank and d4 in rank else 0
            table[(alpha, beta)], table[(beta, alpha)] = t2 + t3, -(t2 + t3)
    return table


def _reference_n_table(sys):
    """N(a, b) for every ordered pair with a + b a root, each constant reduced
    recursively to the four-term positive-pair table by the opposite-pair
    rule, antisymmetry and the rotation rule (x + y + z = 0: N(x, y) =
    N(y, z) = N(z, x)).  Shares no sign code with k4holo.chevalley."""
    npos = _four_term_positive_pairs(sys)
    posset = set(sys.positive_roots)

    def n_any(a, b):
        apos, bpos = a in posset, b in posset
        if apos and bpos:
            return npos[(a, b)]
        if not apos and not bpos:
            return -n_any(neg(a), neg(b))
        if not apos:
            return -n_any(b, a)
        c = add(a, b)
        if c in posset:
            return -npos[(neg(b), c)]
        return npos[(neg(c), a)]

    return {(a, b): n_any(a, b) for a, pairs in sys.sums_from.items() for b, _ in pairs}


@pytest.mark.parametrize("family, rank", [
    ("E", 6), ("A", 1), ("A", 3), ("A", 5), ("A", 8), ("A", 16), ("D", 4), ("D", 5), ("D", 8),
    ("D", 16)])
def test_n_table_matches_the_recursive_rule(family, rank):
    sys = build_root_system(family, rank)
    sc = build_chevalley_basis(sys)
    n_table = n_map(sc)
    reference = _reference_n_table(sys)
    assert n_table == reference
    assert list(n_table) == list(reference)
    # the dump is the reference table, rendered in sorted pair order
    text = {r: ",".join(map(str, r)) for r in sys.roots}
    assert export_n_table(sc) == "\n".join(f"{text[a]} {text[b]} {reference[(a, b)]}"
                                           for a, b in sorted(reference)) + "\n"
    for (a, b), v in n_table.items():
        assert v in (1, -1)
        assert n_table[(b, a)] == -v
        minus_c = neg(add(a, b))
        assert v == n_table[(b, minus_c)] == n_table[(minus_c, a)]


@pytest.mark.parametrize("family, rank", [("E", 6), ("D", 5), ("A", 5)])
def test_cocycle_identities(family, rank):
    # eps(a, a) = -1 and eps(a, b) eps(b, a) = (-1)^((a, b)) on every pair of
    # roots, and eps is multiplicative in its first argument on root sums
    sys = build_root_system(family, rank)
    eps = _cocycle(sys)
    roots = sorted(sys.roots)
    for a in roots:
        assert eps(a, a) == -1
        for b in roots:
            assert eps(a, b) * eps(b, a) == (-1) ** (pairing(sys, a, b) % 2)
    for a, pairs in sys.sums_from.items():
        for b, s in pairs:
            for c in roots:
                assert eps(s, c) == eps(a, c) * eps(b, c)


def test_opposite_pair_rule():
    for (a, b), v in N_E6.items():
        assert N_E6[(neg(a), neg(b))] == -v


def test_cartan_acts_diagonally():
    for i in range(6):
        for r in list(E6.roots)[:20]:
            out = bracket_keys(SC, ("h", i), ("x", r))
            c = pairing(E6, r, E6.simple_roots[i])
            assert out == ({("x", r): c} if c else {})


def test_jacobi_on_cartan_triples():
    # triples with two Cartan elements vanish termwise
    for i, j in combinations(range(6), 2):
        for r in list(E6.roots)[:10]:
            a, b, c = {("h", i): 1}, {("h", j): 1}, {("x", r): 1}
            s1 = bracket(SC, bracket(SC, a, b), c)
            s2 = bracket(SC, bracket(SC, b, c), a)
            s3 = bracket(SC, bracket(SC, c, a), b)
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
        s1 = bracket(SC, bracket(SC, x, y), z)
        s2 = bracket(SC, bracket(SC, y, z), x)
        s3 = bracket(SC, bracket(SC, z, x), y)
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


def _with_rows(sc, rows):
    """Copy of sc with the given bracket rows, frozen to tuples."""
    return sc._replace(btable=tuple(map(tuple, rows)))


def _with_flipped_sign(sc, a, b):
    """Copy of sc with N(a, b) and N(b, a) negated in its bracket table."""
    rows = [list(row) for row in sc.btable]
    for x, y in ((a, b), (b, a)):
        i, j = sc.index[("x", x)], sc.index[("x", y)]
        rows[i][j] = tuple((p, -c) for p, c in rows[i][j])
    return _with_rows(sc, rows)


def _with_moved_term(sc, i, j, p):
    """Copy of sc whose [b_i, b_j] has its first term moved onto b_p (one order only)."""
    rows = [list(row) for row in sc.btable]
    (_, c), *rest = rows[i][j]
    rows[i][j] = ((p, c), *rest)
    return _with_rows(sc, rows)


def _reference_jacobi(sc):
    """The full sweep: the Jacobi sum of every unordered triple, nothing skipped."""
    rows = sc.btable
    bad = []
    for i, j, k in combinations(range(len(sc.basis)), 3):
        acc = {}
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for m, c in rows[x][y]:
                for p, c2 in rows[m][z]:
                    acc[p] = acc.get(p, 0) + c * c2
        if any(acc.values()):
            bad.append((sc.basis[i], sc.basis[j], sc.basis[k]))
    return tuple(bad)


def _weight(key):
    return key[1] if key[0] == "x" else (0,) * 6


def _weight_sum_is_root_or_zero(triple):
    total = tuple(map(sum, zip(*map(_weight, triple))))
    return total in E6.roots or not any(total)


def _jacobiator(sc, x, y, z):
    x, y, z = {x: 1}, {y: 1}, {z: 1}
    total = {}
    for term in (bracket(sc, bracket(sc, x, y), z), bracket(sc, bracket(sc, y, z), x),
                 bracket(sc, bracket(sc, z, x), y)):
        for k, v in term.items():
            total[k] = total.get(k, 0) + v
    return {k: v for k, v in total.items() if v}


# pairs (a, b) of positive roots, a before b in positive_roots, with a + b a root;
# the first is (alpha_1, alpha_3)
SUMMABLE_PAIRS = [(a, b) for i, a in enumerate(E6.positive_roots)
                  for b in E6.positive_roots[i + 1:] if add(a, b) in E6.roots]


@pytest.mark.parametrize("pair", [0, 1, 3, 10])
def test_jacobi_check_fails_on_one_flipped_sign(pair):
    a, b = SUMMABLE_PAIRS[pair]
    assert SUMMABLE_PAIRS[0] == (E6.simple_roots[0], E6.simple_roots[2])
    broken = _with_flipped_sign(SC, a, b)
    assert n(broken, a, b) == -n(SC, a, b) and n(broken, b, a) == -n(SC, b, a)
    rep = check_jacobi(broken)
    assert not rep.ok
    assert rep.triples_checked == 76076
    # every violation is reported, as the full sweep finds them
    assert rep.violations == _reference_jacobi(broken)
    assert rep.first_violation == rep.violations[0]
    positions = [tuple(broken.index[k] for k in triple) for triple in rep.violations]
    assert all(i < j < k for i, j, k in positions)
    assert positions == sorted(positions)
    for triple in rep.violations:
        assert _jacobiator(broken, *triple)
        assert not _jacobiator(SC, *triple)


def test_jacobi_sweeps_an_ungraded_table_triple_by_triple():
    # [X_a1, X_a3] = N X_(a1+a3) moved onto X_a1, a basis element of the wrong weight
    a1, a3 = E6.simple_roots[0], E6.simple_roots[2]
    i, j = SC.index[("x", a1)], SC.index[("x", a3)]
    broken = _with_moved_term(SC, i, j, i)
    rep = check_jacobi(broken)
    assert rep.triples_checked == 76076
    assert rep.violations == _reference_jacobi(broken)
    assert len(rep.violations) == 43
    # some violations lie where a graded table's sum would be empty
    assert not all(map(_weight_sum_is_root_or_zero, rep.violations))


def test_graded_table_skips_only_triples_of_other_weight():
    skipped = [t for t in combinations(SC.basis, 3) if not _weight_sum_is_root_or_zero(t)]
    assert len(skipped) == 76076 - 14876
    assert all(not _jacobiator(SC, *t) for t in skipped[::97])


@pytest.mark.parametrize("family, rank", [("E", 6), ("D", 5), ("A", 4)])
def test_weight_encoding_is_injective_on_triple_sums(family, rank):
    from itertools import combinations_with_replacement
    from k4holo.chevalley import _weights
    sc = build_chevalley_basis(build_root_system(family, rank))
    w = _weights(sc)
    assert w[:rank] == (0,) * rank
    # one h (weight 0) and every root vector, in threes with repetition
    vectors = [(0,) * rank] + [key[1] for key in sc.basis[rank:]]
    codes = w[rank - 1:]
    seen = {}
    for triple in combinations_with_replacement(range(len(vectors)), 3):
        vec = tuple(map(sum, zip(*(vectors[t] for t in triple))))
        assert seen.setdefault(sum(codes[t] for t in triple), vec) == vec


_NONEMPTY = [(i, j) for i, row in enumerate(SC.btable) for j, terms in enumerate(row) if terms]
# flip negates an entry, move puts its first term on another basis element
# (which usually leaves the table ungraded), and repeat adds its first term
# once more, which keeps it graded, so the graded sweep is compared too.
_EDIT = st.one_of(
    st.tuples(st.just("flip"), st.sampled_from(_NONEMPTY)),
    st.tuples(st.just("move"), st.sampled_from(_NONEMPTY), st.integers(0, len(SC.basis) - 1)),
    st.tuples(st.just("repeat"), st.sampled_from(_NONEMPTY)))


_A1_A3 = (SC.index[("x", E6.simple_roots[0])], SC.index[("x", E6.simple_roots[2])])


# Each example sweeps all 76,076 triples twice (about 0.1 s), so examples are few.
@settings(max_examples=10, deadline=None)
@given(st.lists(_EDIT, min_size=1, max_size=3))
@example([("repeat", _A1_A3)])
def test_jacobi_matches_the_full_sweep_on_corrupted_tables(edits):
    rows = [list(row) for row in SC.btable]
    for kind, (i, j), *p in edits:
        if kind == "flip":
            rows[i][j] = tuple((q, -c) for q, c in rows[i][j])
        elif kind == "repeat":
            rows[i][j] = rows[i][j] + rows[i][j][:1]
        else:
            (_, c), *rest = rows[i][j]
            rows[i][j] = ((p[0], c), *rest)
    broken = _with_rows(SC, rows)
    rep = check_jacobi(broken)
    assert rep.triples_checked == 76076
    assert rep.violations == _reference_jacobi(broken)


@pytest.mark.parametrize("corrupt", ["flip", "move", "drop", "cartan", "repeat", "repeat_back"])
def test_antisymmetry_check_fails_on_one_entry(corrupt):
    assert check_antisymmetry(SC)
    a1, a3 = E6.simple_roots[0], E6.simple_roots[2]
    i, j = SC.index[("x", a1)], SC.index[("x", a3)]
    rows = [list(row) for row in SC.btable]
    if corrupt == "flip":
        rows[i][j] = tuple((p, -c) for p, c in rows[i][j])
    elif corrupt == "move":
        rows[j][i] = ((i, rows[j][i][0][1]),)
    elif corrupt == "drop":
        rows[i][j] = ()
    elif corrupt == "repeat":
        # the one term of [X_a1, X_a3] listed twice, which every reader adds
        rows[i][j] = rows[i][j] * 2
        assert n(_with_rows(SC, rows), a1, a3) == 2 * n(SC, a1, a3)
    elif corrupt == "repeat_back":
        rows[j][i] = rows[j][i] * 2
    else:
        h = SC.index[("h", 2)]
        rows[h][i] = tuple((p, 2 * c) for p, c in rows[h][i])
    broken = _with_rows(SC, rows)
    assert sum(e != f for r, s in zip(broken.btable, SC.btable) for e, f in zip(r, s)) == 1
    assert not check_antisymmetry(broken)


def test_killing_cartan_value():
    # independent oracle: sum over all roots of the pairing squared
    direct = sum(pairing(E6, r, E6.simple_roots[0]) ** 2 for r in E6.roots)
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
        ab = bracket_keys(SC, a, b)
        bc = bracket_keys(SC, b, c)
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
    assert len(text.splitlines()) == len(N_E6)
    line = text.splitlines()[0].split()
    assert len(line) == 3 and line[2] in ("1", "-1")


def test_fixed_sets_are_bracket_closed():
    # spans of the Cartan plus the fixed root vectors close under bracket
    rng = random.Random(3)
    for _ in range(50):
        m = rng.choice((2, 3, 4, 6))
        chars = [TorusCharacter(m, tuple(rng.randrange(m) for _ in range(6)))
            for _ in range(rng.randrange(1, 4))]
        fixed = {r for r in E6.roots
                 if all(c.evaluate(r) == 0 for c in chars)}
        span = {("h", i) for i in range(6)} | {("x", r) for r in fixed}
        for a in fixed:
            for b in fixed:
                out = bracket_keys(SC, ("x", a), ("x", b))
                assert set(out) <= span
