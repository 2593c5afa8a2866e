import random

import pytest
from hypothesis import given, settings, strategies as st

from k4holo.errors import PreconditionError
from k4holo.reductive import FixedSubalgebra
from k4holo.rootsys import (MAX_RANK, Root, RootSystem, SubsystemComponent,
                            build_root_system, decompose_closed_subset,
                            _cartan_matrix, _reflect, _validate_closed)
from oracles import ROOT_COUNT, compact_type, is_positive, pairing, reflect


E6 = build_root_system("E", 6)


def negate(r):
    return tuple(-c for c in r)


def subsystem_type(subset):
    """The reductive subalgebra of E6 a closed subset spans with the Cartan
    subalgebra, decomposed through the validating public boundary; its
    centre is the rank its components leave."""
    comps = decompose_closed_subset(subset, E6)
    return FixedSubalgebra(frozenset(subset), comps, E6.rank - sum(c.rank for c in comps))


def weyl_image(subset, word, sys):
    out = set(subset)
    for i in word:
        out = {reflect(sys, r, i) for r in out}
    return out


def test_e6_counts_and_highest_root():
    assert len(E6.roots) == 72
    assert E6.highest_root == (1, 2, 2, 3, 2, 1)


@pytest.mark.parametrize("family,rank,count", [
    ("A", 1, 2), ("A", 2, 6), ("A", 3, 12), ("A", 4, 20), ("A", 5, 30),
    ("D", 4, 24), ("D", 5, 40), ("E", 6, 72), ("A", 16, 272), ("D", 16, 480),
])
def test_root_counts(family, rank, count):
    sys = build_root_system(family, rank)
    assert len(sys.roots) == count


def test_a1_roots():
    sys = build_root_system("A", 1)
    assert sys.roots == frozenset({(1,), (-1,)})


@pytest.mark.parametrize("family,rank", [("E", 6), ("A", 16), ("D", 16)])
def test_roots_have_norm_two_and_coherent_signs(family, rank):
    sys = build_root_system(family, rank)
    for r in sys.roots:
        assert pairing(sys, r, r) == 2
        assert all(c >= 0 for c in r) or all(c <= 0 for c in r)
        assert all(c <= h for c, h in zip(r, sys.highest_root))


@pytest.mark.parametrize("family,rank", [("E", 6), ("A", 16), ("D", 16)])
def test_positive_roots_in_height_value_order(family, rank):
    sys = build_root_system(family, rank)
    pos = sys.positive_roots
    assert set(pos) == {r for r in sys.roots if is_positive(sys, r)}
    assert list(pos) == sorted(pos, key=lambda r: (sum(r), sys.value(r)))
    # the highest root is the one root of greatest height
    assert sys.highest_root == pos[-1]
    assert sum(pos[-2]) < sum(pos[-1])


def test_reflection_closure():
    for r in E6.roots:
        for i in range(6):
            assert _reflect(E6.cartan, r, i) in E6.roots


def test_cartan_matches_bourbaki_e6():
    adjacent = {(1, 3), (3, 4), (2, 4), (4, 5), (5, 6)}
    for i in range(6):
        for j in range(6):
            if i == j:
                assert E6.cartan[i][j] == 2
            else:
                expect = -1 if (min(i, j) + 1, max(i, j) + 1) in adjacent else 0
                assert E6.cartan[i][j] == expect


def test_diagram_flip_symmetry():
    # coordinate swap 1<->6, 3<->5 must preserve the root set
    perm = (5, 1, 4, 3, 2, 0)
    for r in E6.roots:
        assert tuple(r[p] for p in perm) in E6.roots
    for i in range(6):
        for j in range(6):
            assert E6.cartan[perm[i]][perm[j]] == E6.cartan[i][j]


def test_inner_product_examples():
    a1 = E6.simple_roots[0]
    a2 = E6.simple_roots[1]
    a3 = E6.simple_roots[2]
    assert pairing(E6, a1, a1) == 2
    assert pairing(E6, a1, a3) == -1
    assert pairing(E6, a1, a2) == 0


@pytest.mark.parametrize("family,rank", [("B", 3), ("E", 7), ("E", 8), ("D", 3), ("A", 0), ("F", 4),
                                         ("A", MAX_RANK + 1), ("D", MAX_RANK + 1)])
def test_unsupported_types_rejected(family, rank):
    with pytest.raises(PreconditionError):
        build_root_system(family, rank)


@pytest.mark.parametrize("family,rank,message", [
    ("A", 33, r"^A33 is above the largest supported rank 32$"),
    ("D", 33, r"^D33 is above the largest supported rank 32$"),
    ("A", 0, r"^A0 is not a valid type \(need rank >= 1\)$"),
    ("D", 3, r"^D3 is not a valid type here \(need rank >= 4\)$"),
    ("E", 7, r"^E7 is not supported \(only E6\)$"),
    ("B", 3, r"^unsupported family 'B' \(want A, D or E\)$"),
])
def test_unsupported_types_name_the_rule(family, rank, message):
    # Literal ranks: the largest is the documented 32, whatever MAX_RANK holds.
    with pytest.raises(PreconditionError, match=message):
        build_root_system(family, rank)


@pytest.mark.parametrize("family,rank", [("E", 6), ("D", 5), ("A", 4)])
def test_value_is_injective_and_signed_on_sums_of_three_roots(family, rank):
    # value's digits never carry on a sum of at most three roots, so it is
    # injective there, and its sign is that of the last nonzero coordinate.
    sys = build_root_system(family, rank)
    terms = [(0,) * rank, *sys.roots]
    sums = {tuple(map(sum, zip(a, b, c)))
            for i, a in enumerate(terms) for j, b in enumerate(terms[i:], i) for c in terms[j:]}
    values = {sys.value(s): s for s in sums}
    assert len(values) == len(sums)
    for v, s in values.items():
        last = next((c for c in reversed(s) if c), 0)
        assert (v > 0) - (v < 0) == (last > 0) - (last < 0), s


def test_identify_whole_system():
    t = subsystem_type(E6.roots)
    assert compact_type(t) == ((("E", 6),), 0)


def test_identify_alpha2_kernel_is_a5():
    subset = {r for r in E6.roots if r[1] == 0}
    t = subsystem_type(subset)
    assert compact_type(t) == ((("A", 5),), 1)


def test_identify_alpha6_kernel_is_d5():
    subset = {r for r in E6.roots if r[5] == 0}
    t = subsystem_type(subset)
    assert compact_type(t) == ((("D", 5),), 1)


def test_identify_alpha4_kernel():
    subset = {r for r in E6.roots if r[3] == 0}
    t = subsystem_type(subset)
    assert compact_type(t) == ((("A", 2), ("A", 2), ("A", 1)), 1)


def test_identify_empty_subset():
    t = subsystem_type(set())
    assert compact_type(t) == ((), 6)


def test_closure_violations_rejected():
    a1, a3 = E6.simple_roots[0], E6.simple_roots[2]
    with pytest.raises(PreconditionError):
        decompose_closed_subset({a1}, E6)  # missing -a1
    with pytest.raises(PreconditionError):
        # a1 + a3 is a root but absent
        decompose_closed_subset({a1, negate(a1), a3, negate(a3)}, E6)
    with pytest.raises(PreconditionError):
        decompose_closed_subset({(1, 1, 1, 1, 1, 2)}, E6)  # not a root at all


def test_invalid_subset_raises_on_every_call():
    a1, a3 = E6.simple_roots[0], E6.simple_roots[2]
    broken = frozenset({a1, negate(a1), a3, negate(a3)})  # a1 + a3 missing
    for _ in range(2):
        with pytest.raises(PreconditionError):
            decompose_closed_subset(broken, E6)


def test_every_call_validates_and_decomposes(monkeypatch):
    from k4holo import rootsys
    fresh = build_root_system.__wrapped__("E", 6)
    validated, decomposed = [], []
    original_validate = rootsys._validate_closed
    original_decompose = rootsys.RootSystem.decomposition

    def validating(subset, sys):
        validated.append(subset)
        return original_validate(subset, sys)

    def decomposing(sys, subset):
        decomposed.append(subset)
        return original_decompose(sys, subset)

    monkeypatch.setattr(rootsys, "_validate_closed", validating)
    monkeypatch.setattr(rootsys.RootSystem, "decomposition", decomposing)
    subset = [r for r in fresh.roots if r[1] == 0]
    first = decompose_closed_subset(subset, fresh)
    assert decompose_closed_subset(iter(subset), fresh) == first
    assert validated == decomposed == [frozenset(subset)] * 2


def test_sums_from_indexes_sums():
    assert sum(len(pairs) for pairs in E6.sums_from.values()) == 1440
    assert set(E6.sums_from) == E6.roots
    assert all(len(pairs) == 20 for pairs in E6.sums_from.values())
    for a, pairs in E6.sums_from.items():
        assert all(s == tuple(x + y for x, y in zip(a, b)) for b, s in pairs)
        assert len({b for b, _ in pairs}) == len(pairs)


def test_component_counts_match_type():
    subset = {r for r in E6.roots if r[1] == 0}
    comps = decompose_closed_subset(subset, E6)
    assert sum(len(c.roots) for c in comps) == len(subset)
    for c in comps:
        expected = {("A", 5): 30}[(c.family, c.rank)]
        assert len(c.roots) == expected


def closed_subsets_for_tests(count, seed=0):
    """Closed subsets generated as fixed sets of random characters."""
    from k4holo.toral import TorusCharacter
    rng = random.Random(seed)
    subsets = []
    while len(subsets) < count:
        m = rng.choice((2, 2, 3, 4, 6))
        chars = [TorusCharacter(m, tuple(rng.randrange(m) for _ in range(6)))
            for _ in range(rng.randrange(1, 3))]
        subset = frozenset(r for r in E6.roots
                           if all(c.evaluate(r) == 0 for c in chars))
        subsets.append(subset)
    return subsets


def test_identify_weyl_invariance_100_random_closed_subsets():
    rng = random.Random(1)
    for subset in closed_subsets_for_tests(100):
        t = subsystem_type(subset)
        word = [rng.randrange(6) for _ in range(rng.randrange(1, 12))]
        image = weyl_image(subset, word, E6)
        assert compact_type(subsystem_type(image)) == compact_type(t)


def test_identify_negation_invariance():
    for subset in closed_subsets_for_tests(20, seed=3):
        t = subsystem_type(subset)
        assert compact_type(subsystem_type({negate(r) for r in subset})) == compact_type(t)


def test_subset_size_forced_by_type():
    for subset in closed_subsets_for_tests(30, seed=5):
        t = subsystem_type(subset)
        assert len(subset) == sum(ROOT_COUNT[f](r) for f, r in compact_type(t)[0])


def test_reductive_type_render():
    t = subsystem_type({r for r in E6.roots if r[1] == 0})
    assert t.render() == "su(6)+c"
    assert subsystem_type(set()).render() == "6c"
    assert subsystem_type(E6.roots).render() == "e6"


def test_root_tables_are_built_on_first_use():
    fresh = build_root_system.__wrapped__("E", 6)
    assert "sums_from" not in vars(fresh)
    a1 = fresh.simple_roots[0]
    assert len(fresh.sums_from[a1]) == 20
    assert "sums_from" in vars(fresh)
    # sums_from is the system's one pair table: there is no Gram table.
    assert not hasattr(fresh, "gram")


def test_root_tables_match_brute_force():
    for family, rank in (("E", 6), ("D", 5), ("A", 4)):
        sys = build_root_system(family, rank)
        for a in sys.roots:
            # (a, b) is -1 or 1 exactly when a + b or a - b is a root.
            partners = {b for b, _ in sys.sums_from[a]}
            for b in sys.roots:
                rule = (2 if b == a else -2 if b == negate(a) else -1 if b in partners
                        else 1 if negate(b) in partners else 0)
                assert pairing(sys, a, b) == rule
            assert sys.simple_pairings(a) == tuple(pairing(sys, a, s) for s in sys.simple_roots)
        brute = {}
        for a in sys.roots:
            for b in sys.roots:
                s = tuple(x + y for x, y in zip(a, b))
                if s in sys.roots:
                    brute[(a, b)] = s
        assert family != "E" or len(brute) == 1440
        assert {(a, b): s for a, pairs in sys.sums_from.items() for b, s in pairs} == brute


@given(st.lists(st.integers(0, 11), min_size=6, max_size=6),
       st.sampled_from((2, 3, 4, 6, 12)))
@settings(max_examples=60, deadline=None)
def test_extracted_simple_system_is_the_indecomposable_positives(exps, m):
    from k4holo.toral import TorusCharacter
    chi = TorusCharacter(m, tuple(exps))
    subset = frozenset(r for r in E6.roots if chi.evaluate(r) == 0)
    # Reference: a positive root of the subset is simple when it is not the
    # sum of two positive roots of the subset.
    pos = [r for r in subset if is_positive(E6, r)]
    posset = set(pos)
    expected = {s for s in pos
                if not any(tuple(x - y for x, y in zip(s, a)) in posset for a in pos)}
    comps = decompose_closed_subset(subset, E6)
    extracted = [r for c in comps for r in c.simple]
    assert len(extracted) == len(set(extracted))
    assert set(extracted) == expected
    # Each A and D component's simple roots are stored in diagram order.
    for c in (c for c in comps if c.family in ("A", "D")):
        pairings = tuple(tuple(pairing(E6, a, b) for b in c.simple) for a in c.simple)
        assert pairings == _cartan_matrix(c.family, c.rank)


# The decomposition as it was before sums_from became the only pair table:
# simple roots merged into diagram components one at a time, then every root
# assigned to the one component it pairs with.  Kept verbatim, with its
# pairings read through oracles.pairing, as the reference for
# decompose_closed_subset.
def _reference_classify_diagram(simple: list[Root], sys: RootSystem) -> tuple[str, int, tuple[Root, ...]]:
    """Match the diagram of a connected simple system against A/D/E6.

    Also returns the simple roots in diagram order, the node order of
    _cartan_matrix(family, rank): an A path from its smaller end; for D the
    long arm walked in to the branch node, then the two fork leaves.  E6
    roots stay sorted.  The walk starts from the sorted roots, so the order
    does not depend on set iteration.
    """
    simple = sorted(simple)
    k = len(simple)
    if k == 1:
        return ("A", 1, tuple(simple))
    adj = [[j for j in range(k)
            if j != i and pairing(sys, simple[i], simple[j]) != 0]
           for i in range(k)]
    degs = [len(ns) for ns in adj]
    nedges = sum(degs) // 2
    if nedges != k - 1:
        raise AssertionError(
            f"component diagram has {nedges} edges on {k} nodes (not a tree)")
    if max(degs) > 3:
        raise AssertionError("component diagram has a node of degree > 3")

    def walk(prev: int, cur: int) -> list[int]:
        """The leg that leaves prev through cur, out to its end."""
        leg = [cur]
        while nxt := [j for j in adj[cur] if j != prev]:
            prev, cur = cur, nxt[0]
            leg.append(cur)
        return leg

    def ordered(nodes: list[int]) -> tuple[Root, ...]:
        return tuple(simple[i] for i in nodes)

    branches = [i for i in range(k) if degs[i] == 3]
    if not branches:
        end = degs.index(1)
        return ("A", k, ordered([end] + walk(end, adj[end][0])))
    if len(branches) > 1:
        raise AssertionError("component diagram has two branch nodes")
    b = branches[0]
    legs = sorted((walk(b, first) for first in adj[b]), key=len)
    lengths = [len(leg) for leg in legs]
    if lengths[:2] == [1, 1]:
        return ("D", k, ordered(legs[2][::-1] + [b] + legs[0] + legs[1]))
    if lengths == [1, 2, 2]:
        return ("E", 6, tuple(simple))
    raise AssertionError(f"component diagram with legs {lengths} matches no catalog entry")


def _reference_decompose(sset: frozenset[Root], sys: RootSystem) -> tuple[SubsystemComponent, ...]:
    _validate_closed(sset, sys)
    if not sset:
        return ()
    pos = {r for r in sset if is_positive(sys, r)}
    sums_from = sys.sums_from
    decomposable = {s for a in pos for b, s in sums_from[a] if b in pos}
    simple = [s for s in pos if s not in decomposable]

    for a, b in ((x, y) for i, x in enumerate(simple) for y in simple[i + 1:]):
        if pairing(sys, a, b) not in (0, -1):
            raise AssertionError(
                f"extracted simple system is not valid: ({a},{b}) = {pairing(sys, a, b)}")

    # Connected components of the extracted diagram: each simple root
    # merges the components it is joined to.
    groups: list[list[Root]] = []
    for s in simple:
        joined = [g for g in groups if any(pairing(sys, s, t) for t in g)]
        groups = [g for g in groups if g not in joined] + [[s] + sum(joined, [])]

    components = []
    for grp in groups:
        components.append((*_reference_classify_diagram(grp, sys), set()))

    for r in sset:
        homes = [c for c in components if any(pairing(sys, r, s) != 0 for s in c[2])]
        if len(homes) != 1:
            raise AssertionError(
                f"root {r} pairs with {len(homes)} components of its subsystem")
        homes[0][3].add(r)

    out = []
    for family, rank, csimple, croots in components:
        expected = ROOT_COUNT[family](rank)
        if len(croots) != expected:
            raise AssertionError(
                f"{family}{rank} component carries {len(croots)} roots, expected {expected}")
        if len(csimple) != rank:
            raise AssertionError(f"{family}{rank} component has {len(csimple)} simple roots")
        out.append(SubsystemComponent(family=family, simple=csimple, roots=frozenset(croots)))
    out.sort(key=lambda c: (-c.rank, c.family, min(c.roots)))
    return tuple(out)


def _kernel_subset(chars, sys=E6):
    return frozenset(r for r in sys.roots if all(chi.evaluate(r) == 0 for chi in chars))


def _assert_no_simple_difference_is_a_root(comps, sys=E6):
    # _classify_diagram joins two simple roots only when their sum is a
    # root; it relies on their difference never being one (Humphreys 10.1).
    for c in comps:
        for a in c.simple:
            for b in c.simple:
                assert tuple(x - y for x, y in zip(a, b)) not in sys.roots, (a, b)


def test_decomposition_matches_the_reference_on_t2_kernels():
    from k4holo.toral import TorusCharacter
    for n in range(1, 64):
        chi = TorusCharacter(2, tuple(n >> i & 1 for i in range(6)))
        subset = _kernel_subset([chi])
        comps = decompose_closed_subset(subset, E6)
        assert comps == _reference_decompose(subset, E6)
        _assert_no_simple_difference_is_a_root(comps)


def test_decomposition_matches_the_reference_on_classify_all_subsets(monkeypatch):
    from k4holo import rootsys
    from k4holo.pipeline import classify_all
    fresh = build_root_system.__wrapped__("E", 6)
    original = rootsys.RootSystem.decomposition
    decomposed = {}

    def recording(sys, subset):
        decomposed[subset] = original(sys, subset)
        return decomposed[subset]

    monkeypatch.setattr(rootsys.RootSystem, "decomposition", recording)
    classify_all(fresh)
    assert len(decomposed) == 25
    for subset, comps in decomposed.items():
        assert comps == _reference_decompose(subset, fresh)


@pytest.mark.parametrize("family,rank", [("E", 6), ("D", 4), ("D", 5), ("D", 16),
                                         ("A", 1), ("A", 5), ("A", 16)])
def test_decomposition_matches_the_reference_on_full_systems(family, rank):
    sys = build_root_system(family, rank)
    comps = decompose_closed_subset(sys.roots, sys)
    assert [(c.family, c.rank) for c in comps] == [(family, rank)]
    assert comps == _reference_decompose(sys.roots, sys)


@given(st.lists(st.tuples(st.sampled_from((2, 3, 4, 6, 12)),
                          st.lists(st.integers(0, 11), min_size=6, max_size=6)),
                min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_decomposition_matches_the_reference_on_kernel_intersections(specs):
    from k4holo.toral import TorusCharacter
    subset = _kernel_subset([TorusCharacter(m, tuple(exps)) for m, exps in specs])
    # The reference validates the subset and keeps the checks the
    # decomposition dropped, so this also shows kernel intersections are
    # closed and negation-symmetric, which fixed_subalgebra relies on to
    # skip validation.
    expected = _reference_decompose(subset, E6)
    assert decompose_closed_subset(subset, E6) == expected
    assert E6.decomposition(subset) == expected
    _assert_no_simple_difference_is_a_root(expected)
