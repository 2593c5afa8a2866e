import random

import pytest
from hypothesis import given, settings, strategies as st

from k4holo.errors import ConfigurationError, InternalConsistencyError, PreconditionError
from k4holo.rootsys import (MAX_RANK, _ROOT_COUNT, Root, RootSystem, SubsystemComponent,
                            build_root_system, decompose_closed_subset, identify_subsystem,
                            _cartan_matrix, _classify_diagram, _component_sort_key, _reflect,
                            _validate_closed)


E6 = build_root_system("E", 6)


def negate(r):
    return tuple(-c for c in r)


def weyl_image(subset, word, sys):
    out = set(subset)
    for i in word:
        out = {_reflect(sys.cartan, r, i) for r in out}
    return out


def test_e6_counts_and_highest_root():
    assert len(E6.roots) == 72
    assert E6.highest_root == (1, 2, 2, 3, 2, 1)


@pytest.mark.parametrize("family,rank,count", [
    ("A", 1, 2), ("A", 2, 6), ("A", 3, 12), ("A", 4, 20), ("A", 5, 30),
    ("D", 4, 24), ("D", 5, 40), ("E", 6, 72),
])
def test_root_counts(family, rank, count):
    sys = build_root_system(family, rank)
    assert len(sys.roots) == count


def test_a1_roots():
    sys = build_root_system("A", 1)
    assert sys.roots == frozenset({(1,), (-1,)})


def test_roots_have_norm_two_and_coherent_signs():
    for r in E6.roots:
        assert E6.pairing(r, r) == 2
        assert all(c >= 0 for c in r) or all(c <= 0 for c in r)


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
    assert E6.pairing(a1, a1) == 2
    assert E6.pairing(a1, a3) == -1
    assert E6.pairing(a1, a2) == 0


@pytest.mark.parametrize("family,rank", [("B", 3), ("E", 7), ("E", 8), ("D", 3), ("A", 0), ("F", 4),
                                         ("A", MAX_RANK + 1), ("D", MAX_RANK + 1)])
def test_unsupported_types_rejected(family, rank):
    with pytest.raises(ConfigurationError):
        build_root_system(family, rank)


def test_identify_whole_system():
    t = identify_subsystem(E6.roots, E6)
    assert t.components == (("E", 6),)
    assert t.center_dim == 0


def test_identify_alpha2_kernel_is_a5():
    subset = {r for r in E6.roots if r[1] == 0}
    t = identify_subsystem(subset, E6)
    assert t.components == (("A", 5),)
    assert t.center_dim == 1


def test_identify_alpha6_kernel_is_d5():
    subset = {r for r in E6.roots if r[5] == 0}
    t = identify_subsystem(subset, E6)
    assert t.components == (("D", 5),)
    assert t.center_dim == 1


def test_identify_alpha4_kernel():
    subset = {r for r in E6.roots if r[3] == 0}
    t = identify_subsystem(subset, E6)
    assert t.components == (("A", 2), ("A", 2), ("A", 1))
    assert t.center_dim == 1


def test_identify_empty_subset():
    t = identify_subsystem(set(), E6)
    assert t.components == ()
    assert t.center_dim == 6


def test_closure_violations_rejected():
    a1, a3 = E6.simple_roots[0], E6.simple_roots[2]
    with pytest.raises(PreconditionError):
        identify_subsystem({a1}, E6)  # missing -a1
    with pytest.raises(PreconditionError):
        # a1 + a3 is a root but absent
        identify_subsystem({a1, negate(a1), a3, negate(a3)}, E6)
    with pytest.raises(PreconditionError):
        identify_subsystem({(1, 1, 1, 1, 1, 2)}, E6)  # not a root at all


def test_invalid_subset_raises_on_every_call():
    a1, a3 = E6.simple_roots[0], E6.simple_roots[2]
    broken = frozenset({a1, negate(a1), a3, negate(a3)})  # a1 + a3 missing
    for _ in range(2):
        with pytest.raises(PreconditionError):
            decompose_closed_subset(broken, E6)
    assert broken not in E6._decompositions


def test_each_subset_is_decomposed_once(monkeypatch):
    from k4holo import rootsys
    fresh = build_root_system.__wrapped__("E", 6)
    validated = []
    original = rootsys._validate_closed

    def counting(subset, sys):
        validated.append(subset)
        return original(subset, sys)

    monkeypatch.setattr(rootsys, "_validate_closed", counting)
    subset = [r for r in fresh.roots if r[1] == 0]
    first = decompose_closed_subset(subset, fresh)
    assert decompose_closed_subset(iter(subset), fresh) is first
    assert len(validated) == 1


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


def test_catalog_rejects_cycles():
    # a triangle of mutually adjacent "simple roots" is no valid diagram;
    # feed the classifier a synthetic cycle via three A2 roots
    a1, a3 = E6.simple_roots[0], E6.simple_roots[2]
    s = tuple(x + y for x, y in zip(a1, a3))
    with pytest.raises(InternalConsistencyError):
        _classify_diagram([a1, a3, negate(s)], E6)


def closed_subsets_for_tests(count, seed=0):
    """Closed subsets generated as fixed sets of random characters."""
    from k4holo.toral import character_from_simple_values
    rng = random.Random(seed)
    subsets = []
    while len(subsets) < count:
        m = rng.choice((2, 2, 3, 4, 6))
        chars = [character_from_simple_values(
            tuple(rng.randrange(m) for _ in range(6)), m)
            for _ in range(rng.randrange(1, 3))]
        subset = frozenset(r for r in E6.roots
                           if all(c.evaluate(r) == 0 for c in chars))
        subsets.append(subset)
    return subsets


def test_identify_weyl_invariance_100_random_closed_subsets():
    rng = random.Random(1)
    for subset in closed_subsets_for_tests(100):
        t = identify_subsystem(subset, E6)
        word = [rng.randrange(6) for _ in range(rng.randrange(1, 12))]
        image = weyl_image(subset, word, E6)
        assert identify_subsystem(image, E6) == t


def test_identify_negation_invariance():
    for subset in closed_subsets_for_tests(20, seed=3):
        t = identify_subsystem(subset, E6)
        assert identify_subsystem({negate(r) for r in subset}, E6) == t


def test_subset_size_forced_by_type():
    sizes = {"A": lambda r: r * (r + 1), "D": lambda r: 2 * r * (r - 1),
             "E": lambda r: 72}
    for subset in closed_subsets_for_tests(30, seed=5):
        t = identify_subsystem(subset, E6)
        assert len(subset) == sum(sizes[f](r) for f, r in t.components)


def test_reductive_type_render():
    t = identify_subsystem({r for r in E6.roots if r[1] == 0}, E6)
    assert t.render() == "su(6)+c"
    assert identify_subsystem(set(), E6).render() == "6c"
    assert identify_subsystem(E6.roots, E6).render() == "e6"


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
                assert sys.pairing(a, b) == rule
            assert sys.simple_pairings(a) == tuple(sys.pairing(a, s) for s in sys.simple_roots)
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
    from k4holo.toral import character_from_simple_values
    chi = character_from_simple_values(exps, m)
    subset = frozenset(r for r in E6.roots if chi.evaluate(r) == 0)
    # Reference: a positive root of the subset is simple when it is not the
    # sum of two positive roots of the subset.
    pos = [r for r in subset if E6.is_positive(r)]
    posset = set(pos)
    expected = {s for s in pos
                if not any(tuple(x - y for x, y in zip(s, a)) in posset for a in pos)}
    comps = decompose_closed_subset(subset, E6)
    extracted = [r for c in comps for r in c.simple]
    assert len(extracted) == len(set(extracted))
    assert set(extracted) == expected
    # Each A and D component's simple roots are stored in diagram order.
    for c in (c for c in comps if c.family in ("A", "D")):
        pairings = tuple(tuple(E6.pairing(a, b) for b in c.simple) for a in c.simple)
        assert pairings == _cartan_matrix(c.family, c.rank)


# The decomposition as it was before sums_from became the only pair table:
# simple roots merged into diagram components one at a time, then every root
# assigned to the one component it pairs with.  Kept verbatim, with its
# pairings read through RootSystem.pairing, as the oracle for
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
            if j != i and sys.pairing(simple[i], simple[j]) != 0]
           for i in range(k)]
    degs = [len(ns) for ns in adj]
    nedges = sum(degs) // 2
    if nedges != k - 1:
        raise InternalConsistencyError(
            f"component diagram has {nedges} edges on {k} nodes (not a tree)")
    if max(degs) > 3:
        raise InternalConsistencyError("component diagram has a node of degree > 3")

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
        raise InternalConsistencyError("component diagram has two branch nodes")
    b = branches[0]
    legs = sorted((walk(b, first) for first in adj[b]), key=len)
    lengths = [len(leg) for leg in legs]
    if lengths[:2] == [1, 1]:
        return ("D", k, ordered(legs[2][::-1] + [b] + legs[0] + legs[1]))
    if lengths == [1, 2, 2]:
        return ("E", 6, tuple(simple))
    raise InternalConsistencyError(f"component diagram with legs {lengths} matches no catalog entry")


def _reference_decompose(sset: frozenset[Root], sys: RootSystem) -> tuple[SubsystemComponent, ...]:
    _validate_closed(sset, sys)
    if not sset:
        return ()
    pos = {r for r in sset if sys.is_positive(r)}
    sums_from = sys.sums_from
    decomposable = {s for a in pos for b, s in sums_from[a] if b in pos}
    simple = [s for s in pos if s not in decomposable]

    for a, b in ((x, y) for i, x in enumerate(simple) for y in simple[i + 1:]):
        if sys.pairing(a, b) not in (0, -1):
            raise InternalConsistencyError(
                f"extracted simple system is not valid: ({a},{b}) = {sys.pairing(a, b)}")

    # Connected components of the extracted diagram: each simple root
    # merges the components it is joined to.
    groups: list[list[Root]] = []
    for s in simple:
        joined = [g for g in groups if any(sys.pairing(s, t) for t in g)]
        groups = [g for g in groups if g not in joined] + [[s] + sum(joined, [])]

    components = []
    for grp in groups:
        components.append((*_reference_classify_diagram(grp, sys), set()))

    for r in sset:
        homes = [c for c in components if any(sys.pairing(r, s) != 0 for s in c[2])]
        if len(homes) != 1:
            raise InternalConsistencyError(
                f"root {r} pairs with {len(homes)} components of its subsystem")
        homes[0][3].add(r)

    out = []
    for family, rank, csimple, croots in components:
        expected = _ROOT_COUNT[family](rank)
        if len(croots) != expected:
            raise InternalConsistencyError(
                f"{family}{rank} component carries {len(croots)} roots, expected {expected}")
        out.append(SubsystemComponent(family=family, rank=rank, simple=csimple,
                                      roots=frozenset(croots)))
    out.sort(key=lambda c: (_component_sort_key((c.family, c.rank)), min(c.roots)))
    return tuple(out)


def _kernel_subset(chars, sys=E6):
    return frozenset(r for r in sys.roots if all(chi.evaluate(r) == 0 for chi in chars))


def test_decomposition_matches_the_reference_on_t2_kernels():
    from k4holo.toral import TorusCharacter
    for n in range(1, 64):
        chi = TorusCharacter(2, tuple(n >> i & 1 for i in range(6)))
        subset = _kernel_subset([chi])
        assert decompose_closed_subset(subset, E6) == _reference_decompose(subset, E6)


def test_decomposition_matches_the_reference_on_classify_all_subsets():
    from k4holo.pipeline import classify_all
    fresh = build_root_system.__wrapped__("E", 6)
    classify_all(fresh)
    assert len(fresh._decompositions) > 1
    for subset, comps in fresh._decompositions.items():
        assert comps == _reference_decompose(subset, fresh)


@pytest.mark.parametrize("family,rank", [("E", 6), ("D", 5), ("A", 5)])
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
    from k4holo.toral import character_from_simple_values
    subset = _kernel_subset([character_from_simple_values(exps, m) for m, exps in specs])
    assert decompose_closed_subset(subset, E6) == _reference_decompose(subset, E6)
