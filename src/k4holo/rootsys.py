"""Simply laced root systems over exact integer coordinates.

Roots are integer coefficient vectors in the simple-root basis.  The
bilinear form is normalised so that every root has squared length 2; for a
simply laced Cartan matrix A that is just (a, b) = a.A.b, so inner products
are plain integer sums.  Generation is by reflection closure from the
simple roots, and arbitrary closed subsets are recognised by extracting a
simple system and matching its diagram against the A/D/E6 catalog.

Roots have one integer encoding, value(root), whose digits never carry on
sums of up to three roots; it orders the positive roots and grades the
Chevalley bracket table.  A RootSystem keeps one pair table, built on first
use: sums_from[a] = [(b, a + b), ...] over the ordered pairs whose sum is a
root, so listing roots never pays for |roots|^2 pairs.  It is read off the
root codes: value is injective on a + b, so a + b is a root exactly when
value(a) + value(b) is the code of a root.  sums_from is indexed by its
first root, so a scan over a subset S costs about |S| * 20 pairs in E6
instead of all 1,440.  Pairings need no table of their own: a root's
pairings with the simple roots are the Cartan matrix times the root
(simple_pairings), and for roots of squared length 2, (a, b) is -1 or 1
exactly when a + b or a - b is a root (Humphreys, Introduction to Lie
Algebras and Representation Theory, 9.4), which is how subsystems are
split and their diagrams drawn.  The system also keeps, per character, its
kernel (the roots it fixes) and, per closed subset, its decomposition, so
the classification derives each of them once.

ReductiveType.render and the real forms of realform spell their sums
through one renderer, render_summands.

Node numbering is fixed once and for all: the E6 diagram is the chain
1-3-4-5-6 with node 2 attached to node 4, which makes the diagram flip
exchange nodes 1<->6 and 3<->5 while fixing 2 and 4.  No floating point is
used anywhere in this module (or this package).
"""
from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import groupby
from operator import mul
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import ConfigurationError, InternalConsistencyError, PreconditionError

if TYPE_CHECKING:
    from .toral import TorusCharacter

Root = tuple[int, ...]

_E6_EDGES = ((1, 3), (3, 4), (2, 4), (4, 5), (5, 6))

# Largest accepted rank: the reflection closure grows faster than rank**3,
# and D32 already takes about half a second.
MAX_RANK = 32

# Root counts of the recognisable types, used to cross-check decompositions.
_ROOT_COUNT = {
    "A": lambda r: r * (r + 1),
    "D": lambda r: 2 * r * (r - 1),
    "E": lambda r: 72,
}

# Compact real form of each recognisable type.
_COMPACT_NAME = {
    "A": lambda r: f"su({r + 1})",
    "D": lambda r: f"so({2 * r})",
    "E": lambda r: f"e{r}",
}


def _cartan_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    if rank > MAX_RANK:
        raise ConfigurationError(f"{family}{rank} is above the largest supported rank {MAX_RANK}")
    if family == "A":
        if rank < 1:
            raise ConfigurationError(f"A{rank} is not a valid type (need rank >= 1)")
        edges = [(i, i + 1) for i in range(1, rank)]
    elif family == "D":
        if rank < 4:
            raise ConfigurationError(f"D{rank} is not a valid type here (need rank >= 4)")
        edges = [(i, i + 1) for i in range(1, rank - 1)]
        edges.append((rank - 2, rank))
    elif family == "E":
        if rank != 6:
            raise ConfigurationError(f"E{rank} is not supported (only E6)")
        edges = list(_E6_EDGES)
    else:
        raise ConfigurationError(f"unsupported family {family!r} (want A, D or E)")
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        a[i - 1][j - 1] = -1
        a[j - 1][i - 1] = -1
    return tuple(tuple(row) for row in a)


def _pairing(cartan: Sequence[Sequence[int]], a: Sequence[int], b: Sequence[int]) -> int:
    """Bilinear form (a, b) = a.A.b for the Cartan matrix A."""
    return sum(map(mul, a, [sum(map(mul, row, b)) for row in cartan]))


def _reflect(cartan: Sequence[Sequence[int]], v: Sequence[int], i: int) -> Root:
    """Simple reflection s_i of a lattice vector for the Cartan matrix A."""
    out = list(v)
    out[i] -= sum(map(mul, v, cartan[i]))
    return tuple(out)


def render_summands(names: Sequence[str], center: int, center_name: str = "c") -> str:
    """The one spelling of a reductive algebra as a sum: the simple ideals'
    names in order, then center centre lines named center_name ("c", or
    "so(2)" for survey output), runs of equal summands collapsed:
    (['su(2)', 'su(2)'], 1) -> '2su(2)+c'.  The empty sum is '0'."""
    parts = []
    for name, run in groupby([*names, *[center_name] * center]):
        count = len(list(run))
        parts.append(name if count == 1 else f"{count}{name}")
    return "+".join(parts) or "0"


class RootSystem(NamedTuple("RootSystem", [
        ("family", str), ("rank", int), ("cartan", tuple[tuple[int, ...], ...]),
        ("roots", frozenset[Root]), ("simple_roots", tuple[Root, ...]),
        ("positive_roots", tuple[Root, ...]), ("highest_root", Root),
        ("weights", tuple[int, ...])])):
    """A root system with read-only fields.  Unlike the plain records it has
    an instance __dict__, which holds the tables below once built."""

    @property
    def label(self) -> str:
        return f"{self.family}{self.rank}"

    def pairing(self, a: Sequence[int], b: Sequence[int]) -> int:
        """Bilinear form (a, b) = a.A.b for arbitrary lattice vectors."""
        return _pairing(self.cartan, a, b)

    def simple_pairings(self, root: Sequence[int]) -> tuple[int, ...]:
        """(root, alpha_i) for each simple root alpha_i: the simple roots are
        the unit vectors, so this is the (symmetric) Cartan matrix times root."""
        return tuple(sum(map(mul, row, root)) for row in self.cartan)

    @cached_property
    def sums_from(self) -> dict[Root, list[tuple[Root, Root]]]:
        """a + b for every ordered pair of roots whose sum is a root, indexed
        by the first root: sums_from[a] = [(b, a + b), ...]; built on first use.

        Read off the root codes: value is injective on sums of two roots, so
        a + b is a root exactly when value(a) + value(b) is the code of a
        root, and then it is that root.
        """
        value = self.value
        codes = {r: value(r) for r in self.roots}
        root_of = {c: r for r, c in codes.items()}
        return {a: [(b, s) for b, cb in codes.items() if (s := root_of.get(ca + cb))]
                for a, ca in codes.items()}

    @cached_property
    def _kernels(self) -> dict[TorusCharacter, frozenset[Root]]:
        return {}

    @cached_property
    def _decompositions(self) -> dict[frozenset[Root], tuple[SubsystemComponent, ...]]:
        return {}

    def kernel(self, chi: TorusCharacter) -> frozenset[Root]:
        """Roots fixed by a torus character (where chi.evaluate is 0).

        Computed on first use for each character and kept.
        """
        fixed = self._kernels.get(chi)
        if fixed is None:
            fixed = self._kernels[chi] = frozenset(r for r in self.roots
                                                   if chi.evaluate(r) == 0)
        return fixed

    def value(self, root: Sequence[int]) -> int:
        """Generic positivity functional: the coordinates as digits of one int.

        The base exceeds 6 * m, m the largest coefficient of the highest
        root, and each coordinate of a sum of at most three roots lies
        within 3 * m of 0, so no digit carries: value is injective on such
        sums, and its sign is that of the last nonzero coordinate.
        """
        return sum(map(mul, root, self.weights))

    def is_positive(self, root: Sequence[int]) -> bool:
        return self.value(root) > 0

    def height(self, root: Sequence[int]) -> int:
        return sum(root)


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Generate the full root system of the given simply laced type.

    Starts from the simple roots (unit coordinate vectors) and closes
    under all simple reflections.  The result is validated: expected root
    count, squared length 2 throughout, sign-coherent coefficients, and a
    unique coefficient-dominant highest root.
    """
    cartan = _cartan_matrix(family, rank)
    simple = tuple(tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank))
    roots: set[Root] = set(simple)
    frontier = list(simple)
    while frontier:
        v = frontier.pop()
        for i in range(rank):
            w = _reflect(cartan, v, i)
            if w not in roots:
                roots.add(w)
                frontier.append(w)

    expected = _ROOT_COUNT[family](rank)
    if len(roots) != expected:
        raise InternalConsistencyError(
            f"{family}{rank}: generated {len(roots)} roots, expected {expected}")

    for r in roots:
        if _pairing(cartan, r, r) != 2:
            raise InternalConsistencyError(
                f"root {r} has squared length {_pairing(cartan, r, r)}")
        if not (all(c >= 0 for c in r) or all(c <= 0 for c in r)):
            raise InternalConsistencyError(f"root {r} has mixed-sign coefficients")

    # Roots are sign-coherent, so this is the highest root's largest coefficient.
    maxc = max(abs(c) for r in roots for c in r)
    base = 6 * maxc + 1
    weights = tuple(base ** i for i in range(rank))
    positive = tuple(sorted((r for r in roots if sum(c * w for c, w in zip(r, weights)) > 0),
                            key=lambda r: sum(c * w for c, w in zip(r, weights))))
    highest = positive[-1]
    for r in roots:
        if any(c > h for c, h in zip(r, highest)):
            raise InternalConsistencyError(
                f"highest root {highest} does not dominate {r}")

    return RootSystem(family=family, rank=rank, cartan=cartan,
                      roots=frozenset(roots), simple_roots=simple,
                      positive_roots=positive, highest_root=highest,
                      weights=weights)


class SubsystemComponent(NamedTuple):
    """One irreducible component of a closed root subsystem.

    For A and D, simple is in diagram order: its Gram matrix is
    _cartan_matrix(family, rank).
    """
    family: str
    rank: int
    simple: tuple[Root, ...]
    roots: frozenset[Root]


class ReductiveType(NamedTuple):
    """Isomorphism type of a reductive subalgebra: simple parts + centre."""
    components: tuple[tuple[str, int], ...]
    center_dim: int

    @property
    def dim(self) -> int:
        total = self.center_dim
        for family, rank in self.components:
            total += _ROOT_COUNT[family](rank) + rank
        return total

    def render(self) -> str:
        """Canonical compact-form spelling, e.g. 'su(4)+2su(2)+c'."""
        return render_summands([_COMPACT_NAME[family](rank) for family, rank in self.components],
                               self.center_dim)


def _component_sort_key(comp: tuple[str, int]) -> tuple:
    family, rank = comp
    return (-rank, family)


def _validate_closed(subset: frozenset[Root], sys: RootSystem) -> None:
    for r in subset:
        if r not in sys.roots:
            raise PreconditionError(f"{r} is not a root of {sys.label}")
        neg = tuple(-c for c in r)
        if neg not in subset:
            raise PreconditionError(f"subset is not negation-symmetric at {r}")
    sums_from = sys.sums_from
    for a in subset:
        for b, s in sums_from[a]:
            if b in subset and s not in subset:
                raise PreconditionError(
                    f"subset is not closed: {a} + {b} = {s} is a root outside it")


def _classify_diagram(simple: list[Root], sys: RootSystem) -> tuple[str, int, tuple[Root, ...]]:
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
    # Two roots are joined when they pair to -1 or 1: their sum or their
    # difference is a root.
    negs = [tuple(-c for c in r) for r in simple]
    partners = [{b for b, _ in sys.sums_from[a]} for a in simple]
    adj = [[j for j in range(k) if simple[j] in ps or negs[j] in ps] for ps in partners]
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


def decompose_closed_subset(subset: Iterable[Root], sys: RootSystem) -> tuple[SubsystemComponent, ...]:
    """Split a closed, negation-symmetric subset into irreducible subsystems.

    One scan of sums_from over the positives of the generic functional
    splits them: a, b and a + b lie in one irreducible component, and roots
    of different components are orthogonal, so no sum joins two of them.
    The positives that are no sum of two positives of the subset form a
    simple system; each component's simple roots are stored in diagram
    order (see _classify_diagram), and its negative roots follow its
    positive ones.

    Each distinct subset is validated and decomposed once per system; a
    subset that fails validation is not kept, so it raises on every call.
    """
    sset = frozenset(subset)
    known = sys._decompositions.get(sset)
    if known is None:
        known = sys._decompositions[sset] = _decompose(sset, sys)
    return known


def _decompose(sset: frozenset[Root], sys: RootSystem) -> tuple[SubsystemComponent, ...]:
    _validate_closed(sset, sys)
    pos = {r for r in sset if sys.is_positive(r)}
    sums_from = sys.sums_from
    # comp[r] is the set of positives merged with r so far, shared by all of
    # them.  Each a + b merges a with the sum, and b when the scan reaches b.
    comp = {r: {r} for r in pos}
    decomposable = set()
    for a in pos:
        for b, s in sums_from[a]:
            if b in pos:
                decomposable.add(s)
                if comp[s] is not comp[a]:
                    merged = comp[a] | comp[s]
                    for r in merged:
                        comp[r] = merged
    simple = {s for s in pos if s not in decomposable}

    # In a simple system no difference of two simple roots is a root.
    for a in simple:
        for _, s in sums_from[a]:
            if s in simple:
                raise InternalConsistencyError(
                    f"extracted simple system is not valid: {s} - {a} is a root")

    out = []
    for cpos in {id(c): c for c in comp.values()}.values():  # each component once
        family, rank, csimple = _classify_diagram([r for r in cpos if r in simple], sys)
        croots = frozenset(cpos | {tuple(-c for c in r) for r in cpos})
        expected = _ROOT_COUNT[family](rank)
        if len(croots) != expected:
            raise InternalConsistencyError(
                f"{family}{rank} component carries {len(croots)} roots, expected {expected}")
        out.append(SubsystemComponent(family=family, rank=rank, simple=csimple, roots=croots))
    out.sort(key=lambda c: (_component_sort_key((c.family, c.rank)), min(c.roots)))
    return tuple(out)


def identify_subsystem(subset: Iterable[Root], sys: RootSystem) -> ReductiveType:
    """Name the reductive type of a closed root subset."""
    return reductive_type(decompose_closed_subset(subset, sys), sys)


def reductive_type(comps: Iterable[SubsystemComponent], sys: RootSystem) -> ReductiveType:
    """Reductive type of a subsystem given by its irreducible components.

    The centre dimension is the ambient rank minus the sum of component
    ranks, i.e. the directions of the Cartan subalgebra not spanned by
    the subsystem's coroots.
    """
    labels = sorted(((c.family, c.rank) for c in comps), key=_component_sort_key)
    center = sys.rank - sum(rank for _, rank in labels)
    if center < 0:
        raise InternalConsistencyError("component ranks exceed ambient rank")
    return ReductiveType(components=tuple(labels), center_dim=center)
