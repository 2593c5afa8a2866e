"""Simply laced root systems over exact integer coordinates.

Roots are integer coefficient vectors in the simple-root basis.  The
bilinear form is normalised so that every root has squared length 2; for a
simply laced Cartan matrix A that is just (a, b) = a.A.b, so inner products
are plain integer sums.  Generation is by reflection closure from the
simple roots, and arbitrary closed subsets are recognised by extracting a
simple system and matching its diagram against the A/D/E6 catalog.

Roots have one integer encoding, value(root), whose digits never carry on
sums of up to three roots; it breaks height ties in the one order of the
positive roots, (height, value), and grades the Chevalley bracket table.  A RootSystem keeps one pair table, built on first
use: sums_from[a] = [(b, a + b), ...] over the ordered pairs whose sum is a
root, so listing roots never pays for |roots|^2 pairs.  It is read off the
root codes: value is injective on a + b, so a + b is a root exactly when
value(a) + value(b) is the code of a root.  sums_from is indexed by its
first root, so a scan over a subset S costs about |S| * 20 pairs in E6
instead of all 1,440.  Pairings need no table of their own: a root's
pairings with the simple roots are the Cartan matrix times the root
(simple_pairings), and for roots of squared length 2, (a, b) is -1 exactly
when a + b is a root (Humphreys, Introduction to Lie Algebras and
Representation Theory, 9.4), which is how subsystems are split and their
diagrams drawn.  The system also keeps, per character, its kernel (the
roots it fixes), so the classification derives each kernel once.  It keeps
no decomposition: each call decomposes its subset afresh.

reductive.FixedSubalgebra.render and the real forms of realform spell their
sums through render_summands and their compact simple ideals through
compact_name.

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

from .errors import PreconditionError

if TYPE_CHECKING:
    from .toral import TorusCharacter

Root = tuple[int, ...]

_E6_EDGES = ((1, 3), (3, 4), (2, 4), (4, 5), (5, 6))

# Largest accepted rank: the reflection closure grows faster than rank**3,
# and D32 already takes about half a second.
MAX_RANK = 32


def _cartan_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    if rank > MAX_RANK:
        raise PreconditionError(f"{family}{rank} is above the largest supported rank {MAX_RANK}")
    if family == "A":
        if rank < 1:
            raise PreconditionError(f"A{rank} is not a valid type (need rank >= 1)")
        edges = [(i, i + 1) for i in range(1, rank)]
    elif family == "D":
        if rank < 4:
            raise PreconditionError(f"D{rank} is not a valid type here (need rank >= 4)")
        edges = [(i, i + 1) for i in range(1, rank - 1)]
        edges.append((rank - 2, rank))
    elif family == "E":
        if rank != 6:
            raise PreconditionError(f"E{rank} is not supported (only E6)")
        edges = list(_E6_EDGES)
    else:
        raise PreconditionError(f"unsupported family {family!r} (want A, D or E)")
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        a[i - 1][j - 1] = -1
        a[j - 1][i - 1] = -1
    return tuple(tuple(row) for row in a)


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


def compact_name(family: str, rank: int) -> str:
    """The one spelling of a compact simple ideal: su(n + 1), so(2n) or e6."""
    if family == "A":
        return f"su({rank + 1})"
    if family == "D":
        return f"so({2 * rank})"
    return f"e{rank}"


class RootSystem(NamedTuple("RootSystem", [
        ("family", str), ("rank", int), ("cartan", tuple[tuple[int, ...], ...]),
        ("roots", frozenset[Root]), ("simple_roots", tuple[Root, ...]),
        ("positive_roots", tuple[Root, ...]), ("weights", tuple[int, ...])])):
    """A root system with read-only fields; positive_roots is in (height,
    value) order.  Unlike the plain records it has an instance __dict__,
    which holds the tables below once built."""

    @property
    def label(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def highest_root(self) -> Root:
        """The only root of greatest height (Humphreys 10.4, Lemma A), so the
        last positive root in (height, value) order."""
        return self.positive_roots[-1]

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

    def kernel(self, chi: TorusCharacter) -> frozenset[Root]:
        """Roots fixed by a torus character (where chi.evaluate is 0).

        Computed on first use for each character and kept.
        """
        fixed = self._kernels.get(chi)
        if fixed is None:
            if len(chi.exps) != self.rank:
                raise PreconditionError(f"the character's exponents do not fit {self.label}")
            fixed = self._kernels[chi] = frozenset(r for r in self.roots
                                                   if chi.evaluate(r) == 0)
        return fixed

    def decomposition(self, sset: frozenset[Root]) -> tuple[SubsystemComponent, ...]:
        """Irreducible components of a subset that is closed and
        negation-symmetric by construction, such as an intersection of
        kernels.  Not validated (decompose_closed_subset validates) and
        not kept.

        One scan of sums_from over the positives of the generic functional
        splits them: a, b and a + b lie in one irreducible component, and
        roots of different components are orthogonal, so no sum joins two
        of them.  The positives that are no sum of two positives of the
        subset form a simple system; each component's simple roots are
        stored in diagram order (see _classify_diagram), and its negative
        roots follow its positive ones.
        """
        pos = {r for r in sset if self.value(r) > 0}
        sums_from = self.sums_from
        # comp[r] is the set of positives merged with r so far, shared by all
        # of them.  Each a + b merges a with the sum, and b when the scan
        # reaches b.
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

        out = []
        for cpos in {id(c): c for c in comp.values()}.values():  # each component once
            family, csimple = _classify_diagram([r for r in cpos if r in simple], self)
            croots = frozenset(cpos | {tuple(-c for c in r) for r in cpos})
            out.append(SubsystemComponent(family=family, simple=csimple, roots=croots))
        out.sort(key=lambda c: (-c.rank, c.family, min(c.roots)))
        return tuple(out)

    def value(self, root: Sequence[int]) -> int:
        """Generic positivity functional: the coordinates as digits of one int.

        The base exceeds 6 * m, m the largest coefficient of the highest
        root, and each coordinate of a sum of at most three roots lies
        within 3 * m of 0, so no digit carries: value is injective on such
        sums, and its sign is that of the last nonzero coordinate.
        """
        return sum(map(mul, root, self.weights))


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Generate the full root system of the given simply laced type.

    Starts from the simple roots (unit coordinate vectors) and closes
    under all simple reflections.  Nothing is re-checked, as nothing can
    fail (Humphreys): every root is W-conjugate to a simple one (10.3), so
    every root is reached, each of squared length 2 as W keeps the form;
    roots are sign-coherent (10.1).  selftest and the tests certify the
    result.
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

    # Roots are sign-coherent (Humphreys 10.1): this is the highest root's largest coefficient.
    maxc = max(abs(c) for r in roots for c in r)
    base = 6 * maxc + 1
    weights = tuple(base ** i for i in range(rank))
    positive = tuple(sorted((r for r in roots if sum(c * w for c, w in zip(r, weights)) > 0),
                            key=lambda r: (sum(r), sum(c * w for c, w in zip(r, weights)))))
    return RootSystem(family=family, rank=rank, cartan=cartan,
                      roots=frozenset(roots), simple_roots=simple,
                      positive_roots=positive, weights=weights)


class SubsystemComponent(NamedTuple):
    """One irreducible component of a closed root subsystem.

    For A and D, simple is in diagram order: its Gram matrix is
    _cartan_matrix(family, rank).
    """
    family: str
    simple: tuple[Root, ...]
    roots: frozenset[Root]

    @property
    def rank(self) -> int:
        return len(self.simple)


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


def _classify_diagram(simple: list[Root], sys: RootSystem) -> tuple[str, tuple[Root, ...]]:
    """Match the diagram of a connected simple system against A/D/E6: its
    family, whose rank is the number of simple roots.

    Also returns the simple roots in diagram order, the node order of
    _cartan_matrix(family, rank): an A path from its smaller end; for D the
    long arm walked in to the branch node, then the two fork leaves.  E6
    roots stay sorted.  The walk starts from the sorted roots, so the order
    does not depend on set iteration.

    Nothing is checked, as nothing can fail: the indecomposable positives
    of a closed subsystem form a base of it (Humphreys 10.1), so a
    component's diagram is a connected simply laced Dynkin diagram, a tree
    with at most one branch node of degree 3.  E7 and E8 do not embed in
    E6, A_n or D_n, so a diagram that is neither a path nor a D fork has
    legs 1, 2, 2 and is E6.  The tests certify this against a reference
    classifier that keeps those checks.
    """
    simple = sorted(simple)
    k = len(simple)
    if k == 1:
        return ("A", tuple(simple))
    # Simple roots of a base pair to 0 or -1 (Humphreys 10.1), so two of
    # them are joined exactly when their sum is a root.
    partners = [{b for b, _ in sys.sums_from[a]} for a in simple]
    adj = [[j for j in range(k) if simple[j] in ps] for ps in partners]
    degs = [len(ns) for ns in adj]

    def walk(prev: int, cur: int) -> list[int]:
        """The leg that leaves prev through cur, out to its end."""
        leg = [cur]
        while nxt := [j for j in adj[cur] if j != prev]:
            prev, cur = cur, nxt[0]
            leg.append(cur)
        return leg

    def ordered(nodes: list[int]) -> tuple[Root, ...]:
        return tuple(simple[i] for i in nodes)

    if 3 not in degs:
        end = degs.index(1)
        return ("A", ordered([end] + walk(end, adj[end][0])))
    b = degs.index(3)
    legs = sorted((walk(b, first) for first in adj[b]), key=len)
    if len(legs[1]) == 1:
        return ("D", ordered(legs[2][::-1] + [b] + legs[0] + legs[1]))
    return ("E", tuple(simple))


def decompose_closed_subset(subset: Iterable[Root], sys: RootSystem) -> tuple[SubsystemComponent, ...]:
    """Split a closed, negation-symmetric subset into irreducible subsystems.

    This is the public boundary: every call validates the subset (its
    members are roots, and it is closed and negation-symmetric), then
    decomposes it with RootSystem.decomposition.  Nothing is kept, so an
    invalid subset raises on every call.
    """
    sset = frozenset(subset)
    _validate_closed(sset, sys)
    return sys.decomposition(sset)

