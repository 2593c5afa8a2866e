"""Chevalley basis structure constants for simply laced root systems.

Basis: the coroots h_1..h_rank of the simple roots plus one root vector
X_a per root, normalised so [X_a, X_{-a}] = H_a (the coroot written in the
h_i coordinates).  In the simply laced case every nonzero off-Cartan
constant N(a, b) is +-1; the signs are fixed by the extraspecial-pair
method: positive roots are ordered by (height, positivity value), each
non-simple positive root takes N = +1 on the decomposition whose first
member is minimal, and all remaining constants follow from antisymmetry,
the opposite-pair rule N(-a, -b) = -N(a, b), the rotation rule
N(a, b) = N(b, c) = N(c, a) for a + b + c = 0, and the four-term relation
for a + b + c + d = 0.  Any consistent sign set passes the certification
suite; reproducibility of the table, not one specific table, is the
contract.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import ConfigurationError, InternalConsistencyError
from .rootsys import Root, RootSystem

BasisKey = tuple  # ("h", i) with 0 <= i < rank, or ("x", root)


def _sub(a: Root, b: Root) -> Root:
    return tuple(x - y for x, y in zip(a, b))


def _neg(a: Root) -> Root:
    return tuple(-x for x in a)


def _positive_pair_table(sys: RootSystem) -> tuple[tuple[Root, ...], dict]:
    """Signs N(a, b) for all pairs of positive roots a, b with a + b a root.

    Both orders of each pair are keyed, N(b, a) = -N(a, b).  The special
    pair of a sum has its first member strictly before the second in the
    (height, value) order; processing sums by increasing height guarantees
    every constant the four-term relation refers to is already known.
    """
    pos = sorted(sys.positive_roots, key=lambda r: (sys.height(r), sys.value(r)))
    rank = {r: i for i, r in enumerate(pos)}
    splits: dict[Root, list[tuple[Root, Root]]] = {}
    for (a, b), gamma in sys.sums.items():
        if a in rank and b in rank and rank[a] < rank[b]:
            splits.setdefault(gamma, []).append((a, b))
    table: dict[tuple[Root, Root], int] = {}
    for gamma in pos:
        pairs = sorted(splits.get(gamma, ()), key=lambda p: rank[p[0]])
        if not pairs:
            continue
        alpha1, beta1 = pairs[0]
        table[(alpha1, beta1)], table[(beta1, alpha1)] = 1, -1
        for alpha, beta in pairs[1:]:
            d1 = _sub(beta1, alpha)
            d2 = _sub(beta, alpha1)
            t2 = table[(alpha, d1)] * table[(alpha1, d2)] \
                if d1 in rank and d2 in rank else 0
            d3 = _sub(alpha, alpha1)
            d4 = _sub(beta1, beta)
            t3 = -table[(alpha1, d3)] * table[(beta, d4)] \
                if d3 in rank and d4 in rank else 0
            if (t2 == 0) == (t3 == 0):
                raise InternalConsistencyError(
                    f"four-term relation degenerate at {alpha} + {beta}")
            table[(alpha, beta)], table[(beta, alpha)] = t2 + t3, -(t2 + t3)
    return tuple(pos), table


class StructureConstants:
    """Complete bracket table, compared field by field; immutable by convention."""

    def __init__(self, sys: RootSystem, pos_order: tuple[Root, ...],
                 n_table: dict[tuple[Root, Root], int], basis: tuple[BasisKey, ...],
                 _index: dict[BasisKey, int],
                 _btable: dict[tuple[int, int], tuple[tuple[int, int], ...]]):
        self.sys, self.pos_order, self.n_table = sys, pos_order, n_table
        self.basis, self._index, self._btable = basis, _index, _btable

    def __eq__(self, other):
        if other.__class__ is not StructureConstants:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"StructureConstants({fields})"

    def n(self, a: Root, b: Root) -> int:
        """N(a, b), or 0 when a + b is not a root."""
        return self.n_table.get((a, b), 0)

    def index(self, key: BasisKey) -> int:
        return self._index[key]

    def bracket_basis(self, k1: BasisKey, k2: BasisKey) -> dict[BasisKey, int]:
        terms = self._btable[(self._index[k1], self._index[k2])]
        return {self.basis[i]: c for i, c in terms}

    def bracket(self, v1: dict[BasisKey, int], v2: dict[BasisKey, int]) -> dict[BasisKey, int]:
        """Bilinear extension of the basis bracket to sparse vectors."""
        acc: dict[BasisKey, int] = {}
        for ka, ca in v1.items():
            for kb, cb in v2.items():
                for i, c in self._btable[(self._index[ka], self._index[kb])]:
                    key = self.basis[i]
                    acc[key] = acc.get(key, 0) + ca * cb * c
        return {k: c for k, c in acc.items() if c != 0}


def build_chevalley_basis(sys: RootSystem) -> StructureConstants:
    """Build the full structure-constant table for a simply laced system."""
    if any(sys.pairing(r, r) != 2 for r in sys.simple_roots):
        raise ConfigurationError("only simply laced systems are supported")

    pos, npos = _positive_pair_table(sys)
    posset = set(pos)

    def n_any(a: Root, b: Root) -> int:
        # Rotation rule: for x + y + z = 0, N(x, y) = N(y, z) = N(z, x).
        apos, bpos = a in posset, b in posset
        if apos and bpos:
            return npos[(a, b)]
        if not apos and not bpos:
            return -n_any(_neg(a), _neg(b))
        if not apos:
            return -n_any(b, a)
        c = sys.sums[(a, b)]
        if c in posset:
            return -npos[(_neg(b), c)]
        return npos[(_neg(c), a)]

    n_table = {pair: n_any(*pair) for pair in sys.sums}
    for (a, b), v in n_table.items():
        if v not in (1, -1) or n_table[(b, a)] != -v:
            raise InternalConsistencyError("structure constants fail antisymmetry")

    rank = sys.rank
    basis: list[BasisKey] = [("h", i) for i in range(rank)]
    basis += [("x", r) for r in pos]
    basis += [("x", _neg(r)) for r in pos]
    index = {k: i for i, k in enumerate(basis)}
    gram = sys.gram

    btable: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    for i, ki in enumerate(basis):
        for j, kj in enumerate(basis):
            if ki[0] == "h" and kj[0] == "h":
                terms: tuple[tuple[int, int], ...] = ()
            elif ki[0] == "h":
                c = gram[kj[1]][sys.simple_roots[ki[1]]]
                terms = ((j, c),) if c else ()
            elif kj[0] == "h":
                c = gram[ki[1]][sys.simple_roots[kj[1]]]
                terms = ((i, -c),) if c else ()
            else:
                a, b = ki[1], kj[1]
                if b == _neg(a):
                    terms = tuple((index[("h", t)], a[t]) for t in range(rank) if a[t])
                else:
                    s = sys.sums.get((a, b))
                    terms = ((index[("x", s)], n_table[(a, b)]),) if s else ()
            btable[(i, j)] = terms

    return StructureConstants(sys=sys, pos_order=pos, n_table=n_table,
                              basis=tuple(basis), _index=index, _btable=btable)


class JacobiReport(NamedTuple):
    triples_checked: int
    violations: tuple[tuple[BasisKey, BasisKey, BasisKey], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def first_violation(self):
        return self.violations[0] if self.violations else None


def check_jacobi(sc: StructureConstants, limit: int = 10) -> JacobiReport:
    """Exhaustively verify the Jacobi identity over all unordered basis triples.

    Failure is reported as data, never raised.  The sweep runs in-process:
    it takes less time than starting a worker pool would.
    """
    btable = sc._btable
    n = len(sc.basis)
    checked = 0
    bad: list[tuple[int, int, int]] = []
    for i in range(n):
        for j in range(i + 1, n):
            ab = btable[(i, j)]
            for k in range(j + 1, n):
                checked += 1
                acc: dict[int, int] = {}
                for m, c in ab:
                    for p, c2 in btable[(m, k)]:
                        acc[p] = acc.get(p, 0) + c * c2
                for m, c in btable[(j, k)]:
                    for p, c2 in btable[(m, i)]:
                        acc[p] = acc.get(p, 0) + c * c2
                for m, c in btable[(k, i)]:
                    for p, c2 in btable[(m, j)]:
                        acc[p] = acc.get(p, 0) + c * c2
                if any(acc.values()):
                    if len(bad) < limit:
                        bad.append((i, j, k))
    violations = tuple((sc.basis[i], sc.basis[j], sc.basis[k]) for i, j, k in bad)
    return JacobiReport(triples_checked=checked, violations=violations)


def killing_form(sc: StructureConstants, a: BasisKey, b: BasisKey) -> int:
    """Trace of ad(a).ad(b) computed from the bracket table."""
    ia, ib = sc._index[a], sc._index[b]
    n = len(sc.basis)
    total = 0
    for j in range(n):
        for m, c in sc._btable[(ib, j)]:
            for p, c2 in sc._btable[(ia, m)]:
                if p == j:
                    total += c * c2
    return total


def export_n_table(sc: StructureConstants) -> str:
    """Deterministic text form of the N table for diffing across builds.

    One line per ordered pair: comma-separated coordinates of each root,
    then the constant, space-separated.
    """
    lines = []
    for (a, b) in sorted(sc.n_table):
        lines.append("{} {} {}".format(",".join(map(str, a)),
                                       ",".join(map(str, b)),
                                       sc.n_table[(a, b)]))
    return "\n".join(lines) + "\n"
