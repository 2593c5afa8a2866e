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
for a + b + c + d = 0.  Only the positive pairs are derived by the
four-term relation; every other constant is read from them in one pass over
sums_from, by the signs of a, b and a + b.  Any consistent sign set passes
the certification suite; reproducibility of the table, not one specific
table, is the contract.

The bracket table holds one row per basis element: _btable[i][j] is the
tuple of terms (p, c) of [b_i, b_j] = sum of c * b_p, filled straight from
the root system (the Cartan rows from each root's simple pairings, each
root's row from its opposite and the sums in sums_from).

Certification (check_jacobi) sweeps all unordered basis triples.  It first
checks once that the table is graded: each term b_p of [b_i, b_j] has
weight w_p = w_i + w_j, where h has weight 0 and X_a weight a.  Given that,
every term of a triple's Jacobi sum has weight w_i + w_j + w_k, so when this
weight is neither a root nor 0 no basis element carries it and the sum is
exactly zero.  Only the other triples are summed (14,876 of the 76,076 on
E6).  When the weight is a nonzero root, X of that root is the one basis
element carrying it, so all the terms lie on it and the triple is summed
into one int (14,400 triples); only the 476 of weight 0, whose terms lie on
the Cartan elements, are summed into a vector.  A table that is not graded
has every triple summed as a vector.  The summed triples come from an
inverted index built once, listing for each weight s every basis index k
with s + w_k a root or 0, so a pair (i, j) looks up its partners k > j under
w_i + w_j instead of testing each k.  A weight is the root system's one
integer encoding of it, RootSystem.value, whose digits never carry on sums
of three roots, so the argument involves no rounding: the result equals
that of the full sweep.
"""
from __future__ import annotations

from bisect import bisect_right
from operator import sub
from typing import NamedTuple

from .errors import ConfigurationError, InternalConsistencyError
from .rootsys import Root, RootSystem

BasisKey = tuple  # ("h", i) with 0 <= i < rank, or ("x", root)


def _sub(a: Root, b: Root) -> Root:
    return tuple(map(sub, a, b))


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
    for a in pos:
        for b, gamma in sys.sums_from[a]:
            if b in rank and rank[a] < rank[b]:
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

    def __init__(self, sys: RootSystem, n_table: dict[tuple[Root, Root], int],
                 basis: tuple[BasisKey, ...], _index: dict[BasisKey, int],
                 _btable: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]):
        self.sys, self.n_table = sys, n_table
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
        terms = self._btable[self._index[k1]][self._index[k2]]
        return {self.basis[i]: c for i, c in terms}

    def bracket(self, v1: dict[BasisKey, int], v2: dict[BasisKey, int]) -> dict[BasisKey, int]:
        """Bilinear extension of the basis bracket to sparse vectors."""
        acc: dict[BasisKey, int] = {}
        for ka, ca in v1.items():
            for kb, cb in v2.items():
                for i, c in self._btable[self._index[ka]][self._index[kb]]:
                    key = self.basis[i]
                    acc[key] = acc.get(key, 0) + ca * cb * c
        return {k: c for k, c in acc.items() if c != 0}


def build_chevalley_basis(sys: RootSystem) -> StructureConstants:
    """Build the full structure-constant table for a simply laced system."""
    if any(sys.pairing(r, r) != 2 for r in sys.simple_roots):
        raise ConfigurationError("only simply laced systems are supported")

    pos, npos = _positive_pair_table(sys)
    posset = set(pos)
    neg = {r: tuple(-x for x in r) for r in sys.roots}

    # N(a, b) for a + b = c a root, read from npos by the opposite-pair rule
    # N(-a, -b) = -N(a, b), antisymmetry and the rotation rule: for
    # x + y + z = 0, N(x, y) = N(y, z) = N(z, x).
    n_table: dict[tuple[Root, Root], int] = {}
    for a, pairs in sys.sums_from.items():
        apos = a in posset
        for b, c in pairs:
            if b in posset:
                if apos:
                    v = npos[(a, b)]
                elif c in posset:  # a < 0 < b, c > 0: N(a, b) = N(-a, c)
                    v = npos[(neg[a], c)]
                else:  # a < 0 < b, c < 0: N(a, b) = -N(-c, b)
                    v = -npos[(neg[c], b)]
            elif not apos:  # a, b < 0: N(a, b) = -N(-a, -b)
                v = -npos[(neg[a], neg[b])]
            elif c in posset:  # b < 0 < a, c > 0: N(a, b) = -N(-b, c)
                v = -npos[(neg[b], c)]
            else:  # b < 0 < a, c < 0: N(a, b) = N(-c, a)
                v = npos[(neg[c], a)]
            n_table[(a, b)] = v
    for (a, b), v in n_table.items():
        if v not in (1, -1) or n_table[(b, a)] != -v:
            raise InternalConsistencyError("structure constants fail antisymmetry")

    rank = sys.rank
    basis: list[BasisKey] = [("h", i) for i in range(rank)]
    basis += [("x", r) for r in pos]
    basis += [("x", neg[r]) for r in pos]
    index = {k: i for i, k in enumerate(basis)}
    at = {k[1]: i for k, i in index.items() if k[0] == "x"}  # h_t sits at index t

    # Row i holds [b_i, b_j] for every j; an empty tuple is a zero bracket.
    rows: list[list[tuple[tuple[int, int], ...]]] = [[()] * len(basis) for _ in basis]
    for r, j in at.items():
        for t, c in enumerate(sys.simple_pairings(r)):  # [h_t, X_r] = (r, alpha_t) X_r
            if c:
                rows[t][j], rows[j][t] = ((j, c),), ((j, -c),)
    for a, i in at.items():
        row = rows[i]
        row[at[neg[a]]] = tuple((t, c) for t, c in enumerate(a) if c)
        for b, s in sys.sums_from[a]:
            row[at[b]] = ((at[s], n_table[(a, b)]),)

    return StructureConstants(sys=sys, n_table=n_table, basis=tuple(basis), _index=index,
                              _btable=tuple(map(tuple, rows)))


class JacobiReport(NamedTuple):
    triples_checked: int
    violations: tuple[tuple[BasisKey, BasisKey, BasisKey], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def first_violation(self):
        return self.violations[0] if self.violations else None


def check_antisymmetry(sc: StructureConstants) -> bool:
    """[b_j, b_i] == -[b_i, b_j] for every entry of the bracket table."""
    rows = sc._btable
    return all(dict(rows[j][i]) == {p: -c for p, c in terms}
               for i, row in enumerate(rows) for j, terms in enumerate(row[i:], i))


def _weights(sc: StructureConstants) -> tuple[int, ...]:
    """Weight of each basis element as one int: 0 for h, value(a) for X_a.

    RootSystem.value is injective on sums of at most three roots.
    """
    value = sc.sys.value
    return tuple(value(key[1]) if key[0] == "x" else 0 for key in sc.basis)


def check_jacobi(sc: StructureConstants, limit: int = 10) -> JacobiReport:
    """Exhaustively verify the Jacobi identity over all unordered basis triples.

    Failure is reported as data, never raised.  The sweep first checks once
    that the table is graded: every term b_p of every [b_i, b_j] has weight
    w_p = w_i + w_j (weights as in _weights).  Then each term of
    [[b_i, b_j], b_k] and its two rotations has weight w_i + w_j + w_k, so a
    triple whose weight sum is neither a root nor 0 has an empty Jacobi sum
    (no basis element has that weight): it is certified without summing.
    Only the remaining triples are summed, 14,876 of the 76,076 on E6.  They
    are found through an inverted index built once: partners[s] lists, in
    increasing order, every k with s + w_k a root or 0 (78 * 73 entries on
    E6), so a pair (i, j) takes its k > j from partners[w_i + w_j] by
    bisection instead of testing each k.  A triple whose weight is a
    nonzero root has every term on the one basis element of that weight, so
    its sum is one int, and it is zero exactly when that element's
    coefficient is; only the triples of weight 0 (476 on E6) are summed
    into a dict by basis index.  A table that is not graded has every
    triple summed into a dict.  Violations come in increasing (i, j, k)
    order either way; all arithmetic is on ints.
    """
    rows = sc._btable
    n = len(sc.basis)
    w = _weights(sc)
    graded = all(w[p] == wi + wj
                 for row, wi in zip(rows, w) for terms, wj in zip(row, w)
                 for p, _ in terms)
    if graded:
        nonzero = set(w)  # the roots and 0
        partners: dict[int, list[int]] = {}
        for k, wk in enumerate(w):
            for t in nonzero:
                partners.setdefault(t - wk, []).append(k)
    bad: list[tuple[int, int, int]] = []
    for i in range(n):
        row_i = rows[i]
        for j in range(i + 1, n):
            ab = row_i[j]
            row_j = rows[j]
            if graded:
                s = w[i] + w[j]
                ks = partners.get(s, ())
                ks = ks[bisect_right(ks, j):]
            else:
                ks = range(j + 1, n)
            for k in ks:
                if graded and s + w[k]:
                    # The weight is a nonzero root: every term lies on the
                    # one basis element of that weight.
                    total = 0
                    for m, c in ab:
                        for _, c2 in rows[m][k]:
                            total += c * c2
                    for m, c in row_j[k]:
                        for _, c2 in rows[m][i]:
                            total += c * c2
                    for m, c in rows[k][i]:
                        for _, c2 in rows[m][j]:
                            total += c * c2
                    broken = total != 0
                else:
                    acc: dict[int, int] = {}
                    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, c in rows[x][y]:
                            for p, c2 in rows[m][z]:
                                acc[p] = acc.get(p, 0) + c * c2
                    broken = any(acc.values())
                if broken and len(bad) < limit:
                    bad.append((i, j, k))
    violations = tuple((sc.basis[i], sc.basis[j], sc.basis[k]) for i, j, k in bad)
    return JacobiReport(triples_checked=n * (n - 1) * (n - 2) // 6, violations=violations)


def killing_form(sc: StructureConstants, a: BasisKey, b: BasisKey) -> int:
    """Trace of ad(a).ad(b) computed from the bracket table."""
    row_a, row_b = sc._btable[sc._index[a]], sc._btable[sc._index[b]]
    total = 0
    for j, terms in enumerate(row_b):
        for m, c in terms:
            for p, c2 in row_a[m]:
                if p == j:
                    total += c * c2
    return total


def export_n_table(sc: StructureConstants) -> str:
    """Deterministic text form of the N table for diffing across builds.

    One line per ordered pair: comma-separated coordinates of each root,
    then the constant, space-separated.
    """
    text = {r: ",".join(map(str, r)) for r in sc.sys.roots}
    return "\n".join(f"{text[a]} {text[b]} {sc.n_table[(a, b)]}"
                     for a, b in sorted(sc.n_table)) + "\n"
