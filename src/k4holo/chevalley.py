"""Chevalley basis structure constants for simply laced root systems.

Basis: the coroots h_1..h_rank of the simple roots plus one root vector
X_a per root, normalised so [X_a, X_{-a}] = H_a (the coroot written in the
h_i coordinates).  Every nonzero off-Cartan constant is +-1, given by one
closed formula, N(a, b) = eps(a, b) * c(a) * c(b) * c(a + b).

eps(a, b) = (-1)^(a.U.b), U the identity plus the diagram's edges i < j,
is the Frenkel-Kac cocycle (Frenkel and Kac, Invent. Math. 62, 1980; Kac,
Infinite-Dimensional Lie Algebras, 7.8): the vectors E_a with [E_a, E_b] =
eps(a, b) E_(a+b) and [E_a, E_{-a}] = -H_a span the Lie algebra.  c is a
sign per root, X_a = c(a) E_a: c(-g) = -c(g), c is 1 on the simple roots,
and every other positive root g takes c(g) = eps(a, b) * c(a) * c(b) on
its extraspecial pair (a, b), its first split into positive roots in the
(height, value) order of RootSystem.positive_roots, so N = +1 there.
Those signs, N(-a, -b) = -N(a, b) and [X_a, X_{-a}] = H_a fix the whole
table (Carter, Simple Groups of Lie Type, 4.2).  Any consistent sign set
passes the certification suite; reproducibility of the table, not one
specific table, is the contract.

The bracket table holds one row per basis element: btable[i][j] is the
tuple of terms (p, c) of [b_i, b_j] = sum of c * b_p, filled straight from
the root system (the Cartan rows from each root's simple pairings, each
root's row from its opposite and the sums in sums_from).  It is the only
store of the constants: N(a, b) is the coefficient of X_(a+b) in
[X_a, X_b], so the N-table dump reads the table that selftest certifies.
Every reader adds the terms of an entry, a repeated target included.

selftest certifies this table with check_antisymmetry, check_jacobi (its
docstring gives the grading argument that spares most triples a sum) and
killing_form.
"""
from __future__ import annotations

from bisect import bisect_right
from typing import Callable, NamedTuple

from .rootsys import Root, RootSystem

BasisKey = tuple  # ("h", i) with 0 <= i < rank, or ("x", root)


class StructureConstants(NamedTuple):
    """Bracket table, the only store of N: btable[index[k1]][index[k2]] holds [k1, k2]."""
    sys: RootSystem
    basis: tuple[BasisKey, ...]
    index: dict[BasisKey, int]
    btable: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]


def _cocycle(sys: RootSystem) -> Callable[[Root, Root], int]:
    """The cocycle eps of the module docstring on the roots of sys: the
    parity of a's odd coordinates ANDed with those of U.b, as bit masks."""
    upper = [[j for j in range(i + 1, sys.rank) if sys.cartan[i][j]] for i in range(sys.rank)]

    def odd_mask(v) -> int:
        return sum(1 << i for i, x in enumerate(v) if x & 1)

    left = {r: odd_mask(r) for r in sys.roots}
    right = {r: odd_mask([x + sum(r[j] for j in up) for x, up in zip(r, upper)])
             for r in sys.roots}

    def eps(a: Root, b: Root) -> int:
        return -1 if (left[a] & right[b]).bit_count() & 1 else 1

    return eps


def build_chevalley_basis(sys: RootSystem) -> StructureConstants:
    """Build the full structure-constant table of a simply laced (type A, D
    or E) system by the closed formula of the module docstring; the
    precondition is not checked."""
    pos = sys.positive_roots
    neg = {r: tuple(-x for x in r) for r in sys.roots}
    eps = _cocycle(sys)

    # Each non-simple positive root's extraspecial pair: scanning first roots
    # in order, the first split met has the earliest first member.
    posset = set(pos)
    split: dict[Root, tuple[Root, Root]] = {}
    for a in pos:
        for b, s in sys.sums_from[a]:
            if b in posset:
                split.setdefault(s, (a, b))
    # Both roots of a split are lower than their sum, so c is known for them.
    c: dict[Root, int] = {}
    for g in pos:
        if g in split:
            a, b = split[g]
            c[g] = eps(a, b) * c[a] * c[b]
        else:  # a simple root
            c[g] = 1
        c[neg[g]] = -c[g]

    basis: list[BasisKey] = [("h", i) for i in range(sys.rank)]
    basis += [("x", r) for r in pos]
    basis += [("x", neg[r]) for r in pos]
    index = {k: i for i, k in enumerate(basis)}
    at = {k[1]: i for k, i in index.items() if k[0] == "x"}  # h_t sits at index t

    # Row i holds [b_i, b_j] for every j; an empty tuple is a zero bracket.
    rows: list[list[tuple[tuple[int, int], ...]]] = [[()] * len(basis) for _ in basis]
    for r, j in at.items():
        for t, v in enumerate(sys.simple_pairings(r)):  # [h_t, X_r] = (r, alpha_t) X_r
            if v:
                rows[t][j], rows[j][t] = ((j, v),), ((j, -v),)
    for a, i in at.items():
        row = rows[i]
        row[at[neg[a]]] = tuple((t, x) for t, x in enumerate(a) if x)
        for b, s in sys.sums_from[a]:
            row[at[b]] = ((at[s], eps(a, b) * c[a] * c[b] * c[s]),)

    return StructureConstants(sys=sys, basis=tuple(basis), index=index,
                              btable=tuple(map(tuple, rows)))


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
    """[b_j, b_i] == -[b_i, b_j] for every entry of the bracket table, and
    no entry lists a basis element twice (every reader adds the repeats)."""
    rows = sc.btable
    for i, row in enumerate(rows):
        for j, terms in enumerate(row[i:], i):
            back = rows[j][i]
            if terms or back:  # most brackets are zero both ways
                negated = {p: -c for p, c in terms}
                if not len(terms) == len(negated) == len(back) or dict(back) != negated:
                    return False
    return True


def _weights(sc: StructureConstants) -> tuple[int, ...]:
    """Weight of each basis element as one int: 0 for h, value(a) for X_a.

    RootSystem.value is injective on sums of at most three roots.
    """
    value = sc.sys.value
    return tuple(value(key[1]) if key[0] == "x" else 0 for key in sc.basis)


def check_jacobi(sc: StructureConstants) -> JacobiReport:
    """Exhaustively verify the Jacobi identity over all unordered basis triples.

    Failure is reported as data, never raised: every violating triple is
    listed.  The sweep first checks once that the table is graded: every
    term b_p of every [b_i, b_j] has weight
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
    order either way, as from the full sweep; all arithmetic is on ints.
    """
    rows = sc.btable
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
                if broken:
                    bad.append((i, j, k))
    violations = tuple((sc.basis[i], sc.basis[j], sc.basis[k]) for i, j, k in bad)
    return JacobiReport(triples_checked=n * (n - 1) * (n - 2) // 6, violations=violations)


def killing_form(sc: StructureConstants, a: BasisKey, b: BasisKey) -> int:
    """Trace of ad(a).ad(b) computed from the bracket table."""
    row_a, row_b = sc.btable[sc.index[a]], sc.btable[sc.index[b]]
    total = 0
    for j, terms in enumerate(row_b):
        for m, c in terms:
            for p, c2 in row_a[m]:
                if p == j:
                    total += c * c2
    return total


def export_n_table(sc: StructureConstants) -> str:
    """Deterministic text form of the N table for diffing across builds.

    One line per ordered pair (a, b) with a + b a root, sorted: the
    comma-separated coordinates of a and of b, then N(a, b), the
    coefficient of X_(a+b) in the bracket table's [X_a, X_b], all
    space-separated.
    """
    text = {r: ",".join(map(str, r)) for r in sc.sys.roots}
    lines = []
    for a, sums in sorted(sc.sys.sums_from.items()):
        row = sc.btable[sc.index["x", a]]
        for b, s in sorted(sums):
            target = sc.index["x", s]
            n = sum(c for p, c in row[sc.index["x", b]] if p == target)
            lines.append(f"{text[a]} {text[b]} {n}")
    return "\n".join(lines) + "\n"
