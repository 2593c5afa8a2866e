"""Independent references the tests check the engine against.

Each function here derives a fact the engine derives another way, or does
not derive at all because no command needs it: sums and negatives of
lattice vectors and their bilinear form, the simple reflections of a
lattice vector and of a character, the roots a set of characters fixes,
the 64 elements of T[2] (the 2-torsion of the torus) and the Weyl group's
action on them, orbits under a set of moves, the sign of a root, the type,
dimension and complexification of a reductive algebra, and reading,
extending and editing the Chevalley bracket table.  None of them is engine
code; the engine keeps one derivation per fact, and the tests own the
second.
"""
from math import factorial
from operator import mul

from k4holo.toral import TorusCharacter

# Root counts of the recognisable types (Humphreys, 12.2).
ROOT_COUNT = {
    "A": lambda r: r * (r + 1),
    "D": lambda r: 2 * r * (r - 1),
    "E": lambda r: 72,
}

# Weyl group orders of the same types (Bourbaki, Lie Groups and Lie Algebras,
# ch. VI, Plates I, IV and V).
WEYL_ORDER = {
    "A": lambda r: factorial(r + 1),
    "D": lambda r: 2 ** (r - 1) * factorial(r),
    "E": lambda r: 51840,
}


def add(a, b) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def sub(a, b) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


def negate(v) -> tuple[int, ...]:
    return tuple(-x for x in v)


def pairing(sys, a, b) -> int:
    """Bilinear form (a, b) = a.A.b of two lattice vectors, for the Cartan
    matrix A of sys; every root has (a, a) = 2."""
    return sum(map(mul, a, [sum(map(mul, row, b)) for row in sys.cartan]))


def reflect(sys, v, i) -> tuple[int, ...]:
    """The simple reflection s_i(v) = v - (v, alpha_i) alpha_i of a lattice
    vector in simple-root coordinates."""
    out = list(v)
    out[i] -= pairing(sys, v, sys.simple_roots[i])
    return tuple(out)


def reflect_character(sys, chi, i) -> TorusCharacter:
    """The simple reflection s_i on a character, chi composed with s_i: on
    the exponents, e_j -> e_j - A[i][j] * e_i."""
    e = chi.exps
    return TorusCharacter(chi.modulus,
                          tuple(ej - aij * e[i] for ej, aij in zip(e, sys.cartan[i])))


def fixed_by(sys, chars) -> frozenset:
    """The roots of sys that every character in chars sends to 0, read off
    evaluate root by root, without the engine's kernels."""
    return frozenset(r for r in sys.roots if all(chi.evaluate(r) == 0 for chi in chars))


def t2(mask: int) -> TorusCharacter:
    """The element of T[2] whose exponent on simple root j is bit j of mask."""
    return TorusCharacter(2, tuple(mask >> j & 1 for j in range(6)))


# The 64 elements of T[2], indexed by their masks: T2[0] is the identity.
T2 = tuple(map(t2, range(64)))


def t2_mask(chi) -> int:
    """The mask of an element of T[2]: its exponents as the bits of an int."""
    return sum(e << j for j, e in enumerate(chi.exps))


def t2_reflections(sys) -> tuple[tuple[int, ...], ...]:
    """The simple reflections of sys on the masks of T[2], each a
    permutation of the 2 ** rank masks: reflect_character mod 2.  There
    e_j -> e_j - A[i][j] * e_i, so when bit i is set s_i flips the bits of
    i's diagram neighbours (odd A[i][j]); the diagonal 2 vanishes mod 2."""
    flips = [sum(1 << j for j, a in enumerate(row) if a % 2) for row in sys.cartan]
    return tuple(tuple(m ^ flip if m >> i & 1 else m for m in range(1 << sys.rank))
                 for i, flip in enumerate(flips))


def orbit(start, moves) -> set:
    """The orbit of start under the group the moves generate: a
    breadth-first search that applies every move to every point found."""
    found, seen = [start], {start}
    for point in found:
        for move in moves:
            image = move(point)
            if image not in seen:
                seen.add(image)
                found.append(image)
    return seen


def is_positive(sys, root) -> bool:
    """Whether a root is positive, read off its last nonzero coordinate
    without the engine's weights (roots are sign-coherent, so any nonzero
    coordinate decides; RootSystem.value has the sign of the last one)."""
    return next(c for c in reversed(root) if c) > 0


def compact_type(sub) -> tuple[tuple[tuple[str, int], ...], int]:
    """Type of a fixed subalgebra: its components' (family, rank), in its
    order, and its centre lines."""
    return tuple((c.family, c.rank) for c in sub.components), sub.center


def reductive_dim(sub) -> int:
    """Dimension of a fixed subalgebra from its type: roots plus rank per
    simple ideal, plus the centre."""
    comps, center = compact_type(sub)
    return center + sum(ROOT_COUNT[family](rank) + rank for family, rank in comps)


def complex_type(label) -> tuple[str, int]:
    """(family, rank) of a real simple ideal's complexification: su(a, b) is
    A_(a+b-1), so(2a, 2b) is D_(a+b), so*(2a) is D_a."""
    if label.kind == "su":
        return ("A", label.a + label.b - 1)
    if label.kind == "so":
        return ("D", label.a + label.b)
    return ("D", label.a)


def complexification(form) -> tuple[tuple[tuple[str, int], ...], int]:
    """Complex reductive type of a real form, spelled as compact_type: its
    ideals' types in (-rank, family) order, and its centre lines."""
    comps = sorted(map(complex_type, form.ideals), key=lambda c: (-c[1], c[0]))
    return tuple(comps), form.center


def n(sc, a, b) -> int:
    """N(a, b): the coefficient of X_(a+b) in [X_a, X_b], or 0 when a + b
    is not a root (so N(a, -a) is 0).  Repeated terms add."""
    target = sc.index.get(("x", add(a, b)))
    return sum(c for p, c in sc.btable[sc.index["x", a]][sc.index["x", b]] if p == target)


def bracket(sc, v1: dict, v2: dict) -> dict:
    """Bilinear extension of the basis bracket to sparse vectors {key: coeff}."""
    acc: dict = {}
    for ka, ca in v1.items():
        for kb, cb in v2.items():
            for i, c in sc.btable[sc.index[ka]][sc.index[kb]]:
                key = sc.basis[i]
                acc[key] = acc.get(key, 0) + ca * cb * c
    return {k: c for k, c in acc.items() if c != 0}


def with_brackets(sc, edits: dict):
    """Copy of sc whose bracket table holds edits[i, j], a tuple of
    (index, coefficient) terms, as [b_i, b_j] for each (i, j) in edits."""
    return sc._replace(btable=tuple(tuple(edits.get((i, j), terms) for j, terms in enumerate(row))
                                    for i, row in enumerate(sc.btable)))
