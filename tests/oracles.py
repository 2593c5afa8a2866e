"""Independent references the tests check the engine against.

Each function here derives a fact the engine derives another way, or does
not derive at all because no command needs it: the bilinear form of two
lattice vectors, the sign of a root, the dimension and the complexification
of a reductive algebra, and reading and extending the Chevalley bracket
table.  None of them is engine code; the engine keeps one derivation per
fact, and the tests own the second.
"""
from operator import mul

from k4holo.rootsys import ReductiveType

# Root counts of the recognisable types (Humphreys, 12.2).
ROOT_COUNT = {
    "A": lambda r: r * (r + 1),
    "D": lambda r: 2 * r * (r - 1),
    "E": lambda r: 72,
}


def pairing(sys, a, b) -> int:
    """Bilinear form (a, b) = a.A.b of two lattice vectors, for the Cartan
    matrix A of sys; every root has (a, a) = 2."""
    return sum(map(mul, a, [sum(map(mul, row, b)) for row in sys.cartan]))


def is_positive(sys, root) -> bool:
    """Whether a root is positive, read off its last nonzero coordinate
    without the engine's weights (roots are sign-coherent, so any nonzero
    coordinate decides; RootSystem.value has the sign of the last one)."""
    return next(c for c in reversed(root) if c) > 0


def reductive_dim(rtype: ReductiveType) -> int:
    """Dimension of a reductive algebra: roots plus rank per simple ideal,
    plus the centre."""
    return rtype.center_dim + sum(ROOT_COUNT[family](rank) + rank
                                  for family, rank in rtype.components)


def complex_type(label) -> tuple[str, int]:
    """(family, rank) of a real simple ideal's complexification: su(a, b) is
    A_(a+b-1), so(2a, 2b) is D_(a+b), so*(2a) is D_a."""
    if label.kind == "su":
        return ("A", label.a + label.b - 1)
    if label.kind == "so":
        return ("D", label.a + label.b)
    return ("D", label.a)


def complexification(form) -> ReductiveType:
    """Complex reductive type of a real form: its ideals' types, sorted as
    ReductiveType sorts them, and its centre lines."""
    comps = sorted(map(complex_type, form.ideals), key=lambda c: (-c[1], c[0]))
    return ReductiveType(components=tuple(comps), center_dim=form.center)


def n(sc, a, b) -> int:
    """N(a, b): the coefficient of X_(a+b) in [X_a, X_b], or 0 when a + b
    is not a root (so N(a, -a) is 0).  Repeated terms add."""
    target = sc.index.get(("x", tuple(x + y for x, y in zip(a, b))))
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
