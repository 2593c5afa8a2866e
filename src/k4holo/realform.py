"""Real-form identification for theta-stable reductive subalgebras.

A real form is named by its complex type together with the type of its
maximal compact subalgebra, which is injective across the vocabulary that
can occur here.  Each simple ideal is named by the Vogan-diagram rule
(Knapp, Lie Groups Beyond an Introduction, VI.8-10): theta paints the
ideal's simple roots, taken in diagram order, with its values on them
(painted = acts by -1), and the paints alone give the name.

  A_n ideal:  XOR the paints of all n roots along the path, starting from
              an unpainted sign; the n + 1 signs split into p >= q, which
              names su(p, q).
  D_n ideal:  two fork leaves painted differently -> so*(2n); otherwise
              XOR the paints of the first n - 1 roots (long arm, branch
              node, first fork leaf) into n signs, p >= q -> so(2p, 2q).

q = 0 is the compact form, su(n + 1, 0) or so(2n, 0), spelled su(n + 1)
and so(2n): a compact ideal has no name of its own.

For a D_4 ideal so*(8) and so(6,2) are the same algebra; the so(6,2)
spelling wins.  E-type ideals raise rather than guessing.  Only equal-rank
forms can arise from toral involutions, so the vocabulary deliberately
omits split/quaternionic families.

Each name is dimension-checked: its compact part must have the dimension
of theta's fixed roots in the ideal plus the rank.  The name reads theta
on the n simple roots only and the count reads it on every root of the
ideal, so the check compares two independent derivations.  The
complexification is not computed: each name has its ideal's type.

The centre of the subalgebra is a count of lines, each of them compact
(spelled c, or so(2) in survey style): toral characters fix the Cartan
subalgebra pointwise.  Ideals and centre are spelled by the summand
renderer that ReductiveType.render uses too, rootsys.render_summands.

theta's fixed roots are read from the root system's kernel of theta, which
is computed once per character, and the centre of theta's fixed subalgebra
is found by fraction-free integer elimination: no rational arithmetic.
"""
from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple, Sequence

from .errors import InternalConsistencyError, PreconditionError, UnmappedPatternError
from .reductive import ConjClass, FixedSubalgebra, classify_involution
from .rootsys import RootSystem, SubsystemComponent, render_summands
from .toral import TorusCharacter

_KIND_ORDER = {"su": 0, "so": 1, "so_star": 2}


class RealFormLabel(NamedTuple):
    """One real simple ideal.

    kinds: "su" = su(a,b); "so" = so(2a,2b); "so_star" = so*(2a).  An su
    or so ideal with b = 0 is compact, spelled su(a) or so(2a).
    """
    kind: str
    a: int
    b: int = 0

    @property
    def is_compact(self) -> bool:
        return self.b == 0 and self.kind != "so_star"

    @property
    def complex_rank(self) -> int:
        if self.kind == "su":
            return self.a + self.b - 1
        if self.kind == "so":
            return self.a + self.b
        return self.a

    @property
    def compact_part_dim(self) -> int:
        """Dimension of a maximal compact subalgebra of this ideal."""
        if self.kind == "su":
            return self.a ** 2 + self.b ** 2 - 1
        if self.kind == "so":
            return self.a * (2 * self.a - 1) + self.b * (2 * self.b - 1)
        return self.a ** 2

    def sort_key(self) -> tuple:
        return (1 if self.is_compact else 0, -self.complex_rank,
                _KIND_ORDER[self.kind], -self.a, -self.b)

    def render(self, style: str = "plain") -> str:
        if self.kind == "su":
            if style == "survey" and (self.a, self.b) == (1, 1):
                return "sl(2,R)"
            return f"su({self.a},{self.b})" if self.b else f"su({self.a})"
        if self.kind == "so":
            return f"so({2 * self.a},{2 * self.b})" if self.b else f"so({2 * self.a})"
        return f"so*({2 * self.a})"


class RealFormType(NamedTuple("RealFormType", [("ideals", tuple[RealFormLabel, ...]),
                                                ("center", int)])):
    """Multiset of real simple ideals, stored sorted, plus the number of
    centre lines; every centre line is compact (a rotation so(2))."""
    __slots__ = ()

    def __new__(cls, ideals: tuple[RealFormLabel, ...], center: int):
        return super().__new__(cls, tuple(sorted(ideals, key=RealFormLabel.sort_key)), center)

    def render(self, style: str = "plain") -> str:
        return render_summands([l.render(style) for l in self.ideals], self.center,
                               "so(2)" if style == "survey" else "c")


def _ideal_label(comp: SubsystemComponent, theta: TorusCharacter) -> RealFormLabel:
    family, n = comp.family, comp.rank
    if family not in ("A", "D"):
        raise UnmappedPatternError(f"no real-form vocabulary for an {family}{n} ideal")
    paints = [theta.evaluate(s) != 0 for s in comp.simple]
    if family == "D" and paints[-2] != paints[-1]:
        # so*(8) and so(6,2) are the same algebra; the so(6,2) spelling wins.
        return RealFormLabel("so", 3, 1) if n == 4 else RealFormLabel("so_star", n)
    signs = [False]
    for paint in paints[:n if family == "A" else n - 1]:
        signs.append(signs[-1] ^ paint)
    q = min(signs.count(False), signs.count(True))
    p = len(signs) - q
    return RealFormLabel("su" if family == "A" else "so", p, q)


def identify_real_form(sub: FixedSubalgebra, theta: TorusCharacter,
                       sys: RootSystem) -> RealFormType:
    """Real form of a theta-stable subalgebra determined by theta's action.

    theta-stability is automatic here: all characters share one torus.
    Every identification is dimension-checked (compact part of the label
    from the paints versus theta's fixed root count plus rank).

    The complexification is not checked, as it is sub.rtype on any
    FixedSubalgebra the engine builds: _ideal_label names A_n su(p, q) with
    p + q = n + 1 and D_n so(2p, 2q), so*(2n) or so(6,2), of complex rank
    n; the centre is sub.rtype's; both sides sort by (-rank, family).  The
    tests recompute it from the labels (tests/oracles.py) on every candidate.
    """
    if theta.order > 2:
        raise PreconditionError("theta must be an involution or the identity")
    ideals = []
    for comp in sub.components:
        fixed_in = comp.roots & sys.kernel(theta)
        label = _ideal_label(comp, theta)
        if label.compact_part_dim != len(fixed_in) + comp.rank:
            raise InternalConsistencyError(
                f"{label.render()} bookkeeping: compact dim {label.compact_part_dim} "
                f"!= {len(fixed_in)} fixed roots + rank {comp.rank}")
        ideals.append(label)
    return RealFormType(ideals=tuple(ideals), center=sub.rtype.center_dim)


def _primitive(row: Sequence[int]) -> tuple[int, ...]:
    g = gcd(*row)
    return tuple(x // g for x in row) if g > 1 else tuple(row)


def _integer_nullspace(rows: Sequence[Sequence[int]], ncols: int) -> tuple[tuple[int, ...], ...]:
    """Primitive integer basis of the right kernel of an integer matrix.

    Fraction-free Gauss-Jordan elimination: a row is cleared at a pivot
    column by scaling it with the pivot and subtracting a multiple of the
    pivot row, then divided by the gcd of its entries; duplicate rows and
    zero rows are dropped.  There is one basis vector per free column f,
    with entry 1 scaled to positive at f and 0 at the other free columns,
    divided by the gcd of its entries: the same basis that reduced row
    echelon form over the rationals gives.
    """
    pending = list(dict.fromkeys(_primitive(row) for row in rows if any(row)))
    echelon: list[tuple[int, tuple[int, ...]]] = []
    for c in range(ncols):
        pivot = next((row for row in pending if row[c]), None)
        if pivot is None:
            continue
        p = pivot[c]

        def clear(row):
            f = row[c]
            return _primitive([x * p - f * y for x, y in zip(row, pivot)]) if f else row

        echelon = [(pc, clear(row)) for pc, row in echelon]
        echelon.append((c, pivot))
        pending = list(dict.fromkeys(r for r in map(clear, pending) if any(r)))
    pivots = {pc for pc, _ in echelon}
    scale = lcm(*(row[pc] for pc, row in echelon))
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [0] * ncols
        vec[fc] = scale
        for pc, row in echelon:
            vec[pc] = -scale * row[fc] // row[pc]
        basis.append(_primitive(vec))
    return tuple(basis)


def center_of_fixed(theta: TorusCharacter, sys: RootSystem) -> tuple[tuple[int, ...], ...]:
    """Basis of the centraliser directions {H : a(H) = 0 for all fixed roots a}.

    For any involution in the so(10)+R class the fixed subsystem has corank
    one, so the result must be a single coweight line.
    """
    if classify_involution(theta, sys) is not ConjClass.SIGMA2:
        raise PreconditionError("center_of_fixed expects an involution of the so(10)+R class")
    fixed = sorted(sys.kernel(theta))
    rows = [sys.simple_pairings(r) for r in fixed]
    basis = _integer_nullspace(rows, sys.rank)
    if len(basis) != 1:
        raise InternalConsistencyError(
            f"centre of the fixed subalgebra has dimension {len(basis)}, expected 1")
    return basis


def holomorphic_type_check(sigma: TorusCharacter, theta: TorusCharacter,
                           sys: RootSystem) -> bool:
    """Whether sigma fixes the centre generator of theta's fixed subalgebra.

    The generator lies in the Cartan subalgebra and toral characters act
    trivially there, so for the automorphisms representable in this engine
    the answer is always True; only the per-theta premise (theta's class
    and corank) can fail, and that raises.  A non-toral automorphism could
    fail the condition, but none is representable here, which is why the
    classification pipeline calls center_of_fixed once per theta instead.
    """
    if sigma.order > 2:
        raise PreconditionError("sigma must be an involution or the identity")
    center_of_fixed(theta, sys)  # validates theta's class and corank
    return True
