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
and so(2n) by rootsys.compact_name: a compact ideal has no name of its own.

For a D_4 ideal so*(8) and so(6,2) are the same algebra; the so(6,2)
spelling wins.  E-type ideals raise rather than guessing.  Only equal-rank
forms can arise from toral involutions, so the vocabulary deliberately
omits split/quaternionic families.

Each name is dimension-checked: its compact part must have the dimension
of theta's fixed roots in the ideal plus the rank.  The name reads theta
on the n simple roots only and the count reads it on every root of the
ideal, so the check compares two independent derivations; a mismatch
raises VerificationError.  The complexification is not computed: each
name has its ideal's type.

The centre of the subalgebra is a count of lines, each of them compact
(spelled c, or so(2) in survey style): toral characters fix the Cartan
subalgebra pointwise.  Ideals and centre are spelled by the summand
renderer that FixedSubalgebra.render uses too, rootsys.render_summands.

identify_real_form decomposes nothing: it reads the components the
FixedSubalgebra carries, and theta's kernel, which the root system keeps.
center_of_fixed decomposes theta's kernel on each call, as the root system
keeps no decomposition.  The centre of theta's fixed subalgebra is
a closed formula, the generalised cross product of the simple_pairings
rows of their five simple roots (entry c: (-1)^c times the determinant with
column c deleted), signed so that its last nonzero coordinate is positive.

A pair (theta, Gamma) is of holomorphic type when every sigma in Gamma
fixes that centre.  For toral sigma this holds by construction: the centre
lies in the Cartan subalgebra, which toral characters fix pointwise.  What
is left is the premise on theta, its so(10)+R class, and the pipeline
settles it where it chooses theta: sigma2_elements keeps exactly the
elements of that class, and D5 is the only closed subsystem of E6 with 40
roots, so the centre of their fixed subalgebra is one line.  Nothing in
the classification calls center_of_fixed or holomorphic_type_check.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import PreconditionError, VerificationError
from .reductive import ConjClass, FixedSubalgebra, classify_involution
from .rootsys import RootSystem, SubsystemComponent, compact_name, render_summands
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
            return f"su({self.a},{self.b})" if self.b else compact_name("A", self.a - 1)
        if self.kind == "so":
            return f"so({2 * self.a},{2 * self.b})" if self.b else compact_name("D", self.a)
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
        raise PreconditionError(f"no real-form vocabulary for an {family}{n} ideal")
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
    from the paints versus theta's fixed root count plus rank); a mismatch
    raises VerificationError.

    The complexification is not checked, as it is sub's type on any
    FixedSubalgebra the engine builds: _ideal_label names A_n su(p, q) with
    p + q = n + 1 and D_n so(2p, 2q), so*(2n) or so(6,2), of complex rank
    n; the centre is sub.center; both sides sort by (-rank, family).  The
    tests recompute it from the labels (tests/oracles.py) on every candidate.
    """
    if theta.order > 2:
        raise PreconditionError("theta must be an involution or the identity")
    ideals = []
    for comp in sub.components:
        fixed_in = comp.roots & sys.kernel(theta)
        label = _ideal_label(comp, theta)
        if label.compact_part_dim != len(fixed_in) + comp.rank:
            raise VerificationError(
                f"{label.render()} bookkeeping: compact dim {label.compact_part_dim} "
                f"!= {len(fixed_in)} fixed roots + rank {comp.rank}")
        ideals.append(label)
    return RealFormType(ideals=tuple(ideals), center=sub.center)


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant by Laplace expansion along the first row, zero entries skipped."""
    if not rows:
        return 1
    return sum((-1) ** j * x * _det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def center_of_fixed(theta: TorusCharacter, sys: RootSystem) -> tuple[tuple[int, ...], ...]:
    """Basis of the centraliser directions {H : a(H) = 0 for all fixed roots a}.

    An involution of the so(10)+R class fixes 40 roots, and D5 is the only
    closed subsystem of E6 with 40 roots, so once the class is checked the
    fixed subsystem has corank one and nothing else is checked.  The result
    is a single coweight line: the kernel of the 5 x 6
    matrix M of its simple roots' simple_pairings rows, spanned by their
    generalised cross product, entry c = (-1)^c det(M without column c).
    It is primitive on every accepted input, pinned by the T[2] test; with
    its last nonzero coordinate made positive, it is the basis vector that
    row echelon form over the rationals gives.
    """
    if classify_involution(theta, sys) is not ConjClass.SIGMA2:
        raise PreconditionError("center_of_fixed expects an involution of the so(10)+R class")
    rows = [sys.simple_pairings(s) for comp in sys.decomposition(sys.kernel(theta))
            for s in comp.simple]
    cross = [(-1) ** c * _det([row[:c] + row[c + 1:] for row in rows])
             for c in range(sys.rank)]
    if next(x for x in reversed(cross) if x) < 0:
        cross = [-x for x in cross]
    return (tuple(cross),)


def holomorphic_type_check(sigma: TorusCharacter, theta: TorusCharacter,
                           sys: RootSystem) -> bool:
    """Whether sigma fixes the centre generator of theta's fixed subalgebra.

    Always True for the toral sigma this engine represents (see the module
    docstring); a theta outside the so(10)+R class raises.
    """
    if sigma.order > 2:
        raise PreconditionError("sigma must be an involution or the identity")
    center_of_fixed(theta, sys)  # validates theta's class
    return True
