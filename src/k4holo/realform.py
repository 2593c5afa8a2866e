"""Real-form identification for theta-stable reductive subalgebras.

A real form is named by its complex type together with the type of its
maximal compact subalgebra, which is injective across the vocabulary that
can occur here.  For each simple ideal of the subalgebra we compute the
subsystem fixed by the Cartan-involution character and look the pattern up:

  A_n ideal:  everything fixed               -> compact su(n+1)
              A_{p-1} + A_{q-1} + 1 centre   -> su(p, q)
  D_n ideal:  everything fixed               -> compact so(2n)
              shape of D_p + D_q (q >= 1)    -> so(2p, 2q)
              A_{n-1} + 1 centre             -> so*(2n)

where D_1 contributes a centre line, D_2 = A_1 + A_1 and D_3 = A_3.  For a
D_4 ideal the patterns A_3 + centre and D_3 + D_1 coincide, as do the
algebras so*(8) and so(6,2); the so(6,2) spelling wins.  Any other pattern
raises rather than guessing.  Only equal-rank forms can arise from toral
involutions, so the table deliberately omits split/quaternionic families.

Centre summands of the subalgebra are always compact: toral characters fix
the Cartan subalgebra pointwise.

theta's fixed roots are read from the root system's kernel of theta, which
is computed once per character, and the centre of theta's fixed subalgebra
is found by fraction-free integer elimination: no rational arithmetic.
"""
from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple, Sequence

from .errors import InternalConsistencyError, PreconditionError, UnmappedPatternError
from .reductive import ConjClass, FixedSubalgebra, classify_involution
from .rootsys import (ReductiveType, Root, RootSystem, decompose_closed_subset,
                      render_multiplicities)
from .toral import TorusCharacter

_KIND_ORDER = {"su": 0, "so": 1, "so_star": 2, "su_c": 3, "so_c": 4}


class RealFormLabel(NamedTuple):
    """One real simple ideal.

    kinds: "su" = su(a,b); "su_c" = compact su(a); "so" = so(2a,2b);
    "so_star" = so*(2a); "so_c" = compact so(2a).
    """
    kind: str
    a: int
    b: int = 0

    @property
    def is_compact(self) -> bool:
        return self.kind in ("su_c", "so_c")

    @property
    def complex_rank(self) -> int:
        if self.kind == "su":
            return self.a + self.b - 1
        if self.kind == "su_c":
            return self.a - 1
        if self.kind == "so":
            return self.a + self.b
        return self.a

    @property
    def compact_part_dim(self) -> int:
        """Dimension of a maximal compact subalgebra of this ideal."""
        if self.kind == "su":
            return self.a ** 2 + self.b ** 2 - 1
        if self.kind == "su_c":
            return self.a ** 2 - 1
        if self.kind == "so":
            return self.a * (2 * self.a - 1) + self.b * (2 * self.b - 1)
        if self.kind == "so_star":
            return self.a ** 2
        return self.a * (2 * self.a - 1)

    @property
    def complex_type(self) -> tuple[str, int]:
        if self.kind in ("su", "su_c"):
            return ("A", self.complex_rank)
        return ("D", self.complex_rank)

    def sort_key(self) -> tuple:
        return (1 if self.is_compact else 0, -self.complex_rank,
                _KIND_ORDER[self.kind], -self.a, -self.b)

    def render(self, style: str = "plain") -> str:
        if self.kind == "su":
            if style == "survey" and (self.a, self.b) == (1, 1):
                return "sl(2,R)"
            return f"su({self.a},{self.b})"
        if self.kind == "su_c":
            return f"su({self.a})"
        if self.kind == "so":
            return f"so({2 * self.a},{2 * self.b})"
        if self.kind == "so_star":
            return f"so*({2 * self.a})"
        return f"so({2 * self.a})"


class RealFormType(NamedTuple("RealFormType", [("ideals", tuple[RealFormLabel, ...]),
                                                ("center", tuple[str, ...])])):
    """Multiset of real simple ideals plus labelled centre lines.

    Centre entries are "c" (compact, i.e. a rotation line) or "R" (split);
    toral Cartan involutions only ever produce "c".  Both are stored sorted.
    """
    __slots__ = ()

    def __new__(cls, ideals: tuple[RealFormLabel, ...], center: tuple[str, ...]):
        return super().__new__(cls, tuple(sorted(ideals, key=RealFormLabel.sort_key)),
                               tuple(sorted(center)))

    def complexification(self) -> ReductiveType:
        comps = sorted((l.complex_type for l in self.ideals),
                       key=lambda c: (-c[1], c[0]))
        return ReductiveType(components=tuple(comps), center_dim=len(self.center))

    def render(self, style: str = "plain") -> str:
        parts = render_multiplicities([l.render(style) for l in self.ideals])
        ncomp = self.center.count("c")
        nsplit = self.center.count("R")
        if ncomp:
            if style == "survey":
                parts.append("so(2)" if ncomp == 1 else f"{ncomp}so(2)")
            else:
                parts.append("c" if ncomp == 1 else f"{ncomp}c")
        if nsplit:
            parts.append("R" if nsplit == 1 else f"{nsplit}R")
        return "+".join(parts) if parts else "0"


def _d_shape(k: int) -> tuple[tuple[tuple[str, int], ...], int]:
    """Component multiset and centre count of the compact algebra so(2k)."""
    if k == 1:
        return ((), 1)
    if k == 2:
        return ((("A", 1), ("A", 1)), 0)
    if k == 3:
        return ((("A", 3),), 0)
    return ((("D", k),), 0)


def _ideal_label(family: str, n: int, comp_roots: frozenset[Root],
                 fixed_in: frozenset[Root], sys: RootSystem) -> RealFormLabel:
    if fixed_in == comp_roots:
        if family == "A":
            return RealFormLabel("su_c", n + 1)
        if family == "D":
            return RealFormLabel("so_c", n)
        raise UnmappedPatternError(
            f"no real-form vocabulary for a compact {family}{n} ideal",
            pattern=(family, n, "all fixed"))

    sub = decompose_closed_subset(fixed_in, sys)
    comps = tuple(sorted(((c.family, c.rank) for c in sub),
                         key=lambda c: (-c[1], c[0])))
    inner_center = n - sum(r for _, r in comps)
    pattern = (family, n, comps, inner_center)

    if family == "A":
        if inner_center == 1 and len(comps) <= 2 and all(f == "A" for f, _ in comps):
            ranks = sorted((r for _, r in comps), reverse=True) + [0, 0]
            p, q = ranks[0] + 1, ranks[1] + 1
            if p + q == n + 1:
                return RealFormLabel("su", p, q)
        raise UnmappedPatternError(
            f"fixed pattern {comps} + {inner_center} centre inside A{n} "
            "matches no equal-rank real form", pattern=pattern)

    if family == "D":
        for q in range(1, n // 2 + 1):
            p = n - q
            p_comps, p_center = _d_shape(p)
            q_comps, q_center = _d_shape(q)
            expected = tuple(sorted(p_comps + q_comps, key=lambda c: (-c[1], c[0])))
            if comps == expected and inner_center == p_center + q_center:
                return RealFormLabel("so", p, q)
        if inner_center == 1 and comps == (("A", n - 1),):
            # For n = 4 this pattern is already caught above as so(6,2),
            # which is the same algebra as so*(8).
            return RealFormLabel("so_star", n)
        raise UnmappedPatternError(
            f"fixed pattern {comps} + {inner_center} centre inside D{n} "
            "matches no equal-rank real form", pattern=pattern)

    raise UnmappedPatternError(
        f"no real-form vocabulary for an {family}{n} ideal", pattern=pattern)


def identify_real_form(sub: FixedSubalgebra, theta: TorusCharacter,
                       sys: RootSystem) -> RealFormType:
    """Real form of a theta-stable subalgebra determined by theta's action.

    theta-stability is automatic here: all characters share one torus.
    Every identification is dimension-checked (compact part of the label
    versus fixed root count plus rank) before being returned.
    """
    if theta.order > 2:
        raise PreconditionError("theta must be an involution or the identity")
    ideals = []
    for comp in sub.components:
        fixed_in = comp.roots & sys.kernel(theta)
        label = _ideal_label(comp.family, comp.rank, comp.roots, fixed_in, sys)
        if label.compact_part_dim != len(fixed_in) + comp.rank:
            raise InternalConsistencyError(
                f"{label.render()} bookkeeping: compact dim {label.compact_part_dim} "
                f"!= {len(fixed_in)} fixed roots + rank {comp.rank}")
        ideals.append(label)
    out = RealFormType(ideals=tuple(ideals),
                       center=("c",) * sub.rtype.center_dim)
    if out.complexification() != sub.rtype:
        raise InternalConsistencyError(
            f"real form {out.render()} does not complexify to {sub.rtype.render()}")
    return out


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
    rows = [tuple(sys.gram[r][s] for s in sys.simple_roots) for r in fixed]
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
