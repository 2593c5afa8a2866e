"""Fixed-point subalgebras of toral character sets and involution classes.

Inner involutions of e6 fall into exactly two conjugacy classes, told apart
by the dimension of their fixed subalgebra (su(6)+sp(1) versus so(10)+R),
that is by the number of roots they fix (the Cartan subalgebra is fixed
by both).  The count is compared with the kernel of the su(6)+sp(1)
reference character on the caller's root system rather than a hard-coded
number; every other involution is of the so(10)+R class.  The census over
all 63 involutions of T[2] in the tests pins both classes.
"""
from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple

from .errors import PreconditionError
from .rootsys import Root, RootSystem, SubsystemComponent, compact_name, render_summands
from .toral import TorusCharacter


class ConjClass(Enum):
    IDENTITY = "identity"
    SIGMA1 = "sigma1"
    SIGMA2 = "sigma2"

    @property
    def label(self) -> str:
        return self.value


def sigma1_reference() -> TorusCharacter:
    """Reference involution with fixed subalgebra of type su(6)+sp(1)."""
    return TorusCharacter(2, (0, 1, 0, 0, 0, 0))


def sigma2_reference() -> TorusCharacter:
    """Reference involution with fixed subalgebra of type so(10)+R."""
    return TorusCharacter(2, (1, 0, 0, 0, 0, 1))


class FixedSubalgebra(NamedTuple):
    """A fixed subalgebra: the irreducible components of its roots in
    (-rank, family) order, and the number of centre lines."""
    components: tuple[SubsystemComponent, ...]
    center: int

    @property
    def fixed_roots(self) -> frozenset[Root]:
        """The fixed roots, the union of the components' roots."""
        return frozenset().union(*(c.roots for c in self.components))

    @property
    def dim(self) -> int:
        """Roots plus rank, per component, plus the centre."""
        return sum(len(c.roots) + c.rank for c in self.components) + self.center

    def render(self) -> str:
        """Canonical compact-form spelling, e.g. 'su(4)+2su(2)+c'."""
        return render_summands([compact_name(c.family, c.rank) for c in self.components],
                               self.center)


def fixed_subalgebra(chars: Iterable[TorusCharacter], sys: RootSystem) -> FixedSubalgebra:
    """Joint fixed-point subalgebra of a set of toral characters.

    The Cartan subalgebra is always fixed (toral characters act trivially
    on it), so the centre is the directions of it that the components'
    coroots do not span: the rank minus the components' ranks, never
    negative as a subsystem's simple roots are linearly independent
    (Humphreys 10.1).  The fixed roots are the intersection of the
    characters' kernels, closed (chi(a) = chi(b) = 0 gives chi(a + b) = 0)
    and negation-symmetric by construction, so they are decomposed here
    once, unvalidated; callers read the components.
    """
    fixed = sys.roots.intersection(*(sys.kernel(c) for c in chars))
    comps = sys.decomposition(fixed)
    return FixedSubalgebra(components=comps, center=sys.rank - sum(c.rank for c in comps))


def classify_involution(chi: TorusCharacter, sys: RootSystem) -> ConjClass:
    """Conjugacy class of a toral involution of e6: sigma1 when it fixes as
    many roots of sys as sigma1_reference() does (32), else sigma2 (40)."""
    if (sys.family, sys.rank) != ("E", 6):
        raise PreconditionError("involution classification is specific to E6")
    if chi.order > 2:
        raise PreconditionError(f"character has order {chi.order}, not an involution")
    if chi.order == 1:
        return ConjClass.IDENTITY
    if len(sys.kernel(chi)) == len(sys.kernel(sigma1_reference())):
        return ConjClass.SIGMA1
    return ConjClass.SIGMA2


def mu(chi: TorusCharacter, sys: RootSystem) -> int:
    """Sign invariant of an involution: -1 on the su(6)+sp(1) class, else +1."""
    cls = classify_involution(chi, sys)
    return -1 if cls is ConjClass.SIGMA1 else 1
