"""Inner automorphisms of e6 lying in a fixed maximal torus.

A toral automorphism acts on each root space by a root of unity and
trivially on the Cartan subalgebra, so it is faithfully encoded by a
homomorphism from the root lattice to Z/m: we store the exponent it
assigns to each of the six simple roots.  Characters are canonicalised on
construction (the modulus is reduced to the element's order), which makes
equality mean equality of automorphisms and keeps group closures exact.
``embed_su6_sp1`` builds one from su(6)+sp(1) data; ``generate_group``
closes commuting involutions into a group that labels each element by one
word over the generator names, e.g. "x1x4" in x1x4x5.

The su(6)+sp(1) dictionary: a diagonal special-unitary element with
exponents d_1..d_6 together with an sp(1) torus exponent y acts on the
simple-root chain alpha_1, alpha_3, alpha_4, alpha_5, alpha_6 by the
consecutive differences d_i - d_{i+1} and on alpha_2 by y + d_4 + d_5 + d_6.
With that convention the highest root always evaluates to 2y, and every
root whose alpha_2 coefficient is odd evaluates to d_i + d_j + d_k +/- y
for some index triple, matching the weights of the third exterior power of
the defining representation tensored with the rank-one factor.

The four builtin rank-3 groups of commuting toral involutions
(``builtin_groups``) are realised through the su(6)+sp(1) embedding from
explicit diagonal data mod 4 (the characters are canonical, so no other
modulus could change them); composite names are resolved multiplicatively
(in x1x4x5 the datum given is x1*x4, so x4 = x1*(x1*x4); in y1y3y4 the
data are y1*y3, y1*y4 and y4; in y3y4y5 they are y3*y4, y5 and y3).
"""
from __future__ import annotations

from functools import reduce
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import PreconditionError

RANK = 6


class TorusCharacter:
    """Homomorphism from the e6 root lattice to the m-th roots of unity.

    The stored form is canonical: the modulus equals the order of the
    automorphism and the exponents are reduced accordingly, so two
    characters compare equal exactly when they act identically.
    """
    __slots__ = ("modulus", "exps")

    def __init__(self, modulus: int, exps: tuple[int, ...]):
        if modulus < 1:
            raise PreconditionError("character modulus must be >= 1")
        if len(exps) != RANK:
            raise PreconditionError(f"need {RANK} exponents, got {len(exps)}")
        exps = tuple(e % modulus for e in exps)
        g = reduce(gcd, exps, modulus)
        object.__setattr__(self, "modulus", modulus // g)
        object.__setattr__(self, "exps", tuple(e // g for e in exps))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not TorusCharacter:
            return NotImplemented
        return self.modulus == other.modulus and self.exps == other.exps

    def __hash__(self) -> int:
        return hash((self.modulus, self.exps))

    def __reduce__(self):
        return TorusCharacter, (self.modulus, self.exps)

    @property
    def order(self) -> int:
        # Canonical form divides out gcd(modulus, exponents), so the
        # stored modulus is exactly the order.
        return self.modulus

    def evaluate(self, root: Sequence[int]) -> int:
        """Exponent (mod modulus) of the character's value on a lattice vector."""
        return sum(map(mul, root, self.exps)) % self.modulus

    def __mul__(self, other: "TorusCharacter") -> "TorusCharacter":
        m = lcm(self.modulus, other.modulus)
        sa, sb = m // self.modulus, m // other.modulus
        return TorusCharacter(m, tuple((ea * sa + eb * sb) % m
                                       for ea, eb in zip(self.exps, other.exps)))

    def __repr__(self) -> str:
        return f"chi(m={self.modulus}, {list(self.exps)})"


def identity_character() -> TorusCharacter:
    return TorusCharacter(1, (0,) * RANK)


def from_chain_order(chain: Sequence[int]) -> tuple[int, ...]:
    """Exponents given in chain order (alpha_1, alpha_3 .. alpha_6, alpha_2),
    reordered as alpha_1 .. alpha_6."""
    return (chain[0], chain[5], chain[1], chain[2], chain[3], chain[4])


def embed_su6_sp1(modulus: int, diag: Sequence[int], sp1: int) -> TorusCharacter:
    """Automorphism of e6 induced by a diagonal element of SU(6) x Sp(1).

    ``diag`` holds six exponents mod ``modulus`` summing to 0 (only diagonal
    unitary parts are representable; the builtin groups need no others) and
    ``sp1`` the sp(1) exponent.  The chain alpha_1, alpha_3, alpha_4,
    alpha_5, alpha_6 receives the consecutive exponent differences of the
    diagonal; alpha_2 receives sp1 + d_4 + d_5 + d_6.  The centre of the
    product group (the scalar cube root of unity and the simultaneous sign
    flip) maps to the identity character, so the embedding factors through
    the quotient that actually acts on e6.
    """
    if modulus < 1:
        raise PreconditionError("modulus must be >= 1")
    if len(diag) != 6:
        raise PreconditionError("diagonal needs 6 exponents")
    d = [e % modulus for e in diag]
    if sum(d) % modulus != 0:
        raise PreconditionError(
            f"determinant violation: diagonal exponents {d} "
            f"do not sum to 0 mod {modulus}")
    chain = [d[i] - d[i + 1] for i in range(5)]
    chain.append(sp1 + d[3] + d[4] + d[5])
    return TorusCharacter(modulus, from_chain_order(chain))


class CharacterGroup(NamedTuple):
    """Finite group of torus characters, each element labelled by one word.

    ``labels`` maps each element's word over the base generators ("1" for
    the empty word) to its character, shortest words first.
    """
    name: str
    labels: Mapping[str, TorusCharacter]

    @property
    def order(self) -> int:
        return len(self.labels)

    @property
    def rank(self) -> int:
        """Rank over F_2: generate_group builds only elementary abelian
        2-groups, so the order is 2**rank."""
        return self.order.bit_length() - 1

    def element(self, label: str) -> TorusCharacter:
        if label not in self.labels:
            raise PreconditionError(f"group {self.name} has no element {label!r}")
        return self.labels[label]

    def nonidentity(self) -> tuple[tuple[str, TorusCharacter], ...]:
        return tuple((l, c) for l, c in self.labels.items() if c.order > 1)


def generate_group(base: Iterable[tuple[str, TorusCharacter]], name: str = "") -> CharacterGroup:
    """Close a set of labelled involutions into an elementary abelian 2-group.

    Each element's word joins, in base order, the names of the generators
    it is the product of ("1" for the identity).  A generator of order > 2
    is rejected, and so is a base whose 2**k words or 2**k products are not
    all distinct (names "a", "b", "ab"; an identity or dependent generator).
    """
    base = tuple(base)
    for label, char in base:
        if char.order > 2:
            raise PreconditionError(
                f"generator {label!r} has order {char.order} > 2; "
                "expected an elementary abelian 2-group")
    k = len(base)
    labels: dict[str, TorusCharacter] = {}
    for mask in sorted(range(1 << k), key=lambda m: (m.bit_count(), m)):
        word = "".join(base[i][0] for i in range(k) if mask >> i & 1) or "1"
        char = identity_character()
        for i in range(k):
            if mask >> i & 1:
                char = char * base[i][1]
        labels[word] = char
    if len(labels) != 1 << k or len(set(labels.values())) != 1 << k:
        raise PreconditionError(
            f"base names {[label for label, _ in base]} do not give "
            f"{1 << k} distinct elements and {1 << k} distinct words")
    return CharacterGroup(name=name, labels=labels)


GROUP_NAMES = ("x1x2x4", "x1x4x5", "y1y3y4", "y3y4y5")


def builtin_groups() -> dict[str, CharacterGroup]:
    """The four rank-3 groups of commuting involutions, with element labels.

    Each has order 8; the tests and selftest's involution census pin that."""

    def emb(diag, sp1):
        return embed_su6_sp1(4, diag, sp1)

    minus_one = emb((0,) * 6, 2)            # (I6, -1)
    i3_i3_i = emb((1, 1, 1, 3, 3, 3), 1)    # (diag(i,i,i,-i,-i,-i), i)
    i5_i = emb((1, 1, 1, 1, 1, 3), 1)       # (diag(i,i,i,i,i,-i), i)
    m2_p4 = emb((2, 2, 0, 0, 0, 0), 0)      # (diag(-1,-1,1,1,1,1), 1)
    m4_p2 = emb((2, 2, 2, 2, 0, 0), 0)      # (diag(-1,-1,-1,-1,1,1), 1)
    m22 = emb((2, 2, 0, 2, 2, 0), 0)        # (diag(-1,-1,1,-1,-1,1), 1)

    return {
        "x1x2x4": generate_group(
            [("x1", minus_one), ("x2", i3_i3_i), ("x4", m22)], "x1x2x4"),
        "x1x4x5": generate_group(
            [("x1", minus_one), ("x4", minus_one * m2_p4), ("x5", m4_p2)], "x1x4x5"),
        "y1y3y4": generate_group(
            [("y1", i3_i3_i * i5_i), ("y3", minus_one * i3_i3_i * i5_i), ("y4", i5_i)],
            "y1y3y4"),
        "y3y4y5": generate_group(
            [("y3", i5_i), ("y4", minus_one * i5_i), ("y5", m4_p2)], "y3y4y5"),
    }
