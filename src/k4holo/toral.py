"""Inner automorphisms of e6 lying in a fixed maximal torus.

A toral automorphism acts on each root space by a root of unity and
trivially on the Cartan subalgebra, so it is faithfully encoded by a
homomorphism from the root lattice to Z/m: we store the exponent it
assigns to each of the six simple roots.  Characters are canonicalised on
construction (the modulus is reduced to the element's order), which makes
equality mean equality of automorphisms and keeps group closures exact.

The su(6)+sp(1) dictionary: a diagonal special-unitary element with
exponents d_1..d_6 together with an sp(1) torus exponent y acts on the
simple-root chain alpha_1, alpha_3, alpha_4, alpha_5, alpha_6 by the
consecutive differences d_i - d_{i+1} and on alpha_2 by y + d_4 + d_5 + d_6.
With that convention the highest root always evaluates to 2y, and every
root whose alpha_2 coefficient is odd evaluates to d_i + d_j + d_k +/- y
for some index triple, matching the weights of the third exterior power of
the defining representation tensored with the rank-one factor.
"""
from __future__ import annotations

from functools import reduce
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import ValidationError

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
            raise ValidationError("character modulus must be >= 1")
        if len(exps) != RANK:
            raise ValidationError(f"need {RANK} exponents, got {len(exps)}")
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


def character_from_simple_values(exps: Sequence[int], modulus: int) -> TorusCharacter:
    """Character with value zeta_m^exps[i] on simple root alpha_{i+1}."""
    return TorusCharacter(modulus, tuple(exps))


def identity_character() -> TorusCharacter:
    return TorusCharacter(1, (0,) * RANK)


class UnitaryPairData(NamedTuple("UnitaryPairData",
                                  [("modulus", int), ("diag", tuple[int, ...]), ("sp1", int)])):
    """Diagonal element of SU(6) x Sp(1), stored as torus exponents mod m.

    Only diagonal unitary parts are representable here; that covers every
    generator the builtin groups need.
    """
    __slots__ = ()

    def __new__(cls, modulus: int, diag: tuple[int, ...], sp1: int):
        if modulus < 1:
            raise ValidationError("modulus must be >= 1")
        if len(diag) != 6:
            raise ValidationError("diagonal needs 6 exponents")
        diag = tuple(d % modulus for d in diag)
        if sum(diag) % modulus != 0:
            raise ValidationError(
                f"determinant violation: diagonal exponents {list(diag)} "
                f"do not sum to 0 mod {modulus}")
        return super().__new__(cls, modulus, diag, sp1 % modulus)


def embed_su6_sp1(u: UnitaryPairData) -> TorusCharacter:
    """Automorphism of e6 induced by a diagonal element of SU(6) x Sp(1).

    The chain alpha_1, alpha_3, alpha_4, alpha_5, alpha_6 receives the
    consecutive exponent differences of the diagonal; alpha_2 receives
    sp1 + d_4 + d_5 + d_6.  The centre of the product group (generated by
    the scalar cube root of unity and the simultaneous sign flip) maps to
    the identity character, so the embedding factors through the quotient
    that actually acts on e6.
    """
    m, d, y = u.modulus, u.diag, u.sp1
    chain = [d[i] - d[i + 1] for i in range(5)]
    a2 = y + d[3] + d[4] + d[5]
    exps = (chain[0], a2, chain[1], chain[2], chain[3], chain[4])
    return TorusCharacter(m, tuple(e % m for e in exps))


class CharacterGroup(NamedTuple):
    """Finite group of torus characters with word labels over its base.

    ``labels`` maps every product word over the base generators (plus "1"
    for the empty word) to its character; distinct automorphisms may be hit
    by several words, in which case the earliest shortest word is the
    canonical label.
    """
    name: str
    base: tuple[tuple[str, TorusCharacter], ...]
    labels: Mapping[str, TorusCharacter]
    element_order: tuple[tuple[str, TorusCharacter], ...]

    @property
    def order(self) -> int:
        return len(self.element_order)

    @property
    def rank(self) -> int:
        """Rank over F_2: generate_group builds only elementary abelian
        2-groups, so the order is 2**rank."""
        return self.order.bit_length() - 1

    def element(self, label: str) -> TorusCharacter:
        if label not in self.labels:
            raise KeyError(f"{self.name} has no element labelled {label!r}")
        return self.labels[label]

    def canonical_label(self, char: TorusCharacter) -> str:
        for label, c in self.element_order:
            if c == char:
                return label
        raise KeyError(f"{char!r} is not an element of {self.name}")

    def nonidentity(self) -> tuple[tuple[str, TorusCharacter], ...]:
        return tuple((l, c) for l, c in self.element_order if c.order > 1)


def generate_group(base: Iterable[tuple[str, TorusCharacter]], name: str = "") -> CharacterGroup:
    """Close a set of labelled involutions into an elementary abelian 2-group.

    Word labels are concatenations of base names in base order ("1" for the
    identity); a word that base names spell twice labels its earliest
    shortest product, the order element_order follows.  A base element of
    order > 2 is rejected: the groups modelled here are elementary abelian
    by construction.
    """
    base = tuple(base)
    for label, char in base:
        if char.order > 2:
            raise ValidationError(
                f"generator {label!r} has order {char.order} > 2; "
                "expected an elementary abelian 2-group")
    k = len(base)
    labels: dict[str, TorusCharacter] = {}
    first_word: dict[TorusCharacter, str] = {}
    for mask in sorted(range(1 << k), key=lambda m: (m.bit_count(), m)):
        word = "".join(base[i][0] for i in range(k) if mask >> i & 1) or "1"
        char = identity_character()
        for i in range(k):
            if mask >> i & 1:
                char = char * base[i][1]
        labels.setdefault(word, char)
        first_word.setdefault(char, word)
    return CharacterGroup(name=name, base=base, labels=labels,
                          element_order=tuple((w, c) for c, w in first_word.items()))
