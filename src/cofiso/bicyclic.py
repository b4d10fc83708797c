"""Bicyclic monoid: exponent normal forms, two-letter words, the embedding.

The noise-0 elements form a copy of the bicyclic monoid <p, q | pq = 1>:
ALPHA realizes p and BETA realizes q, and every noise-0 element is
BETA^k * ALPHA^l for a unique pair (k, l) of non-negative exponents.

>>> normalize_word(parse_word("ab"))
BicyclicNF(0,0)
>>> embed(BicyclicNF(2, 3))
iso([1,2],1)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional

from .core import ALPHA, BETA, IDENTITY, PartialIso, from_anatomy


class WordError(ValueError):
    """Word contains a letter outside the two-generator alphabet."""


@dataclass(frozen=True, order=True)
class BicyclicNF:
    """Normal form q^k p^l: k backward steps then l forward steps."""

    k: int
    l: int

    def __post_init__(self) -> None:
        if self.k < 0 or self.l < 0:
            raise ValueError("exponents must be non-negative")

    def __mul__(self, other: "BicyclicNF") -> "BicyclicNF":
        # q^k p^l * q^m p^n = q^(k+m-d) p^(l+n-d) with d = min(l, m)
        d = min(self.l, other.k)
        return BicyclicNF(self.k + other.k - d, self.l + other.l - d)

    def __repr__(self) -> str:
        return f"BicyclicNF({self.k},{self.l})"


def embed(u: BicyclicNF) -> PartialIso:
    """Realize q^k p^l as the partial shift BETA^k * ALPHA^l."""
    return from_anatomy(u.k + 1, 0, u.l - u.k)


def recognize(g: PartialIso) -> Optional[BicyclicNF]:
    """Exponent form of a noise-0 element; None for anything else."""
    if g.noise != 0:
        return None
    k = g.tail_start - 1
    l = k + g.shift
    assert l >= 0, "construction invariant keeps the forward exponent >= 0"
    return BicyclicNF(k, l)


_LETTER_NF = {"a": BicyclicNF(0, 1), "b": BicyclicNF(1, 0)}
_LETTER_ISO = {"a": ALPHA, "b": BETA}


def parse_word(text: str) -> tuple[str, ...]:
    """Letters of a two-generator word; whitespace is ignored."""
    out = []
    for pos, ch in enumerate(text, start=1):
        if ch.isspace():
            continue
        if ch not in _LETTER_NF:
            raise WordError(f"column {pos}: expected 'a' or 'b', got {ch!r}")
        out.append(ch)
    return tuple(out)


def normalize_word(word: tuple[str, ...]) -> BicyclicNF:
    """Fold the word left to right in normal-form arithmetic."""
    return reduce(lambda u, v: u * v, (_LETTER_NF[c] for c in word), BicyclicNF(0, 0))


def word_iso(word: tuple[str, ...]) -> PartialIso:
    """Fold the word left to right as partial shifts (an independent route)."""
    return reduce(lambda g, h: g * h, (_LETTER_ISO[c] for c in word), IDENTITY)


def reduce_word(word: tuple[str, ...], rightmost: bool = False) -> str:
    """Delete cancelling 'ab' pairs one at a time until none remain.

    The rewriting system has a single rule, so leftmost-first and
    rightmost-first strategies land on the same irreducible word
    b^k a^l; used to cross-check normalize_word.
    """
    s = "".join(word)
    while True:
        idx = s.rfind("ab") if rightmost else s.find("ab")
        if idx < 0:
            return s
        s = s[:idx] + s[idx + 2:]
