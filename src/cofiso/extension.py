"""The bounded-noise monoid with the integer group adjoined as an ideal.

Adjoining one element per shift value turns the quotient onto the
integers into an inner ideal: Group(k) * x = x * Group(k) = Group(k + pi x).
Group(0) then commutes with everything, and the up-sets above it are the
shift-0 layer of the monoid.

>>> ext_mul(Group(3), BETA)
grp(2)
"""

from __future__ import annotations

import operator
from typing import Union

from .core import (
    ALPHA,
    BETA,
    NoiseParams,
    PartialIso,
    _check_walk,
    _ones,
    _Value,
    elements,
    leq,
    noise_bounded,
)


class NotInUpSet(ValueError):
    """Argument must sit above the adjoined zero (shift 0 or Group(0))."""


class Group(_Value):
    """Element k of the adjoined integer group."""

    __slots__ = ("k",)
    _order = operator.attrgetter("k")

    def __init__(self, k: int) -> None:
        object.__setattr__(self, "k", k)

    def __repr__(self) -> str:
        return f"grp({self.k})"


ExtElem = Union[PartialIso, Group]


def ext_pi(x: ExtElem) -> int:
    return x.k if isinstance(x, Group) else x.pi


def ext_mul(x: ExtElem, y: ExtElem) -> ExtElem:
    """Product in the extended semigroup; any Group factor absorbs.

    The operands are not checked against a noise bound: a product of maps
    of noise at most j has noise at most j.
    """
    if isinstance(x, PartialIso) and isinstance(y, PartialIso):
        return x * y
    return Group(ext_pi(x) + ext_pi(y))


def ext_inv(x: ExtElem) -> ExtElem:
    return Group(-x.k) if isinstance(x, Group) else x.inverse()


def ext_leq(x: ExtElem, y: ExtElem) -> bool:
    """Natural partial order on the extension.

    Group elements are minimal: Group(k) sits below exactly the shift-k
    maps and itself; distinct Group elements are incomparable; a map is
    never below a Group element.
    """
    if isinstance(x, Group):
        return x == y if isinstance(y, Group) else y.pi == x.k
    return isinstance(y, PartialIso) and leq(x, y)


class UpSet(_Value):
    """Truncated up-set plus a flag saying whether the truncation is everything."""

    __slots__ = ("elements", "complete")


def _gaps_upto(x: PartialIso, bound: int) -> int:
    """x's gap mask cut to the points up to bound; a far bound cuts nothing."""
    width = min(max(bound + 1 - x.dom_min, 0), x.noise)
    return x.gaps & ((1 << width) - 1)


def _walked_points(x: ExtElem, bound: int) -> int:
    """How many points the up-set of x walks up to bound, read off the
    anatomy: the points below dom_min plus the gaps up to bound."""
    if isinstance(x, Group):
        return max(bound, 0)
    return min(x.dom_min - 1, max(bound, 0)) + _gaps_upto(x, bound).bit_count()


def up_set_truncated(x: ExtElem, params: NoiseParams, bound: int) -> UpSet:
    """All y >= x whose excluded set fits inside {1..bound}: x first
    when it is a Group element, then maps ordered by excluded set.

    For a map this is the whole (finite) up-set as soon as bound reaches
    tail_start - 1; for a Group element the up-set is infinite and the
    truncation is never complete.  A walk past the listing budget is
    refused with OverBudget, ahead of the noise check.
    """
    _check_walk(_walked_points(x, bound), "upset walks", "subsets")
    if isinstance(x, Group):
        shift, points, complete, members = x.k, range(1, bound + 1), False, [x]
    elif not noise_bounded(x, params.j):
        # named by its anatomy: the excluded points may be far too many to list
        raise ValueError(
            f"the map with tail start {x.tail_start} and shift {x.shift} "
            f"has noise {x.noise}, above the bound {params.j}"
        )
    else:
        # the excluded points up to bound, read off the anatomy, so a far
        # dom_min costs nothing past bound and a far bound nothing past
        # the noise
        u = x.dom_min
        points = [*range(1, min(u, bound + 1)), *(u + i for i in _ones(_gaps_upto(x, bound)))]
        shift, members = x.shift, []
        complete = max(bound, 0) >= x.tail_start - 1
    # the subsets come in lexicographic order, which is the maps' order
    members.extend(elements(points, (shift,), params.j))
    return UpSet(tuple(members), complete)


def _require_above_zero(x: ExtElem, k: int) -> None:
    if k < 1:
        raise ValueError("step count must be >= 1")
    if isinstance(x, Group):
        if x.k != 0:
            raise NotInUpSet(f"{x!r} is not above grp(0)")
    elif x.shift != 0:
        # named by its anatomy: the excluded points may be far too many to list
        raise NotInUpSet(
            f"the map with tail start {x.tail_start} and shift {x.shift} is not above grp(0)"
        )


def translate_right(x: ExtElem, k: int) -> ExtElem:
    """Right-multiply by the k-step forward shift: up-set of 0 -> up-set of k.

    Inverted by right-multiplying with BETA^k.
    """
    _require_above_zero(x, k)
    return ext_mul(x, ALPHA ** k)


def translate_left(x: ExtElem, k: int) -> ExtElem:
    """Left-multiply by the k-step backward shift: up-set of 0 -> up-set of -k.

    Inverted by left-multiplying with ALPHA^k.
    """
    _require_above_zero(x, k)
    return ext_mul(BETA ** k, x)
