"""Neighborhood filters, convergence, and topology separation.

Every map is isolated; a basic neighborhood of the adjoined integer k
consists of k itself plus the offset-class members with shift k whose
irregular head has moved out beyond i.  Varying the offset set yields
pairwise distinct topologies, told apart by which tail sequences still
converge.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .core import (
    InvalidShift,
    NoiseParams,
    PartialIso,
    _Value,
    elements,
    from_anatomy,
    in_offset_class,
    leq,
)
from .extension import ExtElem, Group


class OffsetOutOfRange(ValueError):
    """Sequence index is too small for the kept-offset pattern and shift."""


class OutsideSpace(ValueError):
    """The tail sequence leaves the bounded-noise monoid."""


class NotDistinct(ValueError):
    """The two offset sets coincide, so no separating sequence exists."""


class NbhdSpec(_Value):
    """Basic neighborhood of Group(k): the base point plus every
    offset-class member with shift k and tail_start >= i."""

    __slots__ = ("k", "i", "params")

    def __init__(self, k: int, i: int, params: NoiseParams) -> None:
        if i < 1:
            raise ValueError("neighborhood index must be >= 1")
        super().__init__(k, i, params)


def nbhd_member(x: ExtElem, spec: NbhdSpec) -> bool:
    if isinstance(x, Group):
        return x.k == spec.k
    return x.shift == spec.k and x.tail_start >= spec.i and in_offset_class(x, spec.params)


class TailSeqSpec(_Value):
    """Closed-form element sequence: at index n the domain is
    {n - m : m in kept_offsets} plus the tail [n, oo), moved by shift."""

    __slots__ = ("kept_offsets", "shift")

    def __init__(self, kept_offsets: Iterable[int] = frozenset(), shift: int = 0) -> None:
        kept_offsets = frozenset(kept_offsets)
        for m in sorted(kept_offsets):
            if m < 2:
                raise ValueError(f"kept offset {m} must be >= 2")
        super().__init__(kept_offsets, shift)

    @property
    def max_offset(self) -> int:
        return max(self.kept_offsets, default=0)


def min_index(spec: TailSeqSpec) -> int:
    """Smallest n at which the sequence element exists."""
    return max(1, spec.max_offset + 1, spec.max_offset + 1 - spec.shift)


def seq_elem(spec: TailSeqSpec, n: int) -> PartialIso:
    """The n-th element; tail_start is n and the head offsets are exactly
    the kept ones."""
    if n < min_index(spec):
        raise OffsetOutOfRange(f"need n >= {min_index(spec)}, got {n}")
    # the domain minimum is n - max_offset; every point from there up to
    # n is a gap except the kept ones
    width = spec.max_offset
    gaps = (1 << width) - 1
    for m in spec.kept_offsets:
        gaps &= ~(1 << (width - m))
    return from_anatomy(n - width, gaps, spec.shift)


def _require_inside(spec: TailSeqSpec, params: NoiseParams) -> None:
    if spec.max_offset > params.j:
        raise OutsideSpace(
            f"kept offset {spec.max_offset} exceeds the noise bound {params.j}"
        )


def converges(spec: TailSeqSpec, k: int, params: NoiseParams) -> bool:
    """Closed form: the sequence converges to Group(k) iff the shift is k
    and every kept offset is allowed by the topology's offset set."""
    _require_inside(spec, params)
    return spec.shift == k and spec.kept_offsets <= params.offsets


def empirical_converges(
    spec: TailSeqSpec,
    k: int,
    params: NoiseParams,
    depth: int = 20,
    horizon: int = 60,
) -> bool:
    """Probe convergence directly: for every neighborhood index up to
    depth, the sequence must sit inside the neighborhood over the whole
    closing stretch of the probe range.

    The last ten indices stand in for "eventually"; the n-th element has
    tail_start n, so membership at index i is the index-1 membership
    plus n >= i.  That holds for every i up to depth exactly when every
    element of the stretch is an index-1 member and the stretch starts
    at depth or later, so the cost does not grow with depth.
    """
    _require_inside(spec, params)
    start = min_index(spec)
    if horizon < start:
        raise ValueError(f"horizon {horizon} is below the first index {start}")
    base = NbhdSpec(k, 1, params)
    stretch = range(max(start, horizon - 9), horizon + 1)
    inside = [nbhd_member(seq_elem(spec, n), base) for n in stretch]
    return depth < 1 or (all(inside) and stretch.start >= depth)


def distinguish(m1, m2, j: int) -> TailSeqSpec:
    """A tail sequence converging to Group(0) in exactly one of the two
    topologies given by offset sets m1 and m2."""
    s1, s2 = frozenset(m1), frozenset(m2)
    for m in sorted(s1 | s2):
        if not 2 <= m <= j:
            raise ValueError(f"offset {m} outside 2..{j}")
    diff = s1 ^ s2
    if not diff:
        raise NotDistinct("offset sets are equal")
    return TailSeqSpec(frozenset({min(diff)}), 0)


def cutoff_witness(k: int, i: int):
    """Largest shift-k element excluded from the index-i neighborhood:
    the noise-0 map with tail_start i - 1, when such an element exists.

    For negative k and small i no shift-k element has tail_start below i,
    the index constraint is vacuous, and there is nothing to cut: returns
    None.
    """
    if i < 2:
        raise ValueError("neighborhood index must be >= 2")
    try:
        return from_anatomy(i - 1, 0, k)
    except InvalidShift:
        return None


def upset_pool(k: int, n_max: int = 8) -> tuple[PartialIso, ...]:
    """The maps nbhd_upset_agreement checks at level k: every excluded
    subset of {1..n_max} with shift k - 1, k or k + 1."""
    return tuple(elements(range(1, n_max + 1), (k - 1, k, k + 1)))


def nbhd_upset_agreement(
    k: int,
    i: int,
    params: NoiseParams,
    n_max: int = 8,
    pool: Optional[Iterable[PartialIso]] = None,
) -> bool:
    """Check, over a truncated enumeration, that the neighborhood equals
    {Group(k)} plus the shift-k offset-class members NOT above the cutoff
    witness (no cut when the witness does not exist).

    ``pool`` is the enumeration to check, ``upset_pool(k, n_max)`` when
    omitted; a caller checking many (i, params) at one level builds it
    once and hands it over.
    """
    w = cutoff_witness(k, i)  # refuses i < 2
    spec = NbhdSpec(k, i, params)
    # the level's own base point is a member, the next level's is not
    if not nbhd_member(Group(k), spec) or nbhd_member(Group(k + 1), spec):
        return False
    for x in upset_pool(k, n_max) if pool is None else pool:
        alt = x.shift == k and in_offset_class(x, params) and (w is None or not leq(w, x))
        if nbhd_member(x, spec) != alt:
            return False
    return True
