"""Neighborhood filters, convergence, and topology separation.

That every map is isolated is the paper's discreteness claim; no suite
checks it yet (ROADMAP item 2a).  A basic neighborhood of the adjoined
integer k consists of k itself plus the offset-class members with shift
k whose irregular head has moved out beyond i.  Varying the offset set
yields pairwise distinct topologies, told apart by which tail sequences
still converge.
"""

from __future__ import annotations

import operator
import sys
from typing import Iterable

from .core import (
    MAX_POINT,
    InvalidShift,
    NoiseParams,
    OverBudget,
    PartialIso,
    _check_budget,
    _mask,
    _offset_bits,
    _ones,
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
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "params", params)


def nbhd_member(x: ExtElem, spec: NbhdSpec) -> bool:
    if x.__class__ is Group:  # Group has no subclasses
        return x.k == spec.k
    return x.shift == spec.k and x.tail_start >= spec.i and in_offset_class(x, spec.params)


class _Memo(dict):
    """A dict that builds a missing key's value as build(key) and keeps
    it; a key it holds is read at plain dict speed."""

    __slots__ = ("build",)

    def __init__(self, build) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class _MemberIndex:
    """nbhd_member for a whole pool at once: bit n of mask(k, i, p) is
    nbhd_member(pool[n], NbhdSpec(k, i, p)).

    Membership splits into three parts, each a mask over the pool: the
    level (Group(k) or a shift-k map), the tail start (at least i) and
    the offset class.  A Group passes the last two, so a neighborhood is
    the three masks ANDed.  Each is built on first use and kept, so a map
    meets in_offset_class once per offset set.
    """

    __slots__ = ("pool", "_by_level", "_by_tail", "_by_class")

    def __init__(self, pool: list) -> None:
        self.pool = pool
        levels = [x.k if x.__class__ is Group else x.shift for x in pool]
        self._by_level = _Memo(lambda k: _mask([level == k for level in levels]))
        self._by_tail = _Memo(lambda i: _mask([x.__class__ is Group or x.tail_start >= i for x in pool]))
        self._by_class = _Memo(
            lambda p: _mask([x.__class__ is Group or in_offset_class(x, p) for x in pool])
        )

    def mask(self, k: int, i: int, p: NoiseParams) -> int:
        return self._by_level[k] & self._by_tail[i] & self._by_class[p]

    def numbers(self, k: int, i: int, p: NoiseParams) -> list:
        """The pool numbers of the members of NbhdSpec(k, i, p), in
        ascending order: the set bits of mask(k, i, p)."""
        return _ones(self.mask(k, i, p))


class TailSeqSpec(_Value):
    """Closed-form element sequence: at index n the domain is
    {n - m : m in kept_offsets} plus the tail [n, oo), moved by shift."""

    _fields = ("kept_offsets", "shift")
    # the head every element shares sits beside the fields: its width
    # max_offset, the first index at which an element exists and the
    # memo of head_gaps, None until first built
    __slots__ = (*_fields, "max_offset", "first_index", "_head_gaps")

    def __init__(self, kept_offsets: Iterable[int] = frozenset(), shift: int = 0) -> None:
        kept_offsets, shift = frozenset(map(operator.index, kept_offsets)), operator.index(shift)
        for m in sorted(kept_offsets):
            if m < 2:
                raise ValueError(f"kept offset {m} must be >= 2")
        super().__init__(kept_offsets, shift)
        top = max(kept_offsets, default=0)
        object.__setattr__(self, "max_offset", top)
        # the domain minimum n - top and the range minimum n - top + shift
        # must both be at least 1
        object.__setattr__(self, "first_index", max(1, top + 1, top + 1 - shift))
        object.__setattr__(self, "_head_gaps", None)

    def head_gaps(self) -> int:
        """Gap mask of the head: bit i for the point i above the domain
        minimum, set for every point up to the tail but the kept ones.

        Built on first use, not in __init__: a kept offset near a huge
        level would not fit in memory as one bit, and a spec that is
        only checked against its level never needs the mask.
        """
        gaps = self._head_gaps
        if gaps is None:
            width = self.max_offset
            gaps = (1 << width) - 1 ^ _offset_bits(self.kept_offsets, width)
            object.__setattr__(self, "_head_gaps", gaps)
        return gaps


def min_index(spec: TailSeqSpec) -> int:
    """Smallest n at which the sequence element exists."""
    return spec.first_index


def seq_elem(spec: TailSeqSpec, n: int) -> PartialIso:
    """The n-th element; tail_start is n and the head offsets are exactly
    the kept ones."""
    if n < spec.first_index:
        raise OffsetOutOfRange(f"need n >= {spec.first_index}, got {n}")
    # the domain minimum is n - max_offset; every point from there up to
    # n is a gap except the kept ones
    return from_anatomy(n - spec.max_offset, spec.head_gaps(), spec.shift)


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
    at depth or later, so the cost does not grow with depth.  The probe
    stops at the first element outside, and builds none when the stretch
    starts below depth or depth is below 1.  An element's
    gap mask is as wide as the largest kept offset, so one past MAX_POINT
    is refused with OverBudget before any element is built.
    """
    _require_inside(spec, params)
    start = min_index(spec)
    if horizon < start:
        limit = sys.get_int_max_str_digits()
        if limit and start >= 10**limit:  # named by its digit count, as str() refuses it
            from decimal import Decimal

            start = f"of {Decimal(start).adjusted() + 1} digits"
        raise ValueError(f"horizon {horizon} is below the first index {start}")
    if spec.max_offset > MAX_POINT:
        raise OverBudget(f"kept offset {spec.max_offset} is above the cap of {MAX_POINT}")
    base = NbhdSpec(k, 1, params)
    stretch = range(max(start, horizon - 9), horizon + 1)
    return depth < 1 or (
        stretch.start >= depth and all(nbhd_member(seq_elem(spec, n), base) for n in stretch)
    )


def distinguish(m1, m2, j: int) -> TailSeqSpec:
    """A tail sequence converging to Group(0) in exactly one of the two
    topologies given by offset sets m1 and m2."""
    s1, s2 = frozenset(m1), frozenset(m2)
    NoiseParams(j, s1 | s2)  # refuses j < 0 and any offset outside 2..j
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


def upset_pool(k: int, n_max: int) -> tuple[PartialIso, ...]:
    """The maps nbhd_upset_agreement checks at level k: every excluded
    subset of {1..n_max} with shift k - 1, k or k + 1, refused first
    past the listing budget."""
    _check_budget(lambda: f"upset_pool lists 3*2^{n_max} maps", 3, n_max)
    return tuple(elements(range(1, n_max + 1), (k - 1, k, k + 1)))


def nbhd_upset_agreement(k: int, i: int, params: NoiseParams, pool: Iterable[PartialIso]) -> bool:
    """Check, over the maps of pool (upset_pool(k, n_max), built once per
    level and shared by every (i, params)), that the neighborhood equals
    {Group(k)} plus the shift-k offset-class members NOT above the cutoff
    witness (no cut when the witness does not exist)."""
    w = cutoff_witness(k, i)  # refuses i < 2
    spec = NbhdSpec(k, i, params)
    # the level's own base point is a member, the next level's is not
    if not nbhd_member(Group(k), spec) or nbhd_member(Group(k + 1), spec):
        return False
    for x in pool:
        alt = x.shift == k and in_offset_class(x, params) and (w is None or not leq(w, x))
        if nbhd_member(x, spec) != alt:
            return False
    return True
