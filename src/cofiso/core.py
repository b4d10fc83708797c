"""Exact algebra of cofinite partial shifts of the positive integers.

An injective partial self-map of {1, 2, 3, ...} that is defined off a
finite set and preserves all distances must be a translation
x -> x + shift on its whole domain: a reflection would eventually send
large points below 1.  Such a map splits into an irregular head and a
plain shifted tail, and is stored losslessly as that anatomy: the least
domain point ``dom_min``, a bitmask ``gaps`` of the excluded points above
it (bit i stands for dom_min + i) and the ``shift``.  The head has length
``noise = gaps.bit_length()`` and the tail starts at dom_min + noise.
Every operation here is exact integer arithmetic on that triple, so it
costs time in the noise, not in the tail start; the excluded set is
derived from the triple on demand.

Composition is written left to right: ``a * b`` applies ``a`` first.
All values are immutable and all functions are pure.

>>> ALPHA * BETA == IDENTITY
True
>>> BETA * ALPHA
iso([1],0)
>>> (BETA ** 10**9).tail_start
1000000001
"""

from __future__ import annotations

from functools import cached_property, total_ordering
from typing import Iterable, Iterator, Optional


class InvalidShift(ValueError):
    """The shift would move the least domain point out of the positive integers."""


class NotIdempotent(ValueError):
    """The operation requires a partial identity (shift 0)."""


class OverBudget(ValueError):
    """The call would list or check more than the budget allows; refused up front."""


# the most elements, subsets, offset sets or excluded points one call may list
_BUDGET = 1 << 16


def _check_walk(exponent: int, what: str, items: str) -> None:
    # 2^exponent > _BUDGET, decided without building 2^exponent
    if exponent >= _BUDGET.bit_length():
        raise OverBudget(f"{what} 2^{exponent} {items}, above the budget of {_BUDGET}")


def subsets(points: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """Subsets of the ascending points in lexicographic order, by index stack.

    >>> list(subsets([1, 2, 3]))
    [(), (1,), (1, 2), (1, 2, 3), (1, 3), (2,), (2, 3), (3,)]
    """
    pts = tuple(points)
    stack: list[int] = []  # indices of the chosen points, ascending
    chosen: list[int] = []  # the points themselves, kept in step
    while True:
        yield tuple(chosen)
        i = stack[-1] + 1 if stack else 0
        if i < len(pts):
            stack.append(i)
            chosen.append(pts[i])
        elif len(stack) > 1:
            stack.pop()
            chosen.pop()
            stack[-1] += 1
            chosen[-1] = pts[stack[-1]]
        else:
            return


def elements(
    points: Iterable[int], shifts: Iterable[int], j: Optional[int] = None
) -> Iterator["PartialIso"]:
    """Every element excluding a subset of the ascending points, with a
    shift from ``shifts`` and noise at most j (no cap when j is None):
    subsets in lexicographic order, shifts in the given order within each.

    >>> list(elements([1, 2], (-1, 0)))
    [iso([],0), iso([1],-1), iso([1],0), iso([1,2],-1), iso([1,2],0), iso([2],0)]
    """
    shifts = tuple(shifts)
    for ex in subsets(points):
        g = PartialIso(ex)  # shift 0 is always admissible
        if j is not None and g.noise > j:
            continue
        for s in shifts:
            if s >= 1 - g.dom_min:
                yield from_anatomy(g.dom_min, g.gaps, s)


class _Value:
    """Base of the small immutable value classes: the fields are the names
    in ``__slots__``, written once by ``__init__`` in that order.  A class
    built on a hot path writes them itself with object.__setattr__, which
    takes half the time.  Values are equal, and hash equal, when their
    class and fields are, and print as ``Name(field=value, ...)``.
    """

    __slots__ = ()

    @property
    def _fields(self) -> tuple[str, ...]:
        return self.__slots__

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{self.__class__.__name__} takes the fields {self._fields}, got {len(values)} values")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


def _bits(gaps: int) -> str:
    """Binary digits of a gap mask, least significant first."""
    return bin(gaps)[:1:-1] if gaps else ""


def _fill(g: "PartialIso", dom_min: int, gaps: int, shift: int) -> "PartialIso":
    if shift < 1 - dom_min:
        raise InvalidShift(f"shift {shift} sends the domain minimum {dom_min} below 1")
    # the instance is frozen; its slots are written once, here or in
    # from_anatomy, through the slot setters bound below the class
    _set_dom_min(g, dom_min)
    _set_gaps(g, gaps)
    _set_shift(g, shift)
    _set_tail_start(g, dom_min + gaps.bit_length())
    return g


@total_ordering
class PartialIso:
    """A cofinite partial shift: x -> x + shift off the ``excluded`` set.

    Built from the strictly ascending ``excluded`` tuple; construction
    enforces shift >= 1 - dom_min so the range stays inside the positive
    integers.  Stored as (dom_min, gaps, shift) in slots, see the module
    docstring, with the derived ``tail_start`` in a fourth slot beside
    them; the instance dict holds only the lazily cached ``excluded``.
    Equality, hashing and pickling use the three fields; ordering
    follows (excluded, shift).
    """

    __slots__ = ("dom_min", "gaps", "shift", "tail_start", "__dict__")

    def __init__(self, excluded: Iterable[int] = (), shift: int = 0) -> None:
        u, gaps, prev = 1, 0, 0
        for e in excluded:
            if not isinstance(e, int) or e < 1:
                raise ValueError(f"excluded point {e!r} is not a positive integer")
            if e <= prev:
                raise ValueError("excluded points must be strictly ascending")
            prev = e
            # the points 1, 2, ... excluded in a row lie below dom_min;
            # after the first domain point every later one is a gap
            if e == u:
                u += 1
            else:
                gaps |= 1 << (e - u)
        _fill(self, u, gaps, shift)

    # -- structure ---------------------------------------------------------

    @cached_property
    def excluded(self) -> tuple[int, ...]:
        """The finite set off which the map is defined, ascending."""
        u = self.dom_min
        return (*range(1, u), *(u + i for i, b in enumerate(_bits(self.gaps)) if b == "1"))

    @property
    def ran_min(self) -> int:
        return self.dom_min + self.shift

    @property
    def ran_tail_start(self) -> int:
        """Least n with [n, oo) inside the range; equals tail_start + shift."""
        return self.tail_start + self.shift

    @property
    def noise(self) -> int:
        """Length of the irregular head: tail_start - dom_min.  Never 1."""
        return self.gaps.bit_length()

    @property
    def pi(self) -> int:
        """Image under the projection onto the integer quotient group."""
        return self.shift

    @property
    def is_idempotent(self) -> bool:
        return self.shift == 0

    def defined_at(self, x: int) -> bool:
        i = x - self.dom_min
        return i >= 0 and not self.gaps >> i & 1

    def hits(self, y: int) -> bool:
        """True when y lies in the range."""
        return self.defined_at(y - self.shift)

    def apply(self, x: int) -> Optional[int]:
        return x + self.shift if self.defined_at(x) else None

    # -- algebra -----------------------------------------------------------

    def compose(self, other: "PartialIso") -> "PartialIso":
        """Apply self first, then other.

        Defined where self is defined and the image lands in other's
        domain, so the composite excludes self's excluded set plus the
        pullback of other's; shifts add.  Both sets are everything below
        a minimum plus a mask above it: align the masks at the larger
        minimum, or them, and move the minimum past any run of excluded
        points that now starts there.
        """
        u, v = self.dom_min, other.dom_min - self.shift
        if u >= v:
            gaps = self.gaps | other.gaps >> (u - v)
        else:
            u, gaps = v, self.gaps >> (v - u) | other.gaps
        if gaps & 1:
            run = (~gaps & (gaps + 1)).bit_length() - 1
            u += run
            gaps >>= run
        return from_anatomy(u, gaps, self.shift + other.shift)

    __mul__ = compose

    def inverse(self) -> "PartialIso":
        """The range, with the same gaps, carried back by -shift."""
        return from_anatomy(self.dom_min + self.shift, self.gaps, -self.shift)

    def __pow__(self, n: int) -> "PartialIso":
        """Square and multiply: O(log |n|) compositions."""
        base = self if n >= 0 else self.inverse()
        out = IDENTITY
        n = abs(n)
        while n:
            if n & 1:
                out = out.compose(base)
            n >>= 1
            if n:
                base = base.compose(base)
        return out

    def tail(self) -> "PartialIso":
        """Restriction to [tail_start, oo): the noise-0 part.

        This is a retraction onto the bicyclic submonoid and a
        homomorphism: (a * b).tail() == a.tail() * b.tail().
        """
        return from_anatomy(self.tail_start, 0, self.shift)

    # -- value semantics: frozen, equal by anatomy ----------------------------

    __setattr__ = _Value.__setattr__
    __delattr__ = _Value.__delattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.dom_min == other.dom_min and self.gaps == other.gaps and self.shift == other.shift

    def __hash__(self) -> int:
        return hash((self.dom_min, self.gaps, self.shift))

    def __reduce__(self):
        return from_anatomy, (self.dom_min, self.gaps, self.shift)

    def __lt__(self, other: "PartialIso") -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.excluded, self.shift) < (other.excluded, other.shift)

    def __repr__(self) -> str:
        return f"iso([{','.join(map(str, self.excluded))}],{self.shift})"


_set_dom_min = PartialIso.dom_min.__set__
_set_gaps = PartialIso.gaps.__set__
_set_shift = PartialIso.shift.__set__
# the least n with the whole ray [n, oo) inside the domain: dom_min + noise
_set_tail_start = PartialIso.tail_start.__set__


def from_anatomy(dom_min: int, gaps: int, shift: int) -> PartialIso:
    """The element with least domain point dom_min, gap mask gaps (bit i
    marks dom_min + i as excluded, bit 0 clear) and the given shift."""
    if dom_min < 1 or gaps < 0 or gaps & 1:
        raise ValueError(f"no element has dom_min {dom_min} and gap mask {gaps}")
    # _fill written out: every product, inverse and tail comes through
    # here, and the extra call layer cost a few percent of the sweep
    if shift < 1 - dom_min:
        raise InvalidShift(f"shift {shift} sends the domain minimum {dom_min} below 1")
    g = object.__new__(PartialIso)
    _set_dom_min(g, dom_min)
    _set_gaps(g, gaps)
    _set_shift(g, shift)
    _set_tail_start(g, dom_min + gaps.bit_length())
    return g


IDENTITY = PartialIso()
ALPHA = PartialIso((), 1)      # x -> x + 1, defined everywhere
BETA = PartialIso((1,), -1)    # x -> x - 1, defined on [2, oo)


def make(excluded: Iterable[int], shift: int) -> PartialIso:
    """Canonicalizing constructor: sorts and deduplicates the excluded set."""
    return PartialIso(tuple(sorted(set(excluded))), shift)


def punctured_identity(i: int) -> PartialIso:
    """Identity of the positive integers with the single point i removed."""
    if i < 1:
        raise ValueError("puncture index must be >= 1")
    return PartialIso((i,), 0)


class NoiseParams(_Value):
    """Ambient noise bound j plus the offset set selecting a subsemigroup.

    ``offsets`` must sit inside {2, ..., j}.  The empty set selects the
    bicyclic submonoid, the full set {2..j} the whole noise-j monoid.
    """

    _fields = ("j", "offsets")
    # the offset_mask memo sits beside the fields: (width built, mask)
    __slots__ = (*_fields, "_offset_mask")

    def __init__(self, j: int, offsets: Iterable[int] = frozenset()) -> None:
        offsets = frozenset(offsets)
        if j < 0:
            raise ValueError("noise bound must be >= 0")
        for m in sorted(offsets):
            if not 2 <= m <= j:
                raise ValueError(f"offset {m} outside 2..{j}")
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "_offset_mask", (0, 0))

    @classmethod
    def full(cls, j: int) -> "NoiseParams":
        """Widest offset set {2, ..., j}."""
        return cls(j, frozenset(range(2, j + 1)))

    def offset_mask(self, width: int) -> tuple[int, int]:
        """(w, mask) with w >= width and bit w - o of mask set for each
        allowed offset o up to w: the offsets reversed against w, as the
        head of a noise-w gap mask holds them.

        Built once and widened only when a wider head asks, so the mask
        grows with the heads checked, not with the largest offset: an
        explicit offset near a huge j would not fit in memory as one bit.
        """
        w, mask = self._offset_mask
        if w < width:
            w, mask = width, sum(1 << (width - o) for o in self.offsets if o <= width)
            object.__setattr__(self, "_offset_mask", (w, mask))
        return w, mask


# -- natural order and the group congruence -------------------------------


def leq(a: PartialIso, b: PartialIso) -> bool:
    """Natural partial order: a is b restricted to a smaller domain."""
    # b's excluded set must lie inside a's: b's minimum is no larger, and
    # b's gaps, aligned at a's minimum, are all gaps of a
    return (
        a.shift == b.shift
        and b.dom_min <= a.dom_min
        and not b.gaps >> (a.dom_min - b.dom_min) & ~a.gaps
    )


def group_congruent(a: PartialIso, b: PartialIso) -> bool:
    """Minimum group congruence; holds exactly when the shifts agree."""
    return a.shift == b.shift


def group_congruence_witness(a: PartialIso, b: PartialIso) -> Optional[PartialIso]:
    """A partial identity e with e*a == e*b, or None when not congruent.

    The identity of the common tail [max(tail_start), oo) always works.
    """
    if a.shift != b.shift:
        return None
    return from_anatomy(max(a.tail_start, b.tail_start), 0, 0)


# -- Green's relations ----------------------------------------------------


def green_l(a: PartialIso, b: PartialIso) -> bool:
    """Equal domains."""
    return a.dom_min == b.dom_min and a.gaps == b.gaps


def green_r(a: PartialIso, b: PartialIso) -> bool:
    """Equal ranges."""
    return a.ran_min == b.ran_min and a.gaps == b.gaps


def green_h(a: PartialIso, b: PartialIso) -> bool:
    return a == b


def green_d(a: PartialIso, b: PartialIso) -> bool:
    """The domains are translates of each other: equal gap masks."""
    return a.gaps == b.gaps


def d_witness(a: PartialIso, b: PartialIso) -> Optional[PartialIso]:
    """Partial shift carrying dom(a) onto dom(b), or None.

    Shares a's excluded set, hence a's noise; the shift is forced by the
    domain minima and is always admissible.
    """
    if not green_d(a, b):
        return None
    return from_anatomy(a.dom_min, a.gaps, b.dom_min - a.dom_min)


def green_j(a: PartialIso, b: PartialIso) -> bool:
    """Always true: the monoid has a single two-sided ideal class."""
    return True


# -- noise classes --------------------------------------------------------


def noise_bounded(g: PartialIso, j: int) -> bool:
    return g.noise <= j


def head_offsets(g: PartialIso) -> tuple[int, ...]:
    """Distances from early domain points back to tail_start (0 included)."""
    # the domain points up to tail_start are dom_min + i for the clear
    # bits i of the gap mask, plus tail_start itself
    n = g.noise
    return tuple(n - i for i, b in enumerate(_bits(g.gaps) + "0") if b == "0")


def in_offset_class(g: PartialIso, params: NoiseParams) -> bool:
    """Every domain point below tail_start sits at an allowed offset.

    Bit i of the gap mask is the point at offset n - i, n the noise; the
    offset mask shifted down to width n sets bit n - o for each allowed
    offset o, so the test is that the two together fill bits 0..n-1.
    """
    gaps = g.gaps
    n = gaps.bit_length()  # the noise
    if n > params.j:
        return False
    w, mask = params._offset_mask
    if n > w:
        w, mask = params.offset_mask(n)
    return gaps | mask >> (w - n) == (1 << n) - 1


def in_offset_class_range(g: PartialIso, params: NoiseParams) -> bool:
    """Range-side form of the offset condition (equivalent to the domain side)."""
    if not noise_bounded(g, params.j):
        return False
    rts = g.ran_tail_start
    # no point below ran_min is in the range
    for y in range(g.ran_min, rts + 1):
        if g.hits(y):
            o = rts - y
            if o != 0 and o not in params.offsets:
                return False
    return True


# -- collapsing chains and the boundary -----------------------------------


def tail_chain(e: PartialIso, depth: int) -> PartialIso:
    """Product e * (BETA*e)^depth * ALPHA^depth.

    For a partial identity e this collapses all head irregularity: the
    result is the plain identity of [tail_start + depth, oo).
    """
    if e.shift != 0:
        raise NotIdempotent(f"{e!r} has shift {e.shift}")
    if depth < 2:
        raise ValueError("depth must be >= 2")
    acc = e
    for _ in range(depth):
        acc = acc * BETA * e
    for _ in range(depth):
        acc = acc * ALPHA
    return acc


def boundary_set(j: int) -> tuple[PartialIso, ...]:
    """Partial identities defined at 1 with noise at most j.

    Exactly the elements of the noise-j monoid that neither left nor
    right multiplication by BETA*ALPHA leaves fixed; the excluded set
    ranges over the subsets of {2, ..., j}, so there are 2^(j-1).
    """
    if j < 2:
        raise ValueError("noise bound must be >= 2")
    return tuple(elements(range(2, j + 1), (0,)))
