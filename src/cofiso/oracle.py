"""Independent checks: exhaustive enumeration and windowed composition.

The enumeration lists every element within an exclusion/shift budget.
The window oracle composes maps pointwise on an initial segment of the
naturals, long enough that the element can be reconstructed from the
table alone; agreement with the algebraic composition is what the main
equivalence property verifies.  It reads only each map's ``excluded``
set and ``shift``, never its anatomy, so it stays an independent route.
What it reads of an element, its hole set, shift and reach, is built
once per element (``_view``); a pair then costs one window and one table.
"""

from __future__ import annotations

import operator
from typing import Iterator, Optional

from .core import PartialIso, _Value, elements


class EnumBounds(_Value):
    """Budget for exhaustive enumeration: excluded points drawn from
    {1..n}, shifts from -s..s, optional noise cap j."""

    __slots__ = ("n", "s", "j")

    def __init__(self, n: int, s: int, j: Optional[int] = None) -> None:
        n, s, j = operator.index(n), operator.index(s), None if j is None else operator.index(j)
        if n < 0 or s < 0:
            raise ValueError("bounds must be non-negative")
        if j is not None and j < 0:
            raise ValueError("noise cap must be non-negative")
        super().__init__(n, s, j)


def enumerate_elements(bounds: EnumBounds) -> Iterator[PartialIso]:
    """All valid elements within the budget, exclusion sets in
    lexicographic tuple order, shifts ascending within each set."""
    yield from elements(range(1, bounds.n + 1), range(-bounds.s, bounds.s + 1), bounds.j)


def _view(g: PartialIso) -> tuple[frozenset, int, int]:
    """What the window reads of g, built once per element: its holes (the
    excluded set), its shift and its reach, the last hole plus |shift|."""
    ex = g.excluded
    return frozenset(ex), g.shift, (ex[-1] if ex else 0) + abs(g.shift)


def _table(va: tuple, vb: tuple) -> tuple[int, dict, list]:
    """The window, the table of (a then b) on it and the points of the
    window the table omits, from a's and b's views."""
    (holes_a, shift_a, reach_a), (holes_b, shift_b, reach_b) = va, vb
    # one spare column past every irregularity, after a's shift is applied
    window = max(reach_a, reach_b) + abs(shift_a) + 2
    table, undefined = {}, []
    for x in range(1, window + 1):
        y = x + shift_a
        if x in holes_a or y < 1 or y in holes_b:
            undefined.append(x)
        else:
            table[x] = y + shift_b
    return window, table, undefined


def window_compose(a: PartialIso, b: PartialIso) -> dict:
    """Pointwise table of (a then b) on 1..window: x -> b(a(x)), with
    undefined points omitted."""
    return _table(_view(a), _view(b))[1]


def _compose_views(va: tuple, vb: tuple) -> PartialIso:
    """Rebuild the composite of the viewed maps from their window table:
    its one shift and the points it omits."""
    window, table, undefined = _table(va, vb)
    shifts = {z - x for x, z in table.items()}
    assert len(shifts) == 1, "window table is not a single translation off its holes"
    # undefined points must not run into the window edge, or the tail
    # start would be misread
    assert not undefined or undefined[-1] < window, "window too small to see the tail"
    return PartialIso(undefined, shifts.pop())


def compose_via_window(a: PartialIso, b: PartialIso) -> PartialIso:
    """Rebuild the composite element from its window table alone."""
    return _compose_views(_view(a), _view(b))
