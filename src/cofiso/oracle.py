"""Independent checks: exhaustive enumeration and windowed composition.

The enumeration lists every element within an exclusion/shift budget.
The window oracle composes maps pointwise on an initial segment of the
naturals, long enough that the element can be reconstructed from the
table alone; agreement with the algebraic composition is what the main
equivalence property verifies.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .core import PartialIso, _Value, elements


class EnumBounds(_Value):
    """Budget for exhaustive enumeration: excluded points drawn from
    {1..n}, shifts from -s..s, optional noise cap j."""

    __slots__ = ("n", "s", "j")

    def __init__(self, n: int, s: int, j: Optional[int] = None) -> None:
        if n < 0 or s < 0:
            raise ValueError("bounds must be non-negative")
        if j is not None and j < 0:
            raise ValueError("noise cap must be non-negative")
        super().__init__(n, s, j)


def enumerate_elements(bounds: EnumBounds) -> Iterator[PartialIso]:
    """All valid elements within the budget, exclusion sets in
    lexicographic tuple order, shifts ascending within each set."""
    yield from elements(range(1, bounds.n + 1), range(-bounds.s, bounds.s + 1), bounds.j)


def _reach(g: PartialIso) -> int:
    return (max(g.excluded) if g.excluded else 0) + abs(g.shift)


def _window(a: PartialIso, b: PartialIso) -> int:
    # one spare column past every irregularity, after a's shift is applied
    return max(_reach(a), _reach(b)) + abs(a.shift) + 2


def window_compose(a: PartialIso, b: PartialIso) -> dict:
    """Pointwise table of (a then b) on 1.._window(a, b): x -> b(a(x)),
    with undefined points omitted."""
    window = _window(a, b)
    # membership is read off the excluded sets, not off the maps' own
    # arithmetic, so the table stays an independent route
    holes_a, holes_b = set(a.excluded), set(b.excluded)
    table = {}
    for x in range(1, window + 1):
        if x in holes_a:
            continue
        y = x + a.shift
        if y < 1 or y in holes_b:
            continue
        table[x] = y + b.shift
    return table


def compose_via_window(a: PartialIso, b: PartialIso) -> PartialIso:
    """Rebuild the composite element from its window table alone."""
    window = _window(a, b)
    table = window_compose(a, b)
    shifts = {z - x for x, z in table.items()}
    assert len(shifts) == 1, "window table is not a single translation off its holes"
    shift = shifts.pop()
    excluded = tuple(x for x in range(1, window + 1) if x not in table)
    # undefined points must not run into the window edge, or the tail
    # start would be misread
    assert not excluded or excluded[-1] < window, "window too small to see the tail"
    return PartialIso(excluded, shift)
