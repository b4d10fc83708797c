"""The element generator and the walks core shares against the routes
they replaced: sorted combinations, built through the checked
constructor, and the hand-written bit loops."""

import random
from itertools import chain, combinations, islice

import pytest

from cofiso.core import (
    InvalidShift,
    NoiseParams,
    PartialIso,
    _bits,
    _offset_bits,
    _ones,
    boundary_set,
    elements,
    from_anatomy,
    in_offset_class,
    leq,
    noise_bounded,
)
from cofiso import topology
from cofiso.extension import Group, UpSet, up_set_truncated
from cofiso.oracle import (
    EnumBounds,
    _compose_views,
    _view,
    compose_via_window,
    enumerate_elements,
    window_compose,
)
from cofiso.properties import _all_params
from cofiso.topology import NbhdSpec, cutoff_witness, nbhd_member, nbhd_upset_agreement, upset_pool


def _combos(points):
    pts = tuple(points)
    return sorted(chain.from_iterable(combinations(pts, r) for r in range(len(pts) + 1)))


def _old_enumerate(bounds):
    out = []
    for ex in _combos(range(1, bounds.n + 1)):
        for s in range(-bounds.s, bounds.s + 1):
            try:
                g = PartialIso(ex, s)
            except InvalidShift:
                continue
            if bounds.j is None or g.noise <= bounds.j:
                out.append(g)
    return out


def _old_elements(points, shifts, j):
    out = []
    for ex in _combos(points):
        for s in shifts:
            try:
                g = PartialIso(ex, s)
            except InvalidShift:
                continue
            if j is None or g.noise <= j:
                out.append(g)
    return out


def _old_candidates(k, n_max):
    out = []
    for ex in _combos(range(1, n_max + 1)):
        for s in (k - 1, k, k + 1):
            try:
                out.append(PartialIso(ex, s))
            except InvalidShift:
                continue
    return out


def _old_agreement(k, i, params, n_max):
    w = cutoff_witness(k, i)
    spec = NbhdSpec(k, i, params)
    if not nbhd_member(Group(k), spec) or nbhd_member(Group(k + 1), spec):
        return False
    for x in _old_candidates(k, n_max):
        alt = x.shift == k and in_offset_class(x, params) and (w is None or not leq(w, x))
        if nbhd_member(x, spec) != alt:
            return False
    return True


def _old_boundary(j):
    return tuple(sorted(PartialIso(c, 0) for r in range(j) for c in combinations(range(2, j + 1), r)))


def _sort_key(e):
    if isinstance(e, Group):
        return (0, e.k, (), 0)
    return (1, 0, e.excluded, e.shift)


def _old_up_set(x, params, bound):
    if isinstance(x, Group):
        shift, points, members, complete = x.k, range(1, bound + 1), [x], False
    else:
        shift, points, members = x.shift, [e for e in x.excluded if e <= bound], []
        complete = not x.excluded or x.excluded[-1] <= bound
    for ex in (c for r in range(len(points) + 1) for c in combinations(points, r)):
        try:
            g = PartialIso(ex, shift)
        except InvalidShift:
            continue
        if noise_bounded(g, params.j):
            members.append(g)
    return UpSet(tuple(sorted(members, key=_sort_key)), complete)


@pytest.mark.parametrize("j", [None, 0, 2, 3])
def test_enumeration_matches_combinations_route(j):
    for n in range(7):
        for s in range(3):
            bounds = EnumBounds(n, s, j)
            assert list(enumerate_elements(bounds)) == _old_enumerate(bounds), bounds


def test_boundary_matches_combinations_route():
    for j in range(2, 9):
        assert boundary_set(j) == _old_boundary(j), j


def test_up_set_matches_combinations_route():
    pool = list(enumerate_elements(EnumBounds(4, 2))) + [Group(k) for k in range(-2, 3)]
    for j in range(4):
        params = NoiseParams(j)
        for x in pool:
            if isinstance(x, PartialIso) and not noise_bounded(x, j):
                with pytest.raises(ValueError):
                    up_set_truncated(x, params, 0)
                continue
            for bound in range(6):
                assert up_set_truncated(x, params, bound) == _old_up_set(x, params, bound), (x, j, bound)


def test_enumeration_streams():
    first = list(islice(enumerate_elements(EnumBounds(64, 0)), 3))
    assert first == [PartialIso((), 0), PartialIso((1,), 0), PartialIso((1, 2), 0)]


@pytest.mark.parametrize(
    "shifts", [(-1, 0, 2), (1,), (), (2, 0, -1, -3)], ids=["asymmetric", "single", "empty", "descending"]
)
@pytest.mark.parametrize("j", [None, 0, 2, 3])
def test_elements_match_combinations_route(shifts, j):
    for n in range(10):
        for points in (range(1, n + 1), range(2, n + 2), (1, 3, 4, 7, 9, 10, 12, 15, 16)[:n]):
            got = list(elements(points, shifts, j))
            assert got == _old_elements(points, shifts, j), (points, shifts)


def test_nbhd_agreement_matches_old_candidate_loop(monkeypatch):
    # record the maps the agreement checks, to compare with the old pool
    seen = []

    def member(x, spec):
        if isinstance(x, PartialIso):
            seen.append(x)
        return nbhd_member(x, spec)

    monkeypatch.setattr(topology, "nbhd_member", member)
    offset_sets = [NoiseParams(j, c) for j in range(4) for c in _combos(range(2, j + 1))]
    for n_max in range(7):
        for k in range(-2, 3):
            pool = _old_candidates(k, n_max)
            for i in range(2, 9):
                for params in offset_sets:
                    seen.clear()
                    got = nbhd_upset_agreement(k, i, params, upset_pool(k, n_max))
                    assert got == _old_agreement(k, i, params, n_max), (k, i, params, n_max)
                    assert seen == pool, (k, i, params, n_max)


def test_elements_stream():
    first = list(islice(elements(range(1, 65), (0,)), 3))
    assert first == [PartialIso((), 0), PartialIso((1,), 0), PartialIso((1, 2), 0)]


def test_noisy_subtrees_are_cut():
    # noise at most 2 keeps the runs {1..r} and the runs with one gap,
    # {1..r, r+2}; the 2^40 subsets past them are never walked
    got = list(elements(range(1, 41), (0,), 2))
    runs = [PartialIso(range(1, r + 1)) for r in range(41)]
    gapped = [PartialIso((*range(1, r + 1), r + 2)) for r in range(39)]
    assert len(got) == 80
    assert got == sorted(runs + gapped, key=lambda g: g.excluded)


@pytest.mark.parametrize("points", [(2, 1), (1, 1), (0, 1), (1, "2"), (1, 2.0)], ids=str)
def test_bad_points_are_refused_before_the_first_yield(points):
    walk = elements(points, (0,))
    with pytest.raises(ValueError):
        next(walk)


def _old_window_compose(a, b):
    # the window table as it was built per pair, from the maps themselves
    def reach(g):
        return (max(g.excluded) if g.excluded else 0) + abs(g.shift)

    window = max(reach(a), reach(b)) + abs(a.shift) + 2
    holes_a, holes_b = set(a.excluded), set(b.excluded)
    table = {}
    for x in range(1, window + 1):
        y = x + a.shift
        if x not in holes_a and y >= 1 and y not in holes_b:
            table[x] = y + b.shift
    return table


def test_window_views_built_once_match_the_pair_route():
    # the views are shared by every pair, so no pair may change one
    pool = list(enumerate_elements(EnumBounds(4, 2)))
    views = [_view(g) for g in pool]
    for a, va in zip(pool, views):
        for b, vb in zip(pool, views):
            assert _compose_views(va, vb) == compose_via_window(a, b) == a * b, (a, b)
            assert window_compose(a, b) == _old_window_compose(a, b), (a, b)
    assert views == [_view(g) for g in pool]


def _old_ones(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _masks():
    rng = random.Random(33)
    yield 0
    for width in (1, 2, 3, 8, 63, 64, 65, 1000):
        yield (1 << width) - 1  # dense
        yield (1 << width) - 1 ^ 1  # dense above bit 0
        for _ in range(5):
            yield rng.getrandbits(width)
    for _ in range(5):
        # a few set bits spread over thousands of clear ones
        yield sum(1 << rng.randrange(5000) for _ in range(4))
    yield 1 << 2000
    yield 1 << 2000 | 1


def test_ones_match_the_bit_loop():
    for mask in _masks():
        assert _ones(mask) == _old_ones(mask), mask


def _old_excluded(g):
    # the digit walk excluded made before the set bits had one helper
    u = g.dom_min
    return (*range(1, u), *(u + i for i, b in enumerate(_bits(g.gaps)) if b == "1"))


def test_excluded_matches_the_digit_walk():
    pool = list(enumerate_elements(EnumBounds(8, 2)))
    # wide sparse maps: a far dom_min and gaps thousands of points apart
    wide = [
        from_anatomy(u, mask & ~1, s)
        for mask in _masks()
        for u in (1, 4, 1000)
        for s in (1 - u, 0, 3)
    ]
    for g in pool + wide:
        fresh = from_anatomy(g.dom_min, g.gaps, g.shift)  # excluded not yet cached
        assert fresh.excluded == _old_excluded(g), g


@pytest.mark.parametrize("j", range(10))
def test_offset_sets_come_in_sorted_combination_order(j):
    listed = _all_params(j)
    assert [p.j for p in listed] == [j] * 2 ** max(j - 1, 0)
    assert [tuple(sorted(p.offsets)) for p in listed] == _combos(range(2, j + 1))


def _old_offset_mask(offsets, width):
    return sum(1 << (width - o) for o in offsets if o <= width)


def _old_head_gaps(kept):
    width = max(kept, default=0)
    gaps = (1 << width) - 1
    for m in kept:
        gaps &= ~(1 << (width - m))
    return gaps


def test_offset_masks_match_the_old_loops():
    grid = [*_combos(range(2, 8)), (2, 500), (3, 64, 2000)]
    for offsets in grid:
        for width in (*range(10), 64, 499, 500, 2001):
            assert _offset_bits(offsets, width) == _old_offset_mask(offsets, width), (offsets, width)
            # a fresh memo is built at the width asked for
            fresh = NoiseParams(max(offsets, default=0), offsets)
            assert fresh.offset_mask(width) == (width, _old_offset_mask(offsets, width)), (offsets, width)
        # one memo widened step by step answers as a fresh one would
        p = NoiseParams(max(offsets, default=0), offsets)
        for width in range(12):
            w, mask = p.offset_mask(width)
            assert w >= width and mask == _old_offset_mask(offsets, w), (offsets, width)
        for shift in (-1, 0, 2):
            assert topology.TailSeqSpec(offsets, shift).head_gaps() == _old_head_gaps(offsets), offsets
