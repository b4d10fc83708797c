"""The subset walker and the element generator against the routes they
replaced: sorted combinations, built through the checked constructor."""

from itertools import chain, combinations, islice

import pytest

from cofiso.core import (
    InvalidShift,
    NoiseParams,
    PartialIso,
    boundary_set,
    elements,
    in_offset_class,
    leq,
    noise_bounded,
    subsets,
)
from cofiso import topology
from cofiso.extension import Group, UpSet, up_set_truncated
from cofiso.oracle import EnumBounds, enumerate_elements
from cofiso.topology import NbhdSpec, cutoff_witness, nbhd_member, nbhd_upset_agreement


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


@pytest.mark.parametrize("n", range(11))
def test_walker_matches_sorted_combinations(n):
    assert list(subsets(range(1, n + 1))) == _combos(range(1, n + 1))


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


def test_walker_needs_no_recursion():
    head = list(islice(subsets(range(2000)), 2001))
    assert head[0] == ()
    assert head[-1] == tuple(range(2000))


@pytest.mark.parametrize(
    "shifts", [(-1, 0, 2), (1,), (), (2, 0, -1, -3)], ids=["asymmetric", "single", "empty", "descending"]
)
@pytest.mark.parametrize("j", [None, 0, 2, 3])
def test_elements_match_combinations_route(shifts, j):
    for n in range(7):
        for points in (range(1, n + 1), range(2, n + 2), (1, 3, 4, 7, 9)[:n]):
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
    offset_sets = [NoiseParams(j, c) for j in range(4) for c in subsets(range(2, j + 1))]
    for n_max in range(7):
        for k in range(-2, 3):
            pool = _old_candidates(k, n_max)
            for i in range(2, 9):
                for params in offset_sets:
                    seen.clear()
                    got = nbhd_upset_agreement(k, i, params, n_max)
                    assert got == _old_agreement(k, i, params, n_max), (k, i, params, n_max)
                    assert seen == pool, (k, i, params, n_max)


def test_elements_stream():
    first = list(islice(elements(range(1, 65), (0,)), 3))
    assert first == [PartialIso((), 0), PartialIso((1,), 0), PartialIso((1, 2), 0)]
