import copy
import pickle

import pytest

from cofiso.core import ALPHA, IDENTITY, NoiseParams, elements, leq, make, subsets
from cofiso.extension import Group, ext_inv, ext_mul
from cofiso.topology import (
    NbhdSpec,
    NotDistinct,
    OffsetOutOfRange,
    OutsideSpace,
    TailSeqSpec,
    converges,
    cutoff_witness,
    distinguish,
    empirical_converges,
    min_index,
    nbhd_member,
    nbhd_upset_agreement,
    seq_elem,
    upset_pool,
)


class TestMembership:
    def test_base_point_always_included(self):
        assert nbhd_member(Group(0), NbhdSpec(0, 5, NoiseParams(2, {2})))

    def test_index_cutoff(self):
        assert not nbhd_member(IDENTITY, NbhdSpec(0, 2, NoiseParams(2)))
        assert nbhd_member(IDENTITY, NbhdSpec(0, 1, NoiseParams(2)))

    def test_offset_pattern_checked_below_the_tail(self):
        g = make([1, 2, 3, 5], 0)
        assert nbhd_member(g, NbhdSpec(0, 5, NoiseParams(2, {2})))
        assert not nbhd_member(g, NbhdSpec(0, 5, NoiseParams(2)))

    def test_other_levels_excluded(self):
        assert not nbhd_member(Group(1), NbhdSpec(0, 1, NoiseParams(2)))
        assert not nbhd_member(ALPHA, NbhdSpec(0, 1, NoiseParams(2)))

    def test_index_must_be_positive(self):
        with pytest.raises(ValueError):
            NbhdSpec(0, 0, NoiseParams(2))


class TestSequences:
    def test_kept_offset_leaves_one_point(self):
        assert seq_elem(TailSeqSpec({2}, 0), 6) == make([1, 2, 3, 5], 0)

    def test_empty_pattern_is_a_tail_identity(self):
        assert seq_elem(TailSeqSpec(frozenset(), 0), 4) == make([1, 2, 3], 0)

    def test_shift_carried_through(self):
        assert seq_elem(TailSeqSpec({2}, 1), 6) == make([1, 2, 3, 5], 1)

    @pytest.mark.parametrize("kept", list(subsets(range(2, 6))), ids=repr)
    def test_first_index_is_the_least_index_with_an_element(self, kept):
        for shift in range(-3, 4):
            spec = TailSeqSpec(kept, shift)
            top = max(kept, default=0)
            assert spec.first_index == max(1, top + 1, top + 1 - shift) == min_index(spec)
            # the least n whose domain minimum n - top and range minimum
            # n - top + shift are both positive
            least = next(n for n in range(1, 20) if n - top >= 1 and n - top + shift >= 1)
            assert spec.first_index == least
            assert seq_elem(spec, least).tail_start == least
            with pytest.raises(OffsetOutOfRange, match=f"need n >= {least}, got {least - 1}"):
                seq_elem(spec, least - 1)
            for twin in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)):
                assert twin == spec and twin.first_index == least
            assert repr(spec) == f"TailSeqSpec(kept_offsets={frozenset(kept)!r}, shift={shift})"

    def test_tail_start_is_the_index(self):
        spec = TailSeqSpec({2, 4}, -1)
        for n in range(min_index(spec), min_index(spec) + 5):
            g = seq_elem(spec, n)
            assert g.tail_start == n
            assert g.noise == 4

    def test_too_small_an_index_rejected(self):
        with pytest.raises(OffsetOutOfRange):
            seq_elem(TailSeqSpec({2}, 0), 2)

    def test_offsets_below_two_rejected(self):
        with pytest.raises(ValueError):
            TailSeqSpec({1}, 0)


class TestConverges:
    def test_kept_offset_inside_m(self):
        assert converges(TailSeqSpec({2}, 0), 0, NoiseParams(2, {2}))

    def test_kept_offset_outside_m(self):
        assert not converges(TailSeqSpec({2}, 0), 0, NoiseParams(2))

    def test_pure_tail_sequence_converges_everywhere(self):
        spec = TailSeqSpec(frozenset(), 1)
        for p in (NoiseParams(2), NoiseParams(2, {2}), NoiseParams(3, {2, 3})):
            assert converges(spec, 1, p)

    def test_wrong_level_diverges(self):
        assert not converges(TailSeqSpec(frozenset(), 1), 0, NoiseParams(2))

    def test_sequence_leaving_the_space_rejected(self):
        with pytest.raises(OutsideSpace):
            converges(TailSeqSpec({3}, 0), 0, NoiseParams(2))

    def test_probe_agrees_on_the_frozen_rows(self):
        rows = [
            (TailSeqSpec({2}, 0), 0, NoiseParams(2, {2})),
            (TailSeqSpec({2}, 0), 0, NoiseParams(2)),
            (TailSeqSpec(frozenset(), 1), 1, NoiseParams(3, {3})),
            (TailSeqSpec({2}, -1), -1, NoiseParams(2, {2})),
        ]
        for spec, k, p in rows:
            assert empirical_converges(spec, k, p) == converges(spec, k, p)

    def test_probe_horizon_validated(self):
        with pytest.raises(ValueError):
            empirical_converges(TailSeqSpec(frozenset(), 0), 0, NoiseParams(2), horizon=0)

    def test_probe_cost_does_not_grow_with_depth(self):
        spec = TailSeqSpec(frozenset(), 0)
        far = 10**12
        assert empirical_converges(spec, 0, NoiseParams(2), depth=far - 9, horizon=far)
        assert not empirical_converges(spec, 0, NoiseParams(2), depth=far, horizon=far)


def _loop_probe(spec, k, params, depth, horizon):
    """The probe as a loop over every neighborhood index up to depth: the
    reference for the closed form in empirical_converges."""
    start = min_index(spec)
    base = NbhdSpec(k, 1, params)
    stretch = range(max(start, horizon - 9), horizon + 1)
    inside = {n: nbhd_member(seq_elem(spec, n), base) for n in stretch}
    for i in range(1, depth + 1):
        if not all(inside[n] and n >= i for n in stretch):
            return False
    return True


# Every kept-offset set of level 4 and shift in -2..2, in a topology that
# allows half of the sets.  The full product of k, depth and horizon is
# ~10^6 probes, so the per-spec test takes the depths around the stretch
# start, and one converging spec takes the whole depth-by-horizon grid.
_PROBE_PARAMS = NoiseParams(4, {2, 4})
_PROBE_SPECS = [TailSeqSpec(kept, shift) for kept in subsets(range(2, 5)) for shift in range(-2, 3)]


class TestProbeClosedForm:
    @pytest.mark.parametrize("spec", _PROBE_SPECS, ids=repr)
    def test_matches_the_loop_at_the_stretch_start(self, spec):
        first = min_index(spec)
        for k in range(-2, 3):
            for horizon in (first, first + 9, 70):
                start = max(first, horizon - 9)
                for depth in {-1, 0, 1, start - 1, start, start + 1, 70}:
                    got = empirical_converges(spec, k, _PROBE_PARAMS, depth, horizon)
                    assert got == _loop_probe(spec, k, _PROBE_PARAMS, depth, horizon), (k, depth, horizon)

    def test_matches_the_loop_on_every_depth_and_horizon(self):
        spec = TailSeqSpec({2, 4}, -2)
        assert converges(spec, -2, _PROBE_PARAMS)
        for horizon in range(min_index(spec), 71):
            for depth in range(-1, 71):
                got = empirical_converges(spec, -2, _PROBE_PARAMS, depth, horizon)
                assert got == _loop_probe(spec, -2, _PROBE_PARAMS, depth, horizon), (depth, horizon)


class TestDistinguish:
    def test_witness_uses_the_smallest_difference(self):
        spec = distinguish(frozenset({2}), frozenset({3}), 3)
        assert spec == TailSeqSpec({2}, 0)
        assert converges(spec, 0, NoiseParams(3, {2}))
        assert not converges(spec, 0, NoiseParams(3, {3}))

    def test_empty_against_singleton(self):
        assert distinguish(frozenset(), frozenset({2}), 2) == TailSeqSpec({2}, 0)

    def test_equal_sets_rejected(self):
        with pytest.raises(NotDistinct):
            distinguish(frozenset({2}), frozenset({2}), 2)

    def test_offsets_validated_against_j(self):
        with pytest.raises(ValueError):
            distinguish(frozenset({5}), frozenset(), 3)


class TestUpsetCharacterization:
    def test_agreement_on_the_frozen_rows(self):
        assert nbhd_upset_agreement(0, 5, NoiseParams(2, {2}))
        assert nbhd_upset_agreement(2, 4, NoiseParams(3, {2, 3}))
        assert nbhd_upset_agreement(-1, 4, NoiseParams(2))

    @pytest.mark.parametrize("j", [2, 3])
    def test_a_shared_pool_gives_the_same_verdicts(self, j):
        # every (k, i, offset set) the upset_char suite checks at N = 8
        pools = {k: upset_pool(k, 8) for k in range(-2, 3)}
        for k, pool in pools.items():
            assert pool == tuple(elements(range(1, 9), (k - 1, k, k + 1)))
        for offsets in subsets(range(2, j + 1)):
            p = NoiseParams(j, offsets)
            for k, pool in pools.items():
                for i in range(2, 9):
                    shared = nbhd_upset_agreement(k, i, p, pool=pool)
                    assert shared == nbhd_upset_agreement(k, i, p), (k, i, offsets)

    def test_cutoff_witness_shape(self):
        assert cutoff_witness(0, 4) == make([1, 2], 0)
        assert cutoff_witness(2, 2) == make([], 2)
        assert cutoff_witness(-1, 4) == make([1, 2], -1)

    def test_witness_absent_exactly_when_cutoff_vacuous(self):
        # for level k < 0 every element already starts its tail at
        # 1 + |k| or later, so small indices constrain nothing and no
        # witness element exists
        assert cutoff_witness(-1, 2) is None
        assert cutoff_witness(-2, 3) is None
        assert cutoff_witness(-1, 3) == make([1], -1)


class TestIndexReadings:
    def test_literal_zero_base_point_reading_fails_off_zero(self):
        # the characterization's base point must follow the level k;
        # keeping the base fixed at level 0 breaks every k != 0 case
        spec = NbhdSpec(2, 3, NoiseParams(2))
        assert not nbhd_member(Group(0), spec)
        assert nbhd_member(Group(2), spec)

    def test_same_index_inversion_identity_fails_off_zero(self):
        p = NoiseParams(0)
        x = make([1, 2], -1)
        assert nbhd_member(x, NbhdSpec(-1, 3, p))
        assert not nbhd_member(ext_inv(x), NbhdSpec(1, 3, p))
        assert nbhd_member(ext_inv(x), NbhdSpec(1, 2, p))

    def test_same_index_left_translation_fails_for_forward_shift(self):
        # left-multiplying by a forward shift can pull the tail start
        # down, so the image neighborhood index must drop by the shift
        p = NoiseParams(2)
        x = make([1, 2, 3], 0)
        assert nbhd_member(x, NbhdSpec(0, 4, p))
        moved = ext_mul(ALPHA, x)
        assert moved == make([1, 2], 1)
        assert not nbhd_member(moved, NbhdSpec(1, 4, p))
        assert nbhd_member(moved, NbhdSpec(1, 3, p))

    def test_printed_negative_shift_witness_characterizes_shifted_index(self):
        # padding the witness's excluded run to compensate a negative
        # shift moves the cutoff from index i to index i - k
        k, i = -1, 4
        mine = cutoff_witness(k, i)
        padded = make(range(1, i - 1 - k), k)
        pool = [make(range(1, m), k) for m in range(2, 9)]
        for g in pool:
            assert (not leq(mine, g)) == (g.tail_start >= i)
            assert (not leq(padded, g)) == (g.tail_start >= i - k)
        assert any(g.tail_start >= i and leq(padded, g) for g in pool)
