import copy
import inspect
import pickle
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cofiso import core
from cofiso.bicyclic import BicyclicNF, recognize
from cofiso.core import (
    ALPHA,
    BETA,
    IDENTITY,
    InvalidShift,
    NoiseParams,
    NotIdempotent,
    PartialIso,
    _bits,
    _mask,
    _product,
    boundary_set,
    d_witness,
    from_anatomy,
    green_d,
    green_h,
    green_l,
    green_r,
    group_congruence_witness,
    group_congruent,
    head_offsets,
    in_offset_class,
    in_offset_class_range,
    leq,
    make,
    noise_bounded,
    punctured_identity,
    tail_chain,
)
from cofiso.extension import Group, NotInUpSet, ext_inv, ext_leq, ext_mul, translate_left, translate_right, up_set_truncated
from cofiso.oracle import EnumBounds, compose_via_window, enumerate_elements
from cofiso.topology import NbhdSpec, nbhd_member


class TestConstruction:
    def test_alpha_is_the_total_forward_shift(self):
        assert ALPHA == PartialIso((), 1)
        assert ALPHA.apply(3) == 4

    def test_identity(self):
        assert IDENTITY == PartialIso((), 0)
        assert IDENTITY.apply(7) == 7

    def test_shift_too_negative_rejected(self):
        with pytest.raises(InvalidShift):
            PartialIso((1,), -2)

    def test_unsorted_excluded_rejected_by_raw_constructor(self):
        with pytest.raises(ValueError):
            PartialIso((2, 1), 0)
        assert make([2, 1, 2], 0) == PartialIso((1, 2), 0)

    def test_beta_undefined_at_one(self):
        assert BETA.apply(1) is None
        assert BETA.apply(2) == 1

    def test_repr_is_literal_syntax(self):
        assert repr(PartialIso((1, 2), -1)) == "iso([1,2],-1)"
        assert repr(IDENTITY) == "iso([],0)"


class TestCompose:
    def test_alpha_then_beta_is_identity(self):
        assert ALPHA * BETA == IDENTITY

    def test_beta_then_alpha_misses_one(self):
        assert BETA * ALPHA == PartialIso((1,), 0)

    def test_exclusions_pull_back_through_the_first_factor(self):
        assert make([2], 0) * make([3], 1) == make([2, 3], 1)

    def test_pointwise_agreement(self):
        a, b = make([2], 0), make([3], 1)
        c = a * b
        for x in range(1, 12):
            y = a.apply(x)
            expected = b.apply(y) if y is not None else None
            assert c.apply(x) == expected

    def test_powers(self):
        assert BETA ** 2 == BETA * BETA
        assert ALPHA ** 0 == IDENTITY
        assert ALPHA ** -2 == BETA * BETA

    def test_product_anatomy_builds_the_product(self):
        pool = list(enumerate_elements(EnumBounds(4, 2)))
        assert len(pool) == 60
        for a in pool:
            for b in pool:
                assert from_anatomy(*_product(a, b)) == a * b == compose_via_window(a, b), (a, b)

    def test_the_run_strip_is_written_once(self):
        # compose builds the anatomy _product computes and keeps no
        # arithmetic of its own
        strip = "(~gaps & (gaps + 1)).bit_length() - 1"
        assert inspect.getsource(core).count(strip) == 1
        assert strip in inspect.getsource(_product)
        assert "gaps" not in inspect.getsource(PartialIso.compose)


class TestInverse:
    def test_inverse_of_alpha_is_beta(self):
        assert ALPHA.inverse() == BETA
        assert IDENTITY.inverse() == IDENTITY

    def test_inverse_swaps_domain_and_range(self):
        g = make([2], 1)
        assert g.inverse() == make([1, 3], -1)
        assert g * g.inverse() * g == g

    def test_inverse_composes_to_domain_identity(self):
        g = make([2], 1)
        assert g * g.inverse() == make([2], 0)


class TestAccessors:
    def test_identity_profile(self):
        assert (IDENTITY.tail_start, IDENTITY.dom_min, IDENTITY.noise) == (1, 1, 0)

    def test_two_point_gap(self):
        g = make([2, 3], 0)
        assert (g.tail_start, g.dom_min, g.noise) == (4, 1, 3)

    def test_initial_segment_gives_no_noise(self):
        g = make([1], 0)
        assert (g.tail_start, g.dom_min, g.noise) == (2, 2, 0)

    def test_range_side_mirrors_domain_side(self):
        g = make([2], 5)
        assert g.ran_tail_start == g.tail_start + 5
        assert g.ran_min == g.dom_min + 5
        assert g.ran_tail_start - g.ran_min == g.tail_start - g.dom_min

    def test_pi_is_the_shift(self):
        assert ALPHA.pi == 1
        assert (BETA * BETA).pi == -2
        assert make([3], 0).pi == 0


class TestTail:
    def test_tail_restricts_to_the_shift_segment(self):
        assert make([2], 5).tail() == make([1, 2], 5)

    def test_tail_fixes_noise_free_elements(self):
        for g in (IDENTITY, ALPHA, make([1], -1), make([1, 2], 0)):
            assert g.noise == 0
            assert g.tail() == g

    def test_tail_of_identity(self):
        assert IDENTITY.tail() == IDENTITY

    def test_tail_is_a_homomorphism(self):
        a, b = make([2], 1), make([1, 3], -1)
        assert (a * b).tail() == a.tail() * b.tail()

    def test_tail_commutes_with_inverse_and_absorbs(self):
        g = make([3], 1)
        r = g.tail()
        assert r.inverse() == g.inverse().tail()
        assert g * r.inverse() == r * r.inverse()
        assert r.inverse() * g == r.inverse() * r


class TestOrder:
    def test_smaller_domain_same_shift_is_below(self):
        assert leq(make([1, 2], 0), make([1], 0))

    def test_different_shift_never_comparable(self):
        assert not leq(make([1], 1), make([1], 0))

    def test_restriction_formulation(self):
        a, b = make([1, 2], 0), make([1], 0)
        assert a == b * (a.inverse() * a)


class TestGroupCongruence:
    def test_related_iff_equal_shift(self):
        assert group_congruent(make([2], 1), ALPHA)
        assert not group_congruent(ALPHA, IDENTITY)

    def test_witness_merges_both_arguments(self):
        a = make([2], 1)
        w = group_congruence_witness(a, ALPHA)
        assert w == make([1, 2], 0)
        assert w * a == make([1, 2], 1)
        assert w * ALPHA == make([1, 2], 1)

    def test_no_witness_across_shifts(self):
        assert group_congruence_witness(ALPHA, IDENTITY) is None


class TestGreen:
    def test_l_ignores_the_shift(self):
        assert green_l(make([1], 0), make([1], 1))

    def test_h_is_equality(self):
        a, b = make([1], 0), make([1], 1)
        assert not green_h(a, b)
        assert green_h(a, a)

    def test_r_compares_ranges(self):
        assert green_r(ALPHA, make([1], 0))
        assert not green_r(ALPHA, IDENTITY)

    def test_d_witness_translates_the_domain(self):
        a, b = make([1], 0), make([1, 2], 1)
        assert green_d(a, b)
        w = d_witness(a, b)
        assert w == make([1], 1)
        assert w.excluded == a.excluded
        assert w.inverse().excluded == b.excluded

    def test_gap_patterns_block_d(self):
        assert not green_d(make([1], 0), make([2], 0))
        assert d_witness(make([1], 0), make([2], 0)) is None


class TestOffsetClasses:
    def test_noise_free_elements_are_in_every_class(self):
        assert in_offset_class(make([1, 2], 0), NoiseParams(3))

    def test_offset_two_needs_two_in_m(self):
        assert in_offset_class(make([2], 0), NoiseParams(3, {2}))

    def test_offset_three_not_covered_by_two(self):
        assert not in_offset_class(make([3], 0), NoiseParams(3, {2}))

    def test_range_side_agrees(self):
        p = NoiseParams(3, {2})
        for g in (make([2], 0), make([3], 0), make([2], 1), IDENTITY):
            assert in_offset_class(g, p) == in_offset_class_range(g, p)

    def test_head_offsets(self):
        assert head_offsets(make([2], 0)) == (2, 0)
        assert head_offsets(IDENTITY) == (0,)


def _head_offsets_per_digit(g):
    """head_offsets as it read before it went by stretches: one step per
    binary digit of the gap mask."""
    n = g.noise
    return tuple(n - i for i, b in enumerate(_bits(g.gaps) + "0") if b == "0")


class TestHeadOffsets:
    """head_offsets, which adds each clear stretch as a range, against the
    per-digit listing."""

    def test_every_small_element(self):
        for g in enumerate_elements(EnumBounds(8, 1)):
            assert head_offsets(g) == _head_offsets_per_digit(g), g

    @pytest.mark.parametrize("k", [300, 1500, 7000])
    def test_elements_of_noise_past_a_thousand(self, k):
        lit = PartialIso((*range(1, k + 1), k + 3, k + 9), -k)
        for g in (punctured_identity(1500), lit * punctured_identity(k + 700), punctured_identity(k + 1400) * lit):
            assert g.noise >= 1000
            assert head_offsets(g) == _head_offsets_per_digit(g), g


def _offset_class_by_offsets(g, params):
    """The membership test as it read before the mask form: every head
    offset, listed one by one, is 0 or allowed."""
    return noise_bounded(g, params.j) and all(
        o == 0 or o in params.offsets for o in head_offsets(g)
    )


class TestOffsetMask:
    """The mask form of in_offset_class against the head-offset listing
    and the range-side walk."""

    def test_every_small_element_and_offset_set(self):
        elems = list(enumerate_elements(EnumBounds(7, 3)))
        for j in range(6):
            for c in range(1 << max(j - 1, 0)):
                p = NoiseParams(j, {m for m in range(2, j + 1) if c >> (m - 2) & 1})
                for g in elems:
                    verdict = in_offset_class(g, p)
                    assert verdict == _offset_class_by_offsets(g, p), (g, p)
                    assert verdict == in_offset_class_range(g, p), (g, p)

    def test_noise_above_the_bound(self):
        g = make([2, 3, 5], 1)  # head offsets 5, 4, 2 over noise 5
        for p in (NoiseParams(4, {2, 3, 4}), NoiseParams(5, {2, 4, 5})):
            assert in_offset_class(g, p) == (p.j == 5)
            assert in_offset_class(g, p) == _offset_class_by_offsets(g, p)
            assert in_offset_class(g, p) == in_offset_class_range(g, p)

    def test_a_far_explicit_offset_builds_no_wide_mask(self):
        far = 10**30  # one bit per offset up to here would not fit in memory
        p = NoiseParams(far, {2, 4, far})
        for g in (make([2], 0), make([3], 0), make([1, 3], 0), make([2, 3], 7), IDENTITY):
            assert in_offset_class(g, p) == _offset_class_by_offsets(g, p)
            assert in_offset_class(g, p) == in_offset_class_range(g, p)
        # a head wider than a machine word: the one head point 1 sits at offset 99
        g = make(range(2, 100), 0)
        assert in_offset_class(g, NoiseParams(far, {2, 99, far}))
        assert not in_offset_class(g, NoiseParams(far, {2, 98, far}))

    def test_the_mask_widens_with_the_heads(self):
        # bit w - o for each allowed offset o up to the width w built
        p = NoiseParams(9, {2, 5, 9})
        assert p.offset_mask(4) == (4, 0b100)
        assert p.offset_mask(9) == (9, 0b10010001)
        assert p.offset_mask(3) == (9, 0b10010001)  # a built mask is kept
        assert p == NoiseParams(9, {2, 5, 9})  # the memo is no field

    def test_noise_bound_gate(self):
        assert noise_bounded(make([2, 3], 0), 3)
        assert not noise_bounded(make([2, 3], 0), 2)

    def test_offsets_outside_menu_rejected(self):
        with pytest.raises(ValueError):
            NoiseParams(2, {3})


class TestBitRows:
    """_mask and _bits convert a bit row in opposite directions: flag n
    of a row is bit n of its mask, the n-th digit of _bits."""

    @given(st.lists(st.booleans(), max_size=200) | st.lists(st.sampled_from([0, 1]), max_size=200))
    def test_mask_round_trips_with_bits(self, flags):
        m = _mask(flags)
        assert _bits(m) == "".join("01"[bool(f)] for f in flags).rstrip("0")
        assert _mask([d == "1" for d in _bits(m)]) == m
        assert [m >> n & 1 for n in range(len(flags))] == [int(f) for f in flags]

    def test_a_row_with_no_flag_set_is_zero(self):
        assert _mask([]) == 0
        assert _mask([False] * 100) == 0
        assert _mask([0, 0]) == 0

    def test_a_row_past_a_machine_word_keeps_every_bit(self):
        flags = [n % 7 == 3 or n == 99 for n in range(100)]
        m = _mask(flags)
        assert m.bit_length() == 100
        assert all((m >> n & 1) == flags[n] for n in range(100))


class TestCollapsingChain:
    def test_chain_flattens_a_small_idempotent(self):
        assert tail_chain(make([2], 0), 2) == make([1, 2, 3, 4], 0)

    def test_chain_on_identity(self):
        assert tail_chain(IDENTITY, 2) == make([1, 2], 0)

    def test_conjugates_are_idempotent(self):
        e = make([2], 0)
        for k in (1, 2):
            c = BETA ** k * e * ALPHA ** k
            assert c * c == c
            assert c.tail_start == e.tail_start + k
            assert c.dom_min == e.dom_min + k
            assert c.noise == e.noise

    def test_chain_needs_an_idempotent(self):
        with pytest.raises(NotIdempotent):
            tail_chain(ALPHA, 2)

    def test_chain_depth_below_two_rejected(self):
        with pytest.raises(ValueError):
            tail_chain(IDENTITY, 1)

    def test_chain_depth_below_noise_leaves_a_gap_point(self):
        # the flattening needs depth >= noise: here noise is 4, the
        # 2-step sweep never reaches the point 3, so the result is not
        # the identity of [7)
        e = make([4], 0)
        got = tail_chain(e, 2)
        assert got == make([1, 2, 4, 5, 6], 0)
        assert got != make(range(1, 7), 0)
        assert tail_chain(e, 4) == make(range(1, 9), 0)


class TestAbsorption:
    def test_absorbed_exactly_off_one(self):
        ba = BETA * ALPHA
        for g in (IDENTITY, ALPHA, make([1], 0), make([2], 0), make([1, 3], -1)):
            assert (ba * g == g) == (not g.defined_at(1))
            assert (g * ba == g) == (not g.hits(1))


class TestBoundary:
    def test_smallest_boundary(self):
        assert boundary_set(2) == (IDENTITY, make([2], 0))

    def test_cardinality_doubles_with_j(self):
        assert len(boundary_set(3)) == 4
        assert len(boundary_set(6)) == 32

    def test_members_keep_one_on_both_sides(self):
        for g in boundary_set(3):
            assert g.defined_at(1) and g.hits(1)

    def test_narrow_product_reading_is_strictly_smaller(self):
        # reading the membership condition as "above the product of the
        # punctured identities 2..j-1" caps excluded at j-1 and misses
        # the sets containing j itself
        j = 3
        narrow = {g for g in boundary_set(j) if not g.excluded or max(g.excluded) <= j - 1}
        full = set(boundary_set(j))
        assert narrow < full
        assert make([3], 0) in full - narrow


class TestPuncturedIdentity:
    def test_single_point_removed(self):
        assert punctured_identity(2) == make([2], 0)

    def test_index_must_be_positive(self):
        with pytest.raises(ValueError):
            punctured_identity(0)


def _ref_dom_min(excluded):
    u = 1
    while u in excluded:
        u += 1
    return u


class TestRepresentation:
    def test_round_trip_and_anatomy_match_the_excluded_tuple(self):
        for g in enumerate_elements(EnumBounds(6, 3)):
            ex = g.excluded
            again = PartialIso(ex, g.shift)
            assert again == g and hash(again) == hash(g)
            tail_start = ex[-1] + 1 if ex else 1
            assert g.dom_min == _ref_dom_min(ex)
            assert g.tail_start == tail_start
            assert g.noise == tail_start - _ref_dom_min(ex)
            assert ex == tuple(x for x in range(1, tail_start) if not g.defined_at(x))
            assert from_anatomy(g.dom_min, g.gaps, g.shift) == g

    def test_ordering_follows_the_excluded_tuple(self):
        elems = list(enumerate_elements(EnumBounds(6, 3)))[::-1]
        assert sorted(elems) == sorted(elems, key=lambda g: (g.excluded, g.shift))

    def test_every_pair_orders_as_its_excluded_tuples(self):
        elems = list(enumerate_elements(EnumBounds(6, 2)))
        keys = [(g.excluded, g.shift) for g in elems]
        assert len(elems) ** 2 == 57600
        for a, ka in zip(elems, keys):
            got = [(a < b, a <= b, a > b) for b in elems]
            assert got == [(ka < kb, ka <= kb, ka > kb) for kb in keys], a

    def test_moved_pairs_order_as_the_pairs_they_move(self):
        # moving both maps t points out keeps their order, so a pair at
        # dom_min near 10**18 is checked against the tuples of the pair
        # it moves, which the tuple route can still list
        pool = list(enumerate_elements(EnumBounds(5, 2)))
        keys = [(g.excluded, g.shift) for g in pool]
        for t in (1, 2**20, 10**18):
            moved = [_lift(x, t) for x in pool]
            for x, a, ka in zip(pool, moved, keys):
                got = [(a < b, a <= b, a > b) for b in moved]
                assert got == [(ka < kb, ka <= kb, ka > kb) for kb in keys], (x, t)
            assert [x for x, a in zip(pool, moved) if "excluded" in vars(a)] == []
        assert not BETA ** 10**12 < ALPHA

    def test_up_sets_list_their_maps_in_order(self):
        params = NoiseParams.full(4)
        for x in [*enumerate_elements(EnumBounds(4, 1)), Group(-1), Group(0)]:
            for bound in range(6):
                maps = [y for y in up_set_truncated(x, params, bound).elements if y.__class__ is PartialIso]
                assert maps == sorted(maps), (x, bound)

    @pytest.mark.parametrize(
        "excluded,shift,error,message",
        [
            ((0,), 0, ValueError, "excluded point 0 is not a positive integer"),
            (("1",), 0, ValueError, "excluded point '1' is not a positive integer"),
            ((2, 2), 0, ValueError, "excluded points must be strictly ascending"),
            ((1, 2, 5), -3, InvalidShift, "shift -3 sends the domain minimum 3 below 1"),
        ],
    )
    def test_constructor_errors(self, excluded, shift, error, message):
        with pytest.raises(error) as info:
            PartialIso(excluded, shift)
        assert str(info.value) == message

    @pytest.mark.parametrize("dom_min,gaps", [(0, 0), (2, 1), (2, -2)])
    def test_from_anatomy_rejects_impossible_triples(self, dom_min, gaps):
        with pytest.raises(ValueError):
            from_anatomy(dom_min, gaps, 0)
        with pytest.raises(InvalidShift):
            from_anatomy(3, 0, -3)


@st.composite
def noise_0_maps(draw):
    """Maps with no head whose tail starts up to 10**4 out."""
    dom_min = draw(st.integers(min_value=1, max_value=10**4))
    return from_anatomy(dom_min, 0, draw(st.integers(min_value=1 - dom_min, max_value=10**4)))


def _nf_power(u, n):
    """u^n by square and multiply on normal forms; a negative n powers
    the inverse q^l p^k of q^k p^l."""
    base = u if n >= 0 else BicyclicNF(u.l, u.k)
    out = BicyclicNF(0, 0)
    n = abs(n)
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


class TestPowers:
    def test_square_and_multiply_matches_the_loop(self):
        for g in enumerate_elements(EnumBounds(4, 2)):
            for n in range(-9, 10):
                base = g if n >= 0 else g.inverse()
                expected = IDENTITY
                for _ in range(abs(n)):
                    expected = expected * base
                assert g ** n == expected, (g, n)

    @settings(deadline=None, max_examples=200)
    @given(noise_0_maps(), st.integers(-(10**18), 10**18))
    def test_noise_0_powers_match_bicyclic_arithmetic(self, g, n):
        assert recognize(g ** n) == _nf_power(recognize(g), n)

    @settings(deadline=None, max_examples=100)
    @given(noise_0_maps(), st.integers(-40, 40))
    def test_noise_0_powers_match_the_loop(self, g, n):
        base = g if n >= 0 else g.inverse()
        expected = IDENTITY
        for _ in range(abs(n)):
            expected = expected * base
        assert g ** n == expected

    def test_noise_0_powers_compose_nothing(self, monkeypatch):
        calls = 0
        compose = PartialIso.compose

        def counted(a, b):
            nonlocal calls
            calls += 1
            return compose(a, b)

        monkeypatch.setattr(PartialIso, "compose", counted)
        assert BETA ** 10**18 == from_anatomy(10**18 + 1, 0, -(10**18))
        assert ALPHA ** -(10**18) == BETA ** 10**18
        assert calls == 0
        # a map with a head still squares and multiplies
        g = BETA * punctured_identity(3)
        assert (g ** 10).shift == -10
        assert calls > 0

    def test_huge_power_is_one_small_object(self):
        t0 = time.perf_counter()
        g = BETA ** 10**9
        assert time.perf_counter() - t0 < 0.5
        assert (g.tail_start, g.noise, g.shift) == (10**9 + 1, 0, -(10**9))
        assert "excluded" not in vars(g)


@st.composite
def deep_isos(draw, near=None):
    """Elements whose tail starts up to 10**4 out with noise at most 8;
    given near, the domain minimum lies within 9 of it."""
    noise = draw(st.sampled_from([0, 2, 3, 4, 5, 6, 7, 8]))
    if near is None:
        dom_min = draw(st.integers(min_value=1, max_value=10**4 - noise))
    else:
        dom_min = max(1, near + draw(st.integers(min_value=-9, max_value=9)))
    # bit 0 of the gap mask is the domain minimum, bit noise - 1 the last gap
    inner = draw(st.sets(st.integers(min_value=1, max_value=noise - 2))) if noise > 2 else set()
    gaps = {dom_min + i for i in inner} | ({dom_min + noise - 1} if noise else set())
    excluded = tuple(range(1, dom_min)) + tuple(sorted(gaps))
    shift = draw(st.integers(min_value=1 - dom_min, max_value=10**4))
    return PartialIso(excluded, shift)


def _then_on_sets(a, b):
    """Excluded set and shift of a-then-b, point by point."""
    holes_a, holes_b = set(a.excluded), set(b.excluded)
    window = a.tail_start + b.tail_start + abs(a.shift) + 1
    holes = {x for x in range(1, window + 1) if x in holes_a or x + a.shift in holes_b}
    return holes, a.shift + b.shift


def _inverse_on_sets(g):
    holes = set(g.excluded)
    window = g.tail_start + abs(g.shift) + 1
    return {y for y in range(1, window + 1) if y - g.shift < 1 or y - g.shift in holes}, -g.shift


@st.composite
def deep_pairs(draw):
    """Two deep elements; often the second one's head meets the image of
    the first one's head, so that the composite's gaps interact."""
    a = draw(deep_isos())
    near = draw(st.sampled_from([None, a.ran_min]))
    return a, draw(deep_isos(near))


class TestDeepElements:
    @settings(deadline=None, max_examples=80)
    @given(pair=deep_pairs())
    def test_compose_and_inverse_match_sets(self, pair):
        a, b = pair
        ab = a * b
        assert (set(ab.excluded), ab.shift) == _then_on_sets(a, b)
        ai = a.inverse()
        assert (set(ai.excluded), ai.shift) == _inverse_on_sets(a)


def _lift(x, t):
    """x conjugated up by t points: it sends n + t to x(n) + t."""
    return from_anatomy(x.dom_min + t, x.gaps, x.shift)


class TestScaleInvariance:
    # lifting by t is an injective homomorphism that keeps inverses, so
    # every verdict on a pair holds again t points out: this carries the
    # window oracle, which reaches only small tail starts, out to 10**100
    def test_every_verdict_holds_t_points_out(self):
        pool = list(enumerate_elements(EnumBounds(4, 2)))
        assert len(pool) == 60
        window = {(a, b): compose_via_window(a, b) for a in pool for b in pool}
        relations = (leq, green_l, green_r, green_h, green_d)
        for t in (1, 2**20, 10**18, 10**100):
            lifted = [_lift(x, t) for x in pool]
            for a, ta in zip(pool, lifted):
                assert ta.tail_start == a.tail_start + t, (a, t)
                assert ta.inverse() == _lift(a.inverse(), t), (a, t)
                assert ta.tail() == _lift(a.tail(), t), (a, t)
                assert ta.noise == a.noise and ta.is_idempotent == a.is_idempotent, (a, t)
                assert head_offsets(ta) == head_offsets(a), (a, t)
                for b, tb in zip(pool, lifted):
                    assert ta * tb == _lift(window[a, b], t), (a, b, t)
                    assert [r(ta, tb) for r in relations] == [r(a, b) for r in relations], (a, b, t)

    def test_product_anatomy_moves_by_t(self):
        pool = list(enumerate_elements(EnumBounds(4, 2)))
        keys = {(a, b): _product(a, b) for a in pool for b in pool}
        for t in (1, 2**20, 10**18, 10**100):
            lifted = [_lift(x, t) for x in pool]
            for a, ta in zip(pool, lifted):
                for b, tb in zip(pool, lifted):
                    dom_min, gaps, shift = keys[a, b]
                    assert _product(ta, tb) == (dom_min + t, gaps, shift), (a, b, t)


# maps whose dom_min is 10**18: a and e share a head, b has another, e
# is idempotent.  Listing their excluded points would not fit in memory
def _far_maps():
    return from_anatomy(10**18, 0b1010, 3), from_anatomy(10**18 + 5, 0b110, -2), from_anatomy(10**18, 0b1010, 0)


# every public operation on maps that lists no points, on the maps above
# and the full level-4 parameters; the operations that list points are
# in README's cost table
_LISTS_NO_POINTS = {
    "<": lambda a, b, e, p: a < b,
    "sorted": lambda a, b, e, p: sorted([a, b, e, a.tail(), b.inverse(), ALPHA, BETA ** 10**12]),
    "*": lambda a, b, e, p: a * b * e,
    "inverse": lambda a, b, e, p: a.inverse(),
    "**": lambda a, b, e, p: (a ** 1000, b ** -1000),
    "tail": lambda a, b, e, p: a.tail(),
    "hash": lambda a, b, e, p: hash(a),
    "==": lambda a, b, e, p: a == b,
    "pickle": lambda a, b, e, p: pickle.loads(pickle.dumps(a)) == a,
    "deepcopy": lambda a, b, e, p: copy.deepcopy(a) == a,
    "leq": lambda a, b, e, p: (leq(a, b), leq(e, a.inverse() * a)),
    "green": lambda a, b, e, p: (green_l(a, e), green_r(a, b), green_d(a, e)),
    "d_witness": lambda a, b, e, p: d_witness(a, e),
    "group_congruence_witness": lambda a, b, e, p: group_congruence_witness(a, a.tail()),
    "in_offset_class": lambda a, b, e, p: in_offset_class(a, p),
    "in_offset_class_range": lambda a, b, e, p: in_offset_class_range(a, p),
    "head_offsets": lambda a, b, e, p: head_offsets(a),
    "tail_chain": lambda a, b, e, p: tail_chain(e, 3),
    "ext_mul": lambda a, b, e, p: (ext_mul(a, b), ext_mul(Group(2), a)),
    "ext_leq": lambda a, b, e, p: (ext_leq(a, b), ext_leq(Group(3), a)),
    "ext_inv": lambda a, b, e, p: ext_inv(a),
    "nbhd_member": lambda a, b, e, p: nbhd_member(a, NbhdSpec(3, 5, p)),
    "recognize": lambda a, b, e, p: recognize(a.tail()),
    "up_set_truncated": lambda a, b, e, p: up_set_truncated(a, p, 3),
    "translate_right": lambda a, b, e, p: translate_right(e, 5),
    "translate_left": lambda a, b, e, p: translate_left(e, 5),
}


class TestCostInTheNoise:
    # an operation that reads only the anatomy allocates a few KiB at any
    # dom_min and caches no excluded tuple on its operands; counted in
    # bytes, which do not vary from run to run as wall time does
    @pytest.mark.parametrize("op", _LISTS_NO_POINTS.values(), ids=_LISTS_NO_POINTS.keys())
    def test_allocates_in_the_noise(self, op):
        maps = _far_maps()
        params = NoiseParams.full(4)
        tracemalloc.start()
        try:
            op(*maps, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10, peak
        assert [n for n, g in enumerate(maps) if "excluded" in vars(g)] == []

    def test_refusals_name_a_far_map_by_its_anatomy(self):
        maps = _far_maps()
        a = maps[0]
        tracemalloc.start()
        try:
            with pytest.raises(NotIdempotent, match=f"^the map with tail start {10**18 + 4} has shift 3$"):
                tail_chain(a, 3)
            with pytest.raises(NotInUpSet, match=f"^the map with tail start {10**18 + 4} and shift 3 "):
                translate_right(a, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10, peak
        assert [n for n, g in enumerate(maps) if "excluded" in vars(g)] == []
