import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cofiso.core import (
    ALPHA,
    BETA,
    IDENTITY,
    InvalidShift,
    NoiseParams,
    NotIdempotent,
    PartialIso,
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
from cofiso.oracle import EnumBounds, enumerate_elements


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


class TestPowers:
    def test_square_and_multiply_matches_the_loop(self):
        for g in enumerate_elements(EnumBounds(4, 2)):
            for n in range(-9, 10):
                base = g if n >= 0 else g.inverse()
                expected = IDENTITY
                for _ in range(abs(n)):
                    expected = expected * base
                assert g ** n == expected, (g, n)

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
