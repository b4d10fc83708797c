import pytest

from cofiso.core import ALPHA, BETA, IDENTITY, make
from cofiso.oracle import EnumBounds, compose_via_window, enumerate_elements, window_compose


class TestEnumerate:
    def test_single_point_no_shift(self):
        assert list(enumerate_elements(EnumBounds(1, 0))) == [IDENTITY, make([1], 0)]

    def test_single_point_unit_shift(self):
        # ({}, -1) fails the shift invariant, so five elements remain
        got = list(enumerate_elements(EnumBounds(1, 1)))
        assert got == [
            IDENTITY,
            ALPHA,
            make([1], -1),
            make([1], 0),
            make([1], 1),
        ]

    def test_noise_filter(self):
        got = list(enumerate_elements(EnumBounds(2, 0, j=0)))
        assert got == [IDENTITY, make([1], 0), make([1, 2], 0)]
        assert make([2], 0) not in got

    def test_order_is_lexicographic_and_duplicate_free(self):
        got = list(enumerate_elements(EnumBounds(3, 2)))
        assert got == sorted(got, key=lambda g: (g.excluded, g.shift))
        assert len(got) == len(set(got))

    def test_counts_grow_with_the_budget(self):
        small = len(list(enumerate_elements(EnumBounds(1, 1))))
        wider = len(list(enumerate_elements(EnumBounds(2, 1))))
        deeper = len(list(enumerate_elements(EnumBounds(1, 2))))
        assert small < wider
        assert small < deeper

    def test_closed_under_inverse_at_padded_bounds(self):
        pool = set(enumerate_elements(EnumBounds(4, 2)))
        for g in enumerate_elements(EnumBounds(2, 2)):
            assert g.inverse() in pool

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            EnumBounds(-1, 0)
        with pytest.raises(ValueError):
            EnumBounds(1, -1)


class TestWindow:
    def test_alpha_beta_window_is_the_identity_table(self):
        assert window_compose(ALPHA, BETA) == {x: x for x in range(1, 6)}

    def test_beta_alpha_window_misses_one(self):
        assert window_compose(BETA, ALPHA) == {x: x for x in range(2, 6)}

    def test_pulled_back_exclusions(self):
        table = window_compose(make([2], 0), make([3], 1))
        assert table == {x: x + 1 for x in range(1, 7) if x not in (2, 3)}

    def test_reconstruction_matches_composition(self):
        pool = list(enumerate_elements(EnumBounds(3, 2)))
        for a in pool:
            for b in pool:
                assert compose_via_window(a, b) == a * b
