import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from cofiso import core
from cofiso.core import ALPHA, BETA, IDENTITY, NoiseParams, OverBudget, boundary_set, elements, make
from cofiso.oracle import EnumBounds, enumerate_elements
from cofiso.extension import (
    Group,
    NotInUpSet,
    ext_inv,
    ext_leq,
    ext_mul,
    ext_pi,
    translate_left,
    translate_right,
    up_set_truncated,
)

SRC = Path(__file__).resolve().parent.parent / "src"


class TestMul:
    def test_group_absorbs_from_the_left(self):
        assert ext_mul(Group(3), BETA) == Group(2)

    def test_group_identity(self):
        assert ext_mul(Group(0), Group(0)) == Group(0)

    def test_group_absorbs_from_the_right(self):
        assert ext_mul(ALPHA, Group(0)) == Group(1)

    def test_iso_product_stays_iso(self):
        assert ext_mul(ALPHA, BETA) == IDENTITY

    @pytest.mark.parametrize("j", [2, 3])
    def test_products_stay_within_the_noise_bound(self, j):
        # the closure that lets ext_mul skip checking its operands
        maps = list(enumerate_elements(EnumBounds(4, 2, j)))
        assert len(maps) == {2: 34, 3: 48}[j]
        for x in maps:
            for y in maps:
                assert ext_mul(x, y).noise <= j, (x, y)

    def test_pi_totals(self):
        assert ext_pi(Group(4)) == 4
        assert ext_pi(BETA) == -1


class TestInv:
    def test_group_negates(self):
        assert ext_inv(Group(5)) == Group(-5)

    def test_iso_inverts(self):
        assert ext_inv(ALPHA) == BETA


class TestLeq:
    def test_level_below_matching_iso(self):
        assert ext_leq(Group(0), make([3], 0))

    def test_levels_incomparable(self):
        assert not ext_leq(Group(1), Group(2))
        assert ext_leq(Group(2), Group(2))

    def test_level_below_only_its_own_shift(self):
        assert not ext_leq(Group(1), make([3], 0))
        assert ext_leq(Group(1), ALPHA)

    def test_iso_never_below_a_level(self):
        assert not ext_leq(ALPHA, Group(1))

    def test_iso_side_is_the_core_order(self):
        assert ext_leq(make([1, 2], 0), make([1], 0))
        assert not ext_leq(make([1], 0), make([1, 2], 0))


class TestUpSet:
    def test_full_up_set_of_a_small_idempotent(self):
        view = up_set_truncated(make([1, 2], 0), NoiseParams(2), 2)
        assert set(view.elements) == {make([1, 2], 0), make([1], 0), make([2], 0), IDENTITY}
        assert view.complete

    def test_negative_shift_prunes_invalid_restrictions(self):
        view = up_set_truncated(make([1, 2], -1), NoiseParams(0), 3)
        assert set(view.elements) == {make([1, 2], -1), make([1], -1)}
        assert view.complete

    def test_level_up_set_is_always_truncated(self):
        view = up_set_truncated(Group(0), NoiseParams(2), 2)
        assert len(view.elements) == 5
        assert Group(0) in view.elements
        assert not view.complete

    def test_noise_gate(self):
        with pytest.raises(ValueError):
            up_set_truncated(make([3], 0), NoiseParams(2), 4)

    def test_far_bound_walks_only_the_noise(self):
        # the head is cut to the noise, not to the bound: a mask as wide
        # as 10^8 bits would take 12 MiB
        tracemalloc.start()
        try:
            view = up_set_truncated(make([2], 0), NoiseParams(2), 10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert view.elements == (IDENTITY, make([2], 0))
        assert view.complete
        assert peak < 1 << 20

    def test_walks_refuse_themselves_outside_the_cli(self, monkeypatch):
        # the messages the CLI prints, from a Python call
        monkeypatch.setattr(core, "_BUDGET", 8)
        with pytest.raises(OverBudget, match=r"^boundary lists 2\^4 elements, above the budget of 8$"):
            boundary_set(5)
        with pytest.raises(OverBudget, match=r"^upset walks 2\^4 subsets, above the budget of 8$"):
            up_set_truncated(Group(0), NoiseParams(3), 4)


    def test_complete_once_bound_reaches_every_excluded_point(self):
        # complete is read off the tail start; by definition it says the
        # excluded set fits inside {1..bound}
        cases = 0
        for x in elements(range(1, 8), range(-2, 3)):
            for bound in range(-3, 10):
                view = up_set_truncated(x, NoiseParams(x.noise), bound)
                assert view.complete == all(p <= bound for p in x.excluded), (x, bound)
                cases += 1
        assert cases == 6240


class TestTranslations:
    def test_identity_moves_to_a_power(self):
        assert translate_right(IDENTITY, 2) == ALPHA * ALPHA
        assert ext_leq(Group(2), translate_right(IDENTITY, 2))

    def test_level_zero_moves_to_level_k(self):
        assert translate_right(Group(0), 2) == Group(2)
        assert translate_left(Group(0), 2) == Group(-2)

    def test_round_trips_over_a_truncated_up_set(self):
        for x in up_set_truncated(Group(0), NoiseParams(2), 3).elements:
            assert ext_mul(translate_right(x, 2), BETA ** 2) == x
            assert ext_mul(ALPHA ** 2, translate_left(x, 2)) == x

    def test_only_level_zero_sources(self):
        with pytest.raises(NotInUpSet):
            translate_right(ALPHA, 1)

    def test_refusal_names_the_anatomy(self):
        with pytest.raises(NotInUpSet) as info:
            translate_left(Group(2), 1)
        assert str(info.value) == "grp(2) is not above grp(0)"
        with pytest.raises(NotInUpSet) as info:
            translate_right(make([1, 3], 2), 1)
        assert str(info.value) == "the map with tail start 4 and shift 2 is not above grp(0)"

    def test_refusing_a_far_map_lists_nothing(self):
        # 400 MB of address space: far too little for 10^8 excluded points
        script = (
            "import resource; resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
            "from cofiso import BETA, NotInUpSet, translate_right\n"
            "try:\n"
            "    translate_right(BETA ** 10**8, 1)\n"
            "except NotInUpSet as exc:\n"
            "    print(exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "the map with tail start 100000001 and shift -100000000 is not above grp(0)\n"

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            translate_right(IDENTITY, 0)


class TestGroupRepr:
    def test_literal_syntax(self):
        assert repr(Group(3)) == "grp(3)"
        assert repr(Group(-1)) == "grp(-1)"
