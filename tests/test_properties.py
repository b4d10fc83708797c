import operator
import os
import random
import re
import sys
import tracemalloc
from itertools import count, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXPECTED_INSTANCES, PLAN

from cofiso import core, properties, topology
from cofiso.bicyclic import BicyclicNF, embed, normalize_word, parse_word, recognize, reduce_word, word_iso
from cofiso.core import (
    ALPHA,
    IDENTITY,
    InvalidShift,
    NoiseParams,
    OverBudget,
    PartialIso,
    _mask,
    _product,
    d_witness,
    green_d,
    green_h,
    green_j,
    green_l,
)
from cofiso.extension import Group, ext_inv, ext_mul, ext_pi
from cofiso.oracle import EnumBounds, compose_via_window, enumerate_elements
from cofiso.properties import (
    Report,
    UnknownProperty,
    _REGISTRY,
    _Tally,
    _check_assoc,
    _ext_product,
    _ext_universe,
    _numbered_products,
    _topo_pool,
    known_properties,
    verify,
)
from cofiso.topology import NbhdSpec, _MemberIndex, nbhd_member

SMOKE_BOUNDS = {
    "assoc": EnumBounds(2, 2),
    "ext_assoc": EnumBounds(2, 2),
    "convergence_probe": EnumBounds(2, 2),
    "nbhd_product": EnumBounds(3, 2),
    "upset_char": EnumBounds(4, 2),
}


@pytest.mark.parametrize("pid", known_properties())
def test_every_registered_suite_passes_at_smoke_bounds(pid):
    bounds = SMOKE_BOUNDS.get(pid, EnumBounds(3, 2))
    report = verify(pid, bounds, NoiseParams(2))
    assert isinstance(report, Report)
    assert report.property_id == pid
    assert report.passed, report.counterexamples
    assert report.instances > 0
    assert report.counterexamples == ()


def test_descriptions_are_informative():
    for pid in known_properties()[:5]:
        report = verify(pid, EnumBounds(1, 0), NoiseParams(2))
        assert report.description
        assert report.description != pid


def _claim_map() -> dict:
    """Each claim in README's claim map and the suite ids its Suites
    column names; an open claim names none."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    # the table's rows, past its header and separator
    rows = [line for line in text.split("## Claim map", 1)[1].splitlines() if line.startswith("|")][2:]
    return {claim.strip(): re.findall(r"`([^`]+)`", suites) for claim, suites, _ in (r.split("|")[1:4] for r in rows)}


def test_claim_map_names_registered_suites():
    claims = _claim_map()
    assert len(claims) == 5
    named = {pid for suites in claims.values() for pid in suites}
    assert named and named <= set(known_properties()), sorted(named - set(known_properties()))
    # discreteness and local compactness are still open
    assert sum(not suites for suites in claims.values()) == 2


def test_unknown_property_lists_the_registry():
    with pytest.raises(UnknownProperty) as info:
        verify("not_a_property", EnumBounds(1, 0))
    assert "assoc" in str(info.value)


def test_counterexamples_are_capped(monkeypatch):
    def many_failures(t, bounds, j):
        for i in range(10):
            t.check(False, i)

    monkeypatch.setitem(_REGISTRY, "many_failures", ("fails ten times", None, many_failures))
    report = verify("many_failures", EnumBounds(1, 0))
    assert not report.passed
    assert report.instances == 10
    assert len(report.counterexamples) == 5


@st.composite
def isos(draw):
    excluded = tuple(sorted(draw(st.sets(st.integers(min_value=1, max_value=6), max_size=4))))
    dom_min = next(x for x in count(1) if x not in excluded)
    shift = draw(st.integers(min_value=1 - dom_min, max_value=3))
    return PartialIso(excluded, shift)


class TestLaws:
    @settings(deadline=None, max_examples=80)
    @given(a=isos(), b=isos(), c=isos())
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @settings(deadline=None, max_examples=80)
    @given(a=isos(), b=isos())
    def test_inverse_reverses_products(self, a, b):
        assert (a * b).inverse() == b.inverse() * a.inverse()

    @settings(deadline=None, max_examples=80)
    @given(a=isos(), b=isos())
    def test_window_oracle_agreement(self, a, b):
        assert compose_via_window(a, b) == a * b

    @settings(deadline=None, max_examples=80)
    @given(a=isos(), b=isos())
    def test_tail_homomorphism(self, a, b):
        assert (a * b).tail() == a.tail() * b.tail()

    @settings(deadline=None, max_examples=80)
    @given(g=isos())
    def test_double_inverse_and_noise(self, g):
        assert g.inverse().inverse() == g
        assert g.noise != 1
        assert g.inverse().noise == g.noise

    @settings(deadline=None, max_examples=80)
    @given(text=st.text(alphabet="ab", max_size=15))
    def test_word_normalization_sound(self, text):
        word = tuple(text)
        assert word_iso(word) == embed(normalize_word(word))


def test_report_counts_every_failure(monkeypatch):
    def many_failures(t, bounds, j):
        for i in range(10):
            t.check(False, i)

    monkeypatch.setitem(_REGISTRY, "many_failures", ("fails ten times", None, many_failures))
    report = verify("many_failures", EnumBounds(1, 0))
    assert report.failures == 10
    assert len(report.counterexamples) == 5


@pytest.mark.parametrize("j", [2, 3])
def test_ext_assoc_checks_every_triple(plan_record, j):
    # the products come from numbered tables; still one check per (x, y, z)
    report = plan_record["ext_assoc", 4, 2, j]
    assert report.passed and report.instances == len(_ext_universe(EnumBounds(4, 2), j)) ** 3


# the pool each suite lists first, as its refusal at N=17, S=0 names it:
# shifts*2^17+extra elements, the walk that refuses itself, or None for
# a suite whose input is fixed
_EXT = ("ext_assoc", "ext_ideal", "ext_order", "ext_commute", "ext_surjective")
_NBHD = ("nbhd_nesting", "nbhd_inversion", "nbhd_translation", "nbhd_product", "nbhd_hausdorff", "nbhd_monotone")
POOL_AT_17 = {
    **{pid: "1*2^17+3" for pid in _EXT},
    "ext_translation": "upset walks 2^17 subsets",
    **{pid: "7*2^17+7" for pid in _NBHD},
    "upset_char": "3*2^17",
    "convergence_probe": None,
    "word_soundness": None,
}
# the suites whose pools do not draw on S
S_FREE = {"upset_char", "ext_translation", "convergence_probe", "word_soundness"}


@pytest.mark.parametrize("pid", known_properties())
def test_every_pool_refuses_itself(pid):
    # each pool is refused before it is built, so a suite that lists one
    # without _listed or _check_pool names a plan here, or none
    pool = POOL_AT_17.get(pid, "1*2^17")
    if pool is None:
        assert verify(pid, EnumBounds(17, 0), NoiseParams(2)).passed
    else:
        what = pool if pool.startswith("upset") else f"verify enumerates {pool} elements"
        message = f"{what}, above the budget of 65536"
        with pytest.raises(OverBudget) as info:
            verify(pid, EnumBounds(17, 0), NoiseParams(2))
        assert str(info.value) == message
    if pid in S_FREE:
        assert verify(pid, EnumBounds(1, 32768), NoiseParams(2)).passed
    else:
        with pytest.raises(OverBudget) as info:
            verify(pid, EnumBounds(1, 32768), NoiseParams(2))
        assert str(info.value) == "verify tries at least 2^16 shifts, above the budget of 65536"
        # refused by its shifts before its adjoined integers, past
        # sys.maxsize here, are counted
        with pytest.raises(OverBudget) as info:
            verify(pid, EnumBounds(0, 2**63), NoiseParams(2))
        assert str(info.value) == "verify tries at least 2^64 shifts, above the budget of 65536"
    if pid == "boundary":
        # the pool is named ahead of the 2^16 maps the level would list
        with pytest.raises(OverBudget) as info:
            verify(pid, EnumBounds(17, 0), NoiseParams(17))
        assert str(info.value) == "verify enumerates 1*2^17 elements, above the budget of 65536"


@pytest.mark.parametrize("j,instances", [(2, 403), (3, 739)])
def test_ext_translation_runs_at_the_walk_budget(j, instances):
    # grp(0)'s up-set walks the 2^16 subsets of {1..16}: at the budget,
    # not above it, so the call runs
    report = verify("ext_translation", EnumBounds(16, 0), NoiseParams(j))
    assert report.passed and report.instances == instances


def test_upset_char_plans_before_it_lists(monkeypatch):
    # planned from the bounds, so a call far over the budget builds
    # neither a level pool nor an offset set
    def unbuilt(*args):
        raise AssertionError("built before the plan")

    monkeypatch.setattr(properties, "upset_pool", unbuilt)
    monkeypatch.setattr(properties, "_all_params", unbuilt)
    with pytest.raises(OverBudget) as info:
        verify("upset_char", EnumBounds(14, 0), NoiseParams(17))
    # 2^16 offset sets * 7 indices * 5 pools * (3 predicates * 3 * 2^14 maps + 3)
    assert str(info.value) == "verify upset_char plans 338235555840 units, above the budget of 16777216"


@pytest.mark.parametrize("pid,n,s,j", PLAN)
def test_acceptance_plans_cover_the_instances_well_inside_the_budget(plan_record, pid, n, s, j):
    report = plan_record[pid, n, s, j]
    assert report.passed, report.counterexamples
    assert report.instances <= report.planned <= properties._WORK // 32
    assert report.instances == EXPECTED_INSTANCES[pid, j]


def test_acceptance_calls_cover_every_suite():
    # the criteria read each row's count by (suite, j): one key per row
    keys = {(pid, j) for pid, _, _, j in PLAN}
    assert len(PLAN) == len(keys) == 55
    assert keys == set(EXPECTED_INSTANCES)
    assert {pid for pid, *_ in PLAN} == set(known_properties())


@pytest.mark.parametrize("pid", known_properties())
def test_plans_bound_the_instances_and_the_calls(pid):
    # a plan is honest both ways: no suite checks more instances than it
    # planned, nor makes more than 64 Python calls into the package per
    # planned unit, so a budget in units bounds the time a call takes
    home = os.path.dirname(properties.__file__)
    calls = 0

    def count_calls(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(home):
            calls += 1

    levels = (None,) if _REGISTRY[pid][1] is None else (2, 4)
    for (n, s), j in product(((0, 0), (3, 2)), levels):
        calls = 0
        sys.setprofile(count_calls)
        try:
            params = None if j is None else NoiseParams(j)
            report = verify(pid, EnumBounds(n, s), params)
        finally:
            sys.setprofile(None)
        assert report.instances <= report.planned, (n, s, j)
        assert calls <= 64 * report.planned, (n, s, j, calls, report.planned)


@pytest.mark.parametrize(
    "pid,j",
    [("offset_classes", 3), ("boundary", 3), ("ext_assoc", 2), ("nbhd_inversion", 2), ("convergence_probe", 3)],
)
def test_a_suite_given_no_params_runs_at_its_own_level(pid, j):
    bounds = SMOKE_BOUNDS.get(pid, EnumBounds(3, 2))
    assert verify(pid, bounds) == verify(pid, bounds, NoiseParams(j))


@pytest.mark.parametrize("pid", [pid for pid in known_properties() if _REGISTRY[pid][1] is None])
def test_a_suite_with_no_level_reads_no_params(pid):
    # so verify --j lists nothing for it
    bounds = SMOKE_BOUNDS.get(pid, EnumBounds(3, 2))
    assert verify(pid, bounds, NoiseParams(18)) == verify(pid, bounds)


@pytest.mark.parametrize("pid", [pid for pid in known_properties() if _REGISTRY[pid][1] is not None])
def test_a_suite_with_a_level_reads_only_the_level(pid):
    # the offset set of the params verify() is given reaches no suite
    bounds = SMOKE_BOUNDS.get(pid, EnumBounds(3, 2))
    assert verify(pid, bounds, NoiseParams.full(3)) == verify(pid, bounds, NoiseParams(3))


def _naive_assoc(univ, mul):
    t = _Tally()
    for x in univ:
        for y in univ:
            for z in univ:
                t.check(mul(mul(x, y), z) == mul(x, mul(y, z)), x, y, z)
    return t


def _twisted(x, y):
    # x * y^-1: not associative
    return ext_mul(x, ext_inv(y))


@pytest.mark.parametrize(
    "univ",
    [
        _ext_universe(EnumBounds(3, 1), 2),
        list(enumerate_elements(EnumBounds(3, 1))),
    ],
    ids=["ext universe", "enumeration"],
)
@pytest.mark.parametrize("mul", [ext_mul, _twisted], ids=["product", "planted"])
def test_check_assoc_equals_the_naive_triple_loop(univ, mul):
    naive = _naive_assoc(univ, mul)
    tables = _Tally()
    _check_assoc(tables, univ, mul)
    assert tables.instances == naive.instances == len(univ) ** 3
    assert tables.failures == naive.failures
    assert tables.bad == naive.bad
    assert (naive.failures > 0) == (mul is _twisted)


@pytest.mark.parametrize(
    "univ,mul",
    [
        (_ext_universe(EnumBounds(3, 1), 2), ext_mul),
        (list(enumerate_elements(EnumBounds(3, 1))), _twisted),
    ],
    ids=["ext universe", "planted"],
)
def test_numbered_products_number_each_distinct_product_once(univ, mul):
    ids, table, values = _numbered_products(univ, mul)
    # a product that is not an anatomy is its own key
    assert values == list(ids)
    products = [[mul(x, y) for y in univ] for x in univ]
    assert [[values[n] for n in row] for row in table] == products
    assert all(ids[v] == n for n, v in enumerate(values))
    assert len(ids) == len({v for row in products for v in row})
    # dense and numbered in the order the pairs are read, row by row
    first_seen = list(dict.fromkeys(n for row in table for n in row))
    assert first_seen == list(range(len(ids)))


@pytest.mark.parametrize(
    "univ,keyed,mul",
    [
        (_ext_universe(EnumBounds(3, 1), 2), _ext_product, ext_mul),
        (list(enumerate_elements(EnumBounds(3, 1))), _product, operator.mul),
        (list(enumerate_elements(EnumBounds(0, 0))), _product, operator.mul),
    ],
    ids=["ext universe", "enumeration", "one element"],
)
def test_tables_keyed_by_anatomy_match_tables_of_products(univ, keyed, mul):
    _, table, values = _numbered_products(univ, keyed)
    _, table_of_products, products = _numbered_products(univ, mul)
    assert table == table_of_products
    assert values == products
    assert [v.__class__ for v in values] == [v.__class__ for v in products]


def test_a_table_builds_each_distinct_map_product_once(monkeypatch):
    built = []
    real = properties.from_anatomy

    def counted(*key):
        built.append(key)
        return real(*key)

    monkeypatch.setattr(properties, "from_anatomy", counted)
    bounds, params = EnumBounds(4, 2), NoiseParams(3)
    assert verify("ext_assoc", bounds, params).passed
    # the 3,025 pair products take 125 values, 13 of them adjoined
    # integers; the products of those by each element are compared by
    # anatomy and built never
    univ = _ext_universe(bounds, params.j)
    distinct = {ext_mul(x, y) for x in univ for y in univ}
    assert (len(univ), len(distinct), sum(isinstance(v, Group) for v in distinct)) == (55, 125, 13)
    assert len(built) == len(set(built)) == 112


def test_nbhd_translation_builds_each_distinct_map_product_once(monkeypatch):
    built = []
    real = properties.from_anatomy

    def counted(*key):
        built.append(key)
        return real(*key)

    monkeypatch.setattr(properties, "from_anatomy", counted)
    report = verify("nbhd_translation", EnumBounds(8, 2), NoiseParams(3))
    assert report.passed and report.instances == EXPECTED_INSTANCES["nbhd_translation", 3]
    # each of the 15 movers times each of the 118 members of some split,
    # on either side: 258 distinct products, 249 of them maps
    assert len(built) == len(set(built)) == 249


def test_retraction_takes_each_distinct_product_tail_once(monkeypatch):
    taken = []
    real = PartialIso.tail

    def spy(x):
        taken.append(x)
        return real(x)

    monkeypatch.setattr(PartialIso, "tail", spy)
    bounds = EnumBounds(4, 2)
    assert verify("retraction", bounds).passed
    elems = list(enumerate_elements(bounds))
    distinct = {a * b for a in elems for b in elems}
    # three tails per element (its own, its tail's and its inverse's),
    # then one per distinct product of the 3,600 pairs
    assert (len(elems), len(distinct)) == (60, 156)
    assert len(taken) == 3 * len(elems) + len(distinct) == 336
    assert set(taken[-len(distinct):]) == distinct


def test_bicyclic_hom_embeds_each_distinct_product_once(monkeypatch):
    embedded = []
    real = properties.embed

    def spy(u):
        embedded.append(u)
        return real(u)

    monkeypatch.setattr(properties, "embed", spy)
    bounds = EnumBounds(4, 2)
    assert verify("bicyclic_hom", bounds).passed
    nfs = [BicyclicNF(k, l) for k in range(7) for l in range(7)]
    distinct = {u * v for u in nfs for v in nfs}
    recognized = [g for g in enumerate_elements(bounds) if g.noise == 0]
    # the 49 normal forms, each distinct product of the 2,401 pairs, and
    # the normal form of each noise-0 map of the pool
    assert (len(distinct), len(recognized)) == (133, 22)
    assert len(embedded) == 49 + len(distinct) + len(recognized) == 204
    assert set(embedded[49 : 49 + len(distinct)]) == distinct


def _wrong_inverse(real):
    return lambda x: Group(1) if x == Group(0) else real(x)


def _wrong_green_r(real):
    # shift 6 is past the enumerated shifts: only the search for an
    # element sharing a's domain builds this map
    far = PartialIso((), 6)
    return lambda a, b: (not real(a, b)) if a == far else real(a, b)


def _wrong_product(real):
    # one pair of the nbhd_product pool multiplies wrongly
    return lambda x, y: Group(1) if (x, y) == (Group(0), Group(0)) else real(x, y)


def _wrong_numbers(real):
    # level 0's first member swapped for the base point of level 1 in
    # the index over the suite's pool, and only there: the index over the
    # products is left as it is
    pool = _topo_pool(EnumBounds(3, 2))

    def numbers(index, k, i, p):
        found = real(index, k, i, p)
        return [pool.index(Group(1))] + found[1:] if k == 0 and index.pool == pool else found

    return numbers


@pytest.mark.parametrize(
    "pid,owner,name,wrong",
    [
        ("nbhd_inversion", properties, "ext_inv", _wrong_inverse),
        ("green_relations", properties, "green_r", _wrong_green_r),
        ("nbhd_translation", _MemberIndex, "numbers", _wrong_numbers),
        ("nbhd_product", properties, "ext_mul", _wrong_product),
    ],
    ids=["nbhd_inversion", "green_relations", "nbhd_translation", "nbhd_product"],
)
def test_hoisted_suites_still_catch_a_planted_fault(monkeypatch, pid, owner, name, wrong):
    # each suite computes this once per call; a fault in it must still show
    bounds, params = EnumBounds(3, 2), NoiseParams(2)
    clean = verify(pid, bounds, params)
    assert clean.passed
    monkeypatch.setattr(owner, name, wrong(getattr(owner, name)))
    report = verify(pid, bounds, params)
    assert report.failures > 0
    assert report.instances == clean.instances


# the suites that compare a product they only read as its anatomy
ANATOMY_SUITES = (
    "inverse_axioms",
    "idempotent_iff",
    "green_relations",
    "natural_order",
    "congruence",
    "retraction",
    "absorption",
    "conjugation",
    "boundary",
    "bicyclic_hom",
)


def _product_slips_after_tail_identities(real):
    # a fault only some products meet, as _flips_on plants one in a
    # predicate: a product whose first factor is a tail identity (noise 0,
    # shift 0) comes out one step too far.  Each suite above multiplies
    # such a factor: the identity is in every pool, every noise-0 map's
    # domain identity is one, and so is BETA*ALPHA
    def wrong(a, b):
        dom_min, gaps, shift = real(a, b)
        return dom_min, gaps, shift + (a.gaps == a.shift == 0)

    return wrong


@pytest.mark.parametrize("pid", ANATOMY_SUITES)
def test_anatomy_comparisons_still_catch_a_planted_fault(monkeypatch, pid):
    bounds, params = EnumBounds(3, 2), NoiseParams(3)
    clean = verify(pid, bounds, params)
    assert clean.passed
    monkeypatch.setattr(properties, "_product", _product_slips_after_tail_identities(properties._product))
    report = verify(pid, bounds, params)
    assert report.failures > 0
    assert report.instances == clean.instances


def test_oracle_equiv_compares_the_built_product(monkeypatch):
    # compose builds its map through core.from_anatomy, read at call time;
    # the window oracle builds through PartialIso, so a fault in the one
    # anatomy of ALPHA^4, a product of the pool but outside it (its shifts
    # stop at 2), shows on the four pairs that make it: ALPHA^2 times each
    # map of shift 2 defined on [3, oo)
    bounds = EnumBounds(3, 2)
    clean = verify("oracle_equiv", bounds)
    assert clean.passed
    real = core.from_anatomy

    def wrong(dom_min, gaps, shift):
        return real(dom_min, gaps, shift + ((dom_min, gaps, shift) == (1, 0, 4)))

    monkeypatch.setattr(core, "from_anatomy", wrong)
    report = verify("oracle_equiv", bounds)
    assert (report.instances, report.failures) == (clean.instances, 4)
    assert {a for a, _ in report.counterexamples} == {repr(ALPHA**2)}


def test_congruence_builds_no_product(monkeypatch):
    # every product the suite reads is compared as its anatomy
    clean = verify("congruence", EnumBounds(3, 2))

    def refuse(a, b):
        raise AssertionError(f"{a!r} * {b!r} built")

    monkeypatch.setattr(PartialIso, "__mul__", refuse)
    report = verify("congruence", EnumBounds(3, 2))
    assert report.passed and report.instances == clean.instances > 0


def _flips_on(shift, noise):
    # a fault only some elements meet: the predicate flips on the maps of
    # one shift and noise, given as its first argument
    def wrong(real):
        def flipped(x, *rest):
            flip = isinstance(x, PartialIso) and x.shift == shift and x.noise == noise
            return real(x, *rest) != flip

        return flipped

    return wrong


def _index_flips_on(shift, noise):
    # the same fault in the membership index: mask flips the bits of the
    # maps of one shift and noise, as _flips_on flips nbhd_member
    def wrong(real):
        def mask(index, *key):
            flips = sum(
                1 << n
                for n, x in enumerate(index.pool)
                if isinstance(x, PartialIso) and x.shift == shift and x.noise == noise
            )
            return real(index, *key) ^ flips

        return mask

    return wrong


def _each_nesting(t, pool, all_p, member):
    for p in all_p:
        for k in range(-2, 3):
            for i in range(1, 7):
                inner, outer = NbhdSpec(k, i + 1, p), NbhdSpec(k, i, p)
                for x in pool:
                    t.check(not member(x, inner) or member(x, outer), x, k, i, p.offsets)


def _each_inversion(t, pool, all_p, member):
    for p in all_p:
        for k in range(-2, 3):
            for i in range(1, 7):
                spec, mirror = NbhdSpec(k, i, p), NbhdSpec(-k, max(1, i + k), p)
                for x in pool:
                    t.check(member(x, spec) == member(ext_inv(x), mirror), x, k, i, p.offsets)


def _each_hausdorff(t, pool, all_p, member):
    for p in all_p:
        for k1 in range(-2, 3):
            for k2 in range(k1 + 1, 3):
                for i in (1, 3, 5):
                    s1, s2 = NbhdSpec(k1, i, p), NbhdSpec(k2, i, p)
                    for x in pool:
                        t.check(not (member(x, s1) and member(x, s2)), x, k1, k2, i, p.offsets)


def _each_monotone(t, pool, all_p, member):
    for p1 in all_p:
        for p2 in all_p:
            m1, m2 = p1.offsets, p2.offsets
            if not m1 < m2:
                continue
            for k in (-1, 0, 2):
                for i in (1, 4):
                    small, large = NbhdSpec(k, i, p1), NbhdSpec(k, i, p2)
                    for x in pool:
                        t.check(not member(x, small) or member(x, large), x, m1, m2, k, i)


@pytest.mark.parametrize(
    "pid,each",
    [
        ("nbhd_nesting", _each_nesting),
        ("nbhd_inversion", _each_inversion),
        ("nbhd_hausdorff", _each_hausdorff),
        ("nbhd_monotone", _each_monotone),
    ],
)
def test_row_tallies_match_a_check_per_instance(monkeypatch, pid, each):
    # at level 3 the noise-3 maps are members of some neighborhoods
    bounds, params = EnumBounds(4, 2), NoiseParams(3)
    monkeypatch.setattr(_MemberIndex, "mask", _index_flips_on(2, 3)(_MemberIndex.mask))
    report = verify(pid, bounds, params)
    ref = _Tally()
    pool = _topo_pool(bounds)
    each(ref, pool, properties._all_params(3), _flips_on(2, 3)(nbhd_member))
    assert (report.instances, report.failures, report.counterexamples) == (
        ref.instances,
        ref.failures,
        tuple(ref.bad),
    )
    # the fault shows in some rows and not in others, more often than kept
    assert properties._CAP < report.failures < report.instances
    # and each kept failure names the offset set it broke in
    assert all(any(part.startswith("frozenset(") for part in bad) for bad in report.counterexamples)


@pytest.mark.parametrize(
    "pid",
    ["nbhd_nesting", "nbhd_inversion", "nbhd_hausdorff", "nbhd_monotone", "nbhd_product", "nbhd_translation"],
)
def test_indexed_suites_build_no_neighborhood_spec(monkeypatch, pid):
    # these suites read the membership index by (k, i, offset set) alone
    def refuse(self, *args):
        raise AssertionError(f"NbhdSpec{args} built")

    monkeypatch.setattr(topology.NbhdSpec, "__init__", refuse)
    report = verify(pid, EnumBounds(3, 2), NoiseParams(3))
    assert report.passed and report.instances > 0


def _each_natural_order(t, bounds, params, leq):
    elems = list(enumerate_elements(bounds))
    for a in elems:
        t.check(leq(a, a), a)
        ran_id_a = a.inverse() * a
        for b in elems:
            by_def = leq(a, b)
            dom_incl = a.shift == b.shift and set(b.excluded) <= set(a.excluded)
            ran_incl = a.shift == b.shift and set(b.inverse().excluded) <= set(a.inverse().excluded)
            t.check(by_def == dom_incl, a, b)
            t.check(by_def == ran_incl, a, b)
            t.check(by_def == (a == b * ran_id_a), a, b)
            if by_def and leq(b, a):
                t.check(a == b, a, b)
            if by_def:
                t.check(leq(a.inverse(), b.inverse()), a, b)
                for c in elems:
                    t.check(leq(a * c, b * c) and leq(c * a, c * b), a, b, c)


def _each_class_closure(t, bounds, params, member):
    elems = list(enumerate_elements(bounds))
    for p in properties._all_params(params.j):
        t.check(member(IDENTITY, p), p.offsets)
        members = [g for g in elems if member(g, p)]
        for g in members:
            t.check(member(g.inverse(), p), g, p.offsets)
        for a in members:
            for b in members:
                t.check(member(a * b, p), a, b, p.offsets)


def _each_product(t, bounds, params, in_offset_class):
    # nbhd_member reads the planted in_offset_class itself
    j, pool = params.j, _topo_pool(bounds)
    levels = range(-2, 3)
    for p in properties._all_params(j):
        for i in range(j + 1, j + 3):
            by_k = {k: [x for x in pool if nbhd_member(x, NbhdSpec(k, i, p))] for k in levels}
            for k1 in levels:
                for k2 in levels:
                    target = NbhdSpec(k1 + k2, i, p)
                    for x in by_k[k1]:
                        for y in by_k[k2]:
                            t.check(nbhd_member(ext_mul(x, y), target), x, y, k1, k2, i, p.offsets)


def _each_translation(t, bounds, params, in_offset_class):
    # every target built and every product taken afresh, left then right
    # for each member; nbhd_member reads the planted in_offset_class
    j, pool = params.j, _topo_pool(bounds)
    for p in properties._all_params(j):
        for gam in enumerate_elements(EnumBounds(2, 2)):
            head = gam.tail_start - 1
            reach = max(head, head + gam.shift)
            for i in range(reach + j + 1, reach + j + 3):
                for k in range(-2, 3):
                    left_target = NbhdSpec(gam.pi + k, max(1, i - gam.pi), p)
                    right_target = NbhdSpec(k + gam.pi, i, p)
                    for x in [x for x in pool if nbhd_member(x, NbhdSpec(k, i, p))]:
                        t.check(nbhd_member(ext_mul(gam, x), left_target), gam, x, k, i, p.offsets)
                        if i > reach + j + max(0, -k):
                            t.check(nbhd_member(ext_mul(x, gam), right_target), gam, x, k, i, p.offsets)


def _each_retraction(t, bounds, params, tail):
    # the tail of every pair product taken afresh, each through the
    # planted PartialIso.tail
    elems = list(enumerate_elements(bounds))
    for g in elems:
        r = g.tail()
        t.check(r.noise == 0, g)
        t.check(r == PartialIso(range(1, g.tail_start), g.shift), g)
        t.check(r.tail() == r, g)
        if g.noise == 0:
            t.check(r == g, g)
        t.check(r.inverse() == g.inverse().tail(), g)
        t.check(g * r.inverse() == r * r.inverse(), g)
        t.check(r.inverse() * g == r.inverse() * r, g)
    for a in elems:
        for b in elems:
            t.check((a * b).tail() == a.tail() * b.tail(), a, b)


def _wrong_tail(real):
    # the tail of a map of shift 1 and noise 3 starts one point late
    def tail(x):
        r = real(x)
        return PartialIso(range(1, r.tail_start + 1), r.shift) if (x.shift, x.noise) == (1, 3) else r

    return tail


def _each_ext_ideal(t, bounds, params, ext_mul):
    univ = _ext_universe(bounds, params.j)
    for x in univ:
        for y in univ:
            prod = ext_mul(x, y)
            if isinstance(x, Group) or isinstance(y, Group):
                t.check(isinstance(prod, Group), x, y)
            t.check(ext_pi(prod) == ext_pi(x) + ext_pi(y), x, y)


def _each_ext_order(t, bounds, params, ext_leq):
    # every order relation decided afresh each time it is read
    univ = _ext_universe(bounds, params.j)
    for x in univ:
        t.check(ext_leq(x, x), x)
        for y in univ:
            le = ext_leq(x, y)
            if le and ext_leq(y, x):
                t.check(x == y, x, y)
            if isinstance(x, PartialIso) and isinstance(y, PartialIso):
                t.check(le == core.leq(x, y), x, y)
            if isinstance(x, Group) and isinstance(y, PartialIso):
                t.check(le == (y.pi == x.k), x, y)
                t.check(not ext_leq(y, x), x, y)
            if isinstance(x, Group) and isinstance(y, Group) and x != y:
                t.check(not le, x, y)
            if le:
                for z in univ:
                    if ext_leq(y, z):
                        t.check(ext_leq(x, z), x, y, z)


def _wrong_level(real):
    # an adjoined integer times a map of shift 1 comes out as the map
    def ext_mul(x, y):
        if isinstance(x, Group) and isinstance(y, PartialIso) and y.shift == 1:
            return y
        return real(x, y)

    return ext_mul


def _each_bicyclic_hom(t, bounds, params, embed):
    # every normal-form product embedded afresh
    nfs = [BicyclicNF(k, l) for k in range(7) for l in range(7)]
    for u in nfs:
        t.check(recognize(embed(u)) == u, u)
        for v in nfs:
            t.check(embed(u * v) == embed(u) * embed(v), u, v)
    for g in enumerate_elements(bounds):
        nf = recognize(g)
        t.check((nf is None) == (g.noise != 0), g)
        if nf is not None:
            t.check(embed(nf) == g, g, nf)


def _wrong_embed(real):
    # one normal form embeds as another
    return lambda u: real(BicyclicNF(3, 2)) if u == BicyclicNF(2, 3) else real(u)


@pytest.mark.parametrize(
    "pid,owner,name,wrong,each,bounds",
    [
        ("natural_order", properties, "leq", _flips_on(1, 3), _each_natural_order, EnumBounds(3, 2)),
        ("class_closure", properties, "in_offset_class", _flips_on(2, 3), _each_class_closure, EnumBounds(4, 2)),
        # read by the membership index and by nbhd_member alike
        ("nbhd_product", topology, "in_offset_class", _flips_on(2, 3), _each_product, EnumBounds(4, 2)),
        ("nbhd_translation", topology, "in_offset_class", _flips_on(2, 3), _each_translation, EnumBounds(4, 2)),
        # at a negative level some rows check the left product alone
        ("nbhd_translation", topology, "in_offset_class", _flips_on(-1, 3), _each_translation, EnumBounds(4, 2)),
        ("retraction", PartialIso, "tail", _wrong_tail, _each_retraction, EnumBounds(4, 2)),
        ("ext_ideal", properties, "ext_mul", _wrong_level, _each_ext_ideal, EnumBounds(4, 2)),
        ("ext_order", properties, "ext_leq", _flips_on(1, 3), _each_ext_order, EnumBounds(4, 2)),
        ("bicyclic_hom", properties, "embed", _wrong_embed, _each_bicyclic_hom, EnumBounds(4, 2)),
    ],
    ids=[
        "natural_order",
        "class_closure",
        "nbhd_product",
        "nbhd_translation",
        "nbhd_translation_left_only",
        "retraction",
        "ext_ideal",
        "ext_order",
        "bicyclic_hom",
    ],
)
def test_tabled_suites_match_a_check_per_instance(monkeypatch, pid, owner, name, wrong, each, bounds):
    # the suites read pair products from numbered tables; a check per
    # instance on products computed afresh must give the same report
    params = NoiseParams(3)
    monkeypatch.setattr(owner, name, wrong(getattr(owner, name)))
    report = verify(pid, bounds, params)
    ref = _Tally()
    each(ref, bounds, params, getattr(owner, name))
    assert (report.instances, report.failures, report.counterexamples) == (
        ref.instances,
        ref.failures,
        tuple(ref.bad),
    )
    assert properties._CAP < report.failures < report.instances


def _each_green_relations(t, bounds, green_r):
    # every witness and every map sharing a's domain built afresh per pair
    elems = list(enumerate_elements(bounds))
    span = bounds.n + bounds.s + 1
    for a in elems:
        for b in elems:
            sharing = []
            for shift in range(-span, span + 1):
                try:
                    sharing.append(PartialIso(a.excluded, shift))
                except InvalidShift:
                    pass
            is_l = green_l(a, b)
            is_r = green_r(a, b)
            t.check(is_l == (a * a.inverse() == b * b.inverse()), a, b)
            t.check(is_r == (a.inverse() * a == b.inverse() * b), a, b)
            is_h = green_h(a, b)
            t.check(is_h == (is_l and is_r), a, b)
            t.check(is_h == (a == b), a, b)
            linked = green_d(a, b)
            t.check(linked == any(green_r(c, b) for c in sharing), a, b)
            if linked:
                w = d_witness(a, b)
                t.check(
                    w is not None
                    and w.excluded == a.excluded
                    and w.inverse().excluded == b.excluded
                    and w.noise == a.noise,
                    a, b, w,
                )
            t.check(green_j(a, b), a, b)
            x = PartialIso(b.excluded, a.tail_start - b.dom_min)
            y = PartialIso(range(1, a.ran_tail_start), b.shift - (a.tail_start - b.dom_min) - a.shift)
            t.check(x * a * y == b, a, b, x, y)


def test_green_relations_matches_a_check_per_instance(monkeypatch):
    # the suite reads its witnesses and its D search from rows keyed by
    # what a contributes; with green_r flipped on the maps of shift 1 and
    # noise 3, both as a and inside the search, a check per pair must
    # give the same report
    bounds = EnumBounds(4, 2)
    wrong = _flips_on(1, 3)(properties.green_r)
    monkeypatch.setattr(properties, "green_r", wrong)
    report = verify("green_relations", bounds)
    ref = _Tally()
    _each_green_relations(ref, bounds, wrong)
    assert (report.instances, report.failures, report.counterexamples) == (
        ref.instances,
        ref.failures,
        tuple(ref.bad),
    )
    assert properties._CAP < report.failures < report.instances


def test_green_relations_searches_each_domain_once(monkeypatch):
    # green_r decides each pair once, and the D search once per (domain,
    # b) over the 2*span+1 maps sharing that domain, not once per pair
    bounds = EnumBounds(3, 2)
    calls = []
    real = properties.green_r

    def spy(a, b):
        calls.append(None)
        return real(a, b)

    monkeypatch.setattr(properties, "green_r", spy)
    report = verify("green_relations", bounds)
    elems = list(enumerate_elements(bounds))
    span = bounds.n + bounds.s + 1
    domains = len({(g.dom_min, g.gaps) for g in elems})
    assert report.passed
    assert len(calls) <= len(elems) ** 2 + domains * len(elems) * (2 * span + 1) == 4020


def _each_word_soundness(t):
    # the suite's words, each normalized and folded whole
    rng = random.Random(90125)
    t.check(normalize_word(parse_word("ab")) == BicyclicNF(0, 0), "ab")
    for _ in range(1000):
        word = tuple(rng.choice("ab") for _ in range(rng.randint(0, 20)))
        nf = normalize_word(word)
        t.check(word_iso(word) == embed(nf), "".join(word), nf)
        first = reduce_word(word)
        last = reduce_word(word, rightmost=True)
        t.check(first == last, "".join(word), first, last)
        t.check(first == "b" * nf.k + "a" * nf.l, "".join(word), first, nf)


@pytest.mark.parametrize("pair", [None, (0, 3, 0, 1), (1, 0, 1, 0), (0, 9, 1, 0)], ids=str)
def test_word_soundness_with_shared_heads_matches_a_check_per_word(monkeypatch, pair):
    # the suite folds each distinct head of up to 8 letters once; with the
    # normal-form product wrong on one exponent pair, inside heads, inside
    # the rest of words or both, every word whose fold makes that product
    # must fail as it does when each word is folded whole
    if pair is not None:
        real = BicyclicNF.__mul__

        def wrong(u, v):
            w = real(u, v)
            return BicyclicNF(w.k, w.l + 1) if (u.k, u.l, v.k, v.l) == pair else w

        monkeypatch.setattr(BicyclicNF, "__mul__", wrong)
    report = verify("word_soundness", EnumBounds(3, 2))
    ref = _Tally()
    _each_word_soundness(ref)
    assert (report.instances, report.failures, report.counterexamples) == (
        ref.instances,
        ref.failures,
        tuple(ref.bad),
    )
    if pair is None:
        assert report.passed and report.instances == EXPECTED_INSTANCES["word_soundness", None]
    else:
        assert properties._CAP < report.failures < report.instances


@pytest.mark.parametrize(
    "pid,bounds,params",
    [
        ("nbhd_product", EnumBounds(8, 2), NoiseParams(3)),
        ("class_closure", EnumBounds(5, 2), NoiseParams(4)),
        ("natural_order", EnumBounds(4, 2), None),
        ("ext_assoc", EnumBounds(4, 2), NoiseParams(3)),
        ("retraction", EnumBounds(4, 2), None),
        ("nbhd_translation", EnumBounds(8, 2), NoiseParams(3)),
    ],
)
def test_product_tables_hold_numbers_not_products(plan_record, pid, bounds, params):
    # a table keeps each distinct product once and a number per pair; a
    # memo of one product per pair peaks at 2-3 MiB on the first two calls;
    # the call's plan row, run once per session, warms it up
    plan_record[pid, bounds.n, bounds.s, None if params is None else params.j]
    tracemalloc.start()
    try:
        verify(pid, bounds, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_check_mask_counts_like_check():
    def never(n):
        raise AssertionError("info is read only for a kept failure")

    t = _Tally()
    t.check_mask(0, _mask([]), never)
    t.check_mask(3, _mask([not ok for ok in (True, 1, True)]), never)
    assert (t.instances, t.failures, t.bad) == (3, 0, [])
    oks = [i % 3 != 1 for i in range(20)]
    each = _Tally()
    for i, ok in enumerate(oks):
        each.check(ok, i, "row")
    read = []

    def info(n):
        read.append(n)
        return n, "row"

    t.check_mask(len(oks), _mask([not ok for ok in oks]), info)
    assert (t.instances - 3, t.failures, t.bad) == (each.instances, each.failures, each.bad)
    # the lowest failures, in order, and no more than are kept
    assert read == [1, 4, 7, 10, 13]
    assert len(t.bad) == properties._CAP
    # once the cap is reached, failures are counted but never described
    t.check_mask(2, 0b10, never)
    assert (t.instances, t.failures) == (25, 8)


def test_check_mask_describes_only_the_room_left():
    # a row failing on more bits than the cap has room for describes the
    # lowest of them, in order, and counts every one
    t = _Tally()
    for n in range(3):
        t.check(False, n)
    read = []

    def info(n):
        read.append(n)
        return (n,)

    bad = 1 << 3 | 1 << 9 | 1 << 40 | 1 << 4000
    t.check_mask(4001, bad, info)
    assert read == [3, 9]
    assert t.bad == [("0",), ("1",), ("2",), ("3",), ("9",)]
    assert (t.instances, t.failures) == (4004, 7)


def test_nbhd_translation_is_refused_before_its_first_check(monkeypatch):
    # every split is listed and planned before the first product is taken
    def unchecked(x, y):
        raise AssertionError("checked before the plan")

    monkeypatch.setattr(properties, "ext_mul", unchecked)
    monkeypatch.setattr(properties, "_ext_product", unchecked)
    with pytest.raises(OverBudget):
        verify("nbhd_translation", EnumBounds(0, 0), NoiseParams(14))


@pytest.mark.parametrize(
    "pid,bounds,params,units",
    [
        ("natural_order", EnumBounds(9, 0), None, 23038976),
        ("natural_order", EnumBounds(10, 0), None, 132466688),
        ("ext_order", EnumBounds(9, 0), NoiseParams(9), 22395805),
        ("ext_order", EnumBounds(8, 2), NoiseParams(8), 51188145),
    ],
)
def test_order_suites_are_refused_before_their_first_check(monkeypatch, pid, bounds, params, units):
    # the relation table is built and each related pair's row planned
    # before the first check, so a call past the budget checks nothing
    def unchecked(self, *args):
        raise AssertionError("checked before the plan")

    monkeypatch.setattr(_Tally, "check", unchecked)
    monkeypatch.setattr(_Tally, "check_mask", unchecked)
    with pytest.raises(OverBudget) as info:
        verify(pid, bounds, params)
    assert str(info.value) == f"verify {pid} plans {units} units, above the budget of 16777216"


@pytest.mark.parametrize(
    "pid,bounds,params,units",
    [
        ("natural_order", EnumBounds(11, 0), None, 46137344),
        ("natural_order", EnumBounds(12, 0), None, 184549376),
        ("ext_order", EnumBounds(11, 0), NoiseParams(11), 25241657),
    ],
)
def test_order_suites_are_refused_before_their_table(monkeypatch, pid, bounds, params, units):
    # the n^2 relation table and the fixed checks of each pair are
    # planned together, so a call whose pairs alone pass the budget
    # compares no pair
    def unbuilt(x, y):
        raise AssertionError("compared before the plan")

    monkeypatch.setattr(properties, "leq", unbuilt)
    monkeypatch.setattr(properties, "ext_leq", unbuilt)
    with pytest.raises(OverBudget) as info:
        verify(pid, bounds, params)
    assert str(info.value) == f"verify {pid} plans {units} units, above the budget of 16777216"


@pytest.mark.parametrize(
    "pid,bounds,params,cls,hashes",
    [
        ("nbhd_product", EnumBounds(8, 2), NoiseParams(3), PartialIso, 0),
        ("class_closure", EnumBounds(5, 2), NoiseParams(4), PartialIso, 0),
        # a member pool of base points alone: one hash per product of two
        # of the five levels, as the table numbers it
        ("nbhd_product", EnumBounds(0, 0), NoiseParams(8), Group, 25),
    ],
)
def test_split_members_are_named_by_position(monkeypatch, pid, bounds, params, cls, hashes):
    # a member is read by its position in the pool, never looked up by
    # itself; only the product keys the table numbers are hashed
    calls = count()
    real = cls.__hash__

    def spy(x):
        next(calls)
        return real(x)

    monkeypatch.setattr(cls, "__hash__", spy)
    report = verify(pid, bounds, params)
    assert report.passed and report.instances > 0
    assert next(calls) == hashes
