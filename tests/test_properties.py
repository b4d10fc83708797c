import os
import sys
import tracemalloc
from itertools import count, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cofiso import properties
from cofiso.bicyclic import embed, normalize_word, word_iso
from cofiso.core import IDENTITY, NoiseParams, PartialIso
from cofiso.extension import Group, ext_inv, ext_mul, up_set_truncated
from cofiso.oracle import EnumBounds, compose_via_window, enumerate_elements
from cofiso.properties import (
    Report,
    UnknownProperty,
    _REGISTRY,
    _Tally,
    _check_assoc,
    _ext_universe,
    _numbered_products,
    _topo_pool,
    known_properties,
    suite_level,
    suite_size,
    verify,
)
from cofiso.topology import NbhdSpec, upset_pool

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


def test_unknown_property_lists_the_registry():
    with pytest.raises(UnknownProperty) as info:
        verify("not_a_property", EnumBounds(1, 0))
    assert "assoc" in str(info.value)


def test_counterexamples_are_capped(monkeypatch):
    def many_failures(t, bounds, params):
        for i in range(10):
            t.check(False, i)

    monkeypatch.setitem(_REGISTRY, "many_failures", ("fails ten times", many_failures))
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
    def many_failures(t, bounds, params):
        for i in range(10):
            t.check(False, i)

    monkeypatch.setitem(_REGISTRY, "many_failures", ("fails ten times", many_failures))
    report = verify("many_failures", EnumBounds(1, 0))
    assert report.failures == 10
    assert len(report.counterexamples) == 5


@pytest.mark.parametrize("j,instances", [(2, 68921), (3, 166375)])
def test_ext_assoc_checks_every_triple(j, instances):
    # the products come from numbered tables; still one check per (x, y, z)
    report = verify("ext_assoc", EnumBounds(4, 2), NoiseParams(j))
    assert report.passed and report.instances == instances
    assert instances == len(_ext_universe(EnumBounds(4, 2), NoiseParams(j))) ** 3


@pytest.mark.parametrize("n,s", [(0, 0), (2, 0), (3, 1), (4, 2), (5, 4)])
def test_suite_size_counts_at_least_the_walked_pool(n, s):
    bounds = EnumBounds(n, s)
    p = NoiseParams(3)
    pools = {
        "assoc": list(enumerate_elements(bounds)),
        "ext_assoc": _ext_universe(bounds, p),
        "ext_translation": up_set_truncated(Group(0), p, n).elements,
        "nbhd_inversion": _topo_pool(bounds, p)[1],
        "upset_char": max((upset_pool(k, n) for k in range(-2, 3)), key=len),
        "word_soundness": [],
    }
    for pid, pool in pools.items():
        shifts, extra = suite_size(pid, bounds)
        assert len(pool) <= (shifts << n) + extra, (pid, n, s)
    # the counts are exact where every candidate shift is admissible: none
    # sends the least domain point below 1 once s is 0 and no noise cap applies
    assert suite_size("assoc", EnumBounds(n, 0)) == (1, 0)
    assert len(list(enumerate_elements(EnumBounds(n, 0)))) == 1 << n


def test_suite_size_is_refused_for_an_unknown_suite():
    with pytest.raises(UnknownProperty):
        suite_size("not_a_property", EnumBounds(1, 0))


# every suite call of tests/test_acceptance.py: (suite, N, S, j)
ACCEPTANCE_CALLS = [
    *(
        (pid, 4, 2, None)
        for pid in (
            "oracle_equiv",
            "inverse_axioms",
            "idempotent_iff",
            "green_relations",
            "natural_order",
            "congruence",
            "retraction",
            "absorption",
            "tail_chain",
            "conjugation",
            "bicyclic_hom",
        )
    ),
    ("assoc", 3, 2, None),
    *((pid, 5, 2, j) for pid in ("offset_classes", "class_closure") for j in (2, 3, 4)),
    *((pid, 6, 3, None) for pid in ("noise_one_absent", "series_strict")),
    *(("boundary", 6, 2, j) for j in (2, 3, 4, 5, 6)),
    *(
        (pid, 4, 2, j)
        for pid in ("ext_assoc", "ext_ideal", "ext_order", "ext_commute", "ext_surjective", "ext_translation")
        for j in (2, 3)
    ),
    *(
        (pid, 8, 2, j)
        for pid in (
            "nbhd_product",
            "nbhd_translation",
            "nbhd_inversion",
            "upset_char",
            "nbhd_nesting",
            "nbhd_hausdorff",
            "nbhd_monotone",
        )
        for j in (2, 3)
    ),
    *(("convergence_probe", 3, 2, j) for j in (2, 3, 4)),
    ("word_soundness", 3, 2, None),
]


def _verify_planned(monkeypatch, pid, bounds, params):
    """verify's report and the units its suite planned."""
    tallies = []

    class Recording(_Tally):
        def __init__(self, *args):
            super().__init__(*args)
            tallies.append(self)

    monkeypatch.setattr(properties, "_Tally", Recording)
    report = verify(pid, bounds, params)
    return report, tallies[-1].planned


@pytest.mark.parametrize("pid,n,s,j", ACCEPTANCE_CALLS)
def test_acceptance_plans_cover_the_instances_well_inside_the_budget(monkeypatch, pid, n, s, j):
    params = None if j is None else NoiseParams(j)
    report, planned = _verify_planned(monkeypatch, pid, EnumBounds(n, s), params)
    assert report.instances <= planned <= properties._WORK // 32


def test_acceptance_calls_cover_every_suite():
    assert len(ACCEPTANCE_CALLS) == 55
    assert {pid for pid, *_ in ACCEPTANCE_CALLS} == set(known_properties())


@pytest.mark.parametrize("pid", known_properties())
def test_plans_bound_the_instances_and_the_calls(monkeypatch, pid):
    # a plan is honest both ways: no suite checks more instances than it
    # planned, nor makes more than 64 Python calls into the package per
    # planned unit, so a budget in units bounds the time a call takes
    home = os.path.dirname(properties.__file__)
    calls = 0

    def count_calls(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(home):
            calls += 1

    levels = (None,) if suite_level(pid) is None else (2, 4)
    for (n, s), j in product(((0, 0), (3, 2)), levels):
        calls = 0
        sys.setprofile(count_calls)
        try:
            params = None if j is None else NoiseParams(j)
            report, planned = _verify_planned(monkeypatch, pid, EnumBounds(n, s), params)
        finally:
            sys.setprofile(None)
        assert report.instances <= planned, (n, s, j)
        assert calls <= 64 * planned, (n, s, j, calls, planned)


@pytest.mark.parametrize(
    "pid,j",
    [("offset_classes", 3), ("boundary", 3), ("ext_assoc", 2), ("nbhd_inversion", 2), ("convergence_probe", 3)],
)
def test_a_suite_given_no_params_runs_at_its_own_level(pid, j):
    bounds = SMOKE_BOUNDS.get(pid, EnumBounds(3, 2))
    assert verify(pid, bounds) == verify(pid, bounds, NoiseParams(j))


@pytest.mark.parametrize("pid", [pid for pid in known_properties() if suite_level(pid) is None])
def test_a_suite_with_no_level_reads_no_params(pid):
    # so verify --j lists nothing for it
    bounds = SMOKE_BOUNDS.get(pid, EnumBounds(3, 2))
    assert verify(pid, bounds, NoiseParams(18)) == verify(pid, bounds)


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
        _ext_universe(EnumBounds(3, 1), NoiseParams(2)),
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
        (_ext_universe(EnumBounds(3, 1), NoiseParams(2)), ext_mul),
        (list(enumerate_elements(EnumBounds(3, 1))), _twisted),
    ],
    ids=["ext universe", "planted"],
)
def test_numbered_products_number_each_distinct_product_once(univ, mul):
    ids, table = _numbered_products(univ, mul)
    values = list(ids)
    products = [[mul(x, y) for y in univ] for x in univ]
    assert [[values[n] for n in row] for row in table] == products
    assert all(ids[v] == n for n, v in enumerate(values))
    assert len(ids) == len({v for row in products for v in row})
    # dense and numbered in the order the pairs are read, row by row
    first_seen = list(dict.fromkeys(n for row in table for n in row))
    assert first_seen == list(range(len(ids)))


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


def _wrong_split(real):
    def split(pool, i, p):
        by_k = real(pool, i, p)
        by_k[0] = [Group(1)] + by_k[0][1:]
        return by_k

    return split


@pytest.mark.parametrize(
    "pid,name,wrong",
    [
        ("nbhd_inversion", "ext_inv", _wrong_inverse),
        ("green_relations", "green_r", _wrong_green_r),
        ("nbhd_translation", "_members_by_level", _wrong_split),
        ("nbhd_product", "ext_mul", _wrong_product),
    ],
)
def test_hoisted_suites_still_catch_a_planted_fault(monkeypatch, pid, name, wrong):
    # each suite computes this once per call; a fault in it must still show
    bounds, params = EnumBounds(3, 2), NoiseParams(2)
    clean = verify(pid, bounds, params)
    assert clean.passed
    monkeypatch.setattr(properties, name, wrong(getattr(properties, name)))
    report = verify(pid, bounds, params)
    assert report.failures > 0
    assert report.instances == clean.instances


def _flips_on(shift, noise):
    # a fault only some elements meet: the predicate flips on the maps of
    # one shift and noise, given as its first argument
    def wrong(real):
        def flipped(x, *rest):
            flip = isinstance(x, PartialIso) and x.shift == shift and x.noise == noise
            return real(x, *rest) != flip

        return flipped

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
                        t.check(not (member(x, s1) and member(x, s2)), x, k1, k2, i)


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
    monkeypatch.setattr(properties, "nbhd_member", _flips_on(2, 3)(properties.nbhd_member))
    report = verify(pid, bounds, params)
    ref = _Tally()
    _, pool = _topo_pool(bounds, params)
    each(ref, pool, properties._all_params(3), properties.nbhd_member)
    assert (report.instances, report.failures, report.counterexamples) == (
        ref.instances,
        ref.failures,
        tuple(ref.bad),
    )
    # the fault shows in some rows and not in others, more often than kept
    assert properties._CAP < report.failures < report.instances


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


def _each_product(t, bounds, params, member):
    j, pool = _topo_pool(bounds, params)
    for p in properties._all_params(j):
        for i in range(j + 1, j + 3):
            by_k = properties._members_by_level(pool, i, p)
            for k1 in range(-2, 3):
                for k2 in range(-2, 3):
                    target = NbhdSpec(k1 + k2, i, p)
                    for x in by_k.get(k1, []):
                        for y in by_k.get(k2, []):
                            t.check(member(ext_mul(x, y), target), x, y, k1, k2, i, p.offsets)


@pytest.mark.parametrize(
    "pid,name,wrong,each,bounds",
    [
        ("natural_order", "leq", _flips_on(1, 3), _each_natural_order, EnumBounds(3, 2)),
        ("class_closure", "in_offset_class", _flips_on(2, 3), _each_class_closure, EnumBounds(4, 2)),
        ("nbhd_product", "nbhd_member", _flips_on(2, 3), _each_product, EnumBounds(4, 2)),
    ],
)
def test_tabled_suites_match_a_check_per_instance(monkeypatch, pid, name, wrong, each, bounds):
    # the suites read pair products from numbered tables; a check per
    # instance on products computed afresh must give the same report
    params = NoiseParams(3)
    monkeypatch.setattr(properties, name, wrong(getattr(properties, name)))
    report = verify(pid, bounds, params)
    ref = _Tally()
    each(ref, bounds, params, getattr(properties, name))
    assert (report.instances, report.failures, report.counterexamples) == (
        ref.instances,
        ref.failures,
        tuple(ref.bad),
    )
    assert properties._CAP < report.failures < report.instances


@pytest.mark.parametrize(
    "pid,bounds,params",
    [
        ("nbhd_product", EnumBounds(8, 2), NoiseParams(3)),
        ("class_closure", EnumBounds(5, 2), NoiseParams(4)),
        ("natural_order", EnumBounds(4, 2), None),
    ],
)
def test_product_tables_hold_numbers_not_products(pid, bounds, params):
    # a table keeps each distinct product once and a number per pair; a
    # memo of one product per pair peaks at 2-3 MiB on the first two calls
    verify(pid, bounds, params)
    tracemalloc.start()
    try:
        verify(pid, bounds, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_check_all_counts_like_check():
    def never(n):
        raise AssertionError("info is read only for a failed entry")

    t = _Tally()
    t.check_all([], never)
    t.check_all([True, 1, True], never)
    assert (t.instances, t.failures, t.bad) == (3, 0, [])
    oks = [i % 3 != 1 for i in range(20)]
    each = _Tally()
    for i, ok in enumerate(oks):
        each.check(ok, i, "row")
    t.check_all(oks, lambda n: (n, "row"))
    assert (t.instances - 3, t.failures, t.bad) == (each.instances, each.failures, each.bad)
    assert len(t.bad) == properties._CAP
