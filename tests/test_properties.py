from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cofiso import properties
from cofiso.bicyclic import embed, normalize_word, word_iso
from cofiso.core import NoiseParams, PartialIso
from cofiso.extension import Group, ext_inv, ext_mul, up_set_truncated
from cofiso.oracle import EnumBounds, compose_via_window, enumerate_elements
from cofiso.properties import (
    Report,
    UnknownProperty,
    _REGISTRY,
    _Tally,
    _check_assoc,
    _ext_universe,
    _topo_pool,
    known_properties,
    suite_level,
    suite_size,
    verify,
)
from cofiso.topology import upset_pool

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
        shifts, extra, arity, _ = suite_size(pid, bounds)
        assert len(pool) <= (shifts << n) + extra, (pid, n, s)
    # the counts are exact where every candidate shift is admissible: none
    # sends the least domain point below 1 once s is 0 and no noise cap applies
    assert suite_size("assoc", EnumBounds(n, 0))[:2] == (1, 0)
    assert len(list(enumerate_elements(EnumBounds(n, 0)))) == 1 << n


def test_every_suite_has_a_size():
    arities = {pid: suite_size(pid, EnumBounds(2, 1))[2] for pid in known_properties()}
    assert set(arities.values()) <= {1, 2, 3}
    assert arities["assoc"] == arities["ext_assoc"] == arities["natural_order"] == 3
    assert arities["nbhd_product"] == arities["oracle_equiv"] == 2
    with pytest.raises(UnknownProperty):
        suite_size("not_a_property", EnumBounds(1, 0))


def test_suite_size_counts_offset_set_tuples():
    # level j has 2^(j-1) offset sets; a suite nests 0, 1 or 2 loops over them
    bounds = EnumBounds(2, 1)
    nested = {pid: suite_size(pid, bounds, 17)[3] // 16 for pid in known_properties()}
    assert {pid for pid, sets in nested.items() if sets == 2} == {
        "offset_classes",
        "nbhd_monotone",
        "convergence_probe",
    }
    assert {pid for pid, sets in nested.items() if sets == 1} == {
        "class_closure",
        "nbhd_nesting",
        "nbhd_inversion",
        "nbhd_translation",
        "nbhd_product",
        "nbhd_hausdorff",
        "upset_char",
    }
    # without a level each suite counts at its own default
    assert suite_size("offset_classes", bounds)[3] == 4
    assert suite_size("nbhd_monotone", bounds)[3] == 2
    assert suite_size("nbhd_inversion", bounds, 0)[3] == 0


@pytest.mark.parametrize(
    "pid,j",
    [("offset_classes", 3), ("boundary", 3), ("ext_assoc", 2), ("nbhd_inversion", 2), ("convergence_probe", 3)],
)
def test_a_suite_given_no_params_runs_at_its_own_level(pid, j):
    bounds = SMOKE_BOUNDS.get(pid, EnumBounds(3, 2))
    assert verify(pid, bounds) == verify(pid, bounds, NoiseParams(j))
    assert suite_size(pid, bounds) == suite_size(pid, bounds, j)


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


def _wrong_inverse(real):
    return lambda x: Group(1) if x == Group(0) else real(x)


def _wrong_green_r(real):
    # shift 6 is past the enumerated shifts: only the search for an
    # element sharing a's domain builds this map
    far = PartialIso((), 6)
    return lambda a, b: (not real(a, b)) if a == far else real(a, b)


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
