"""Every value class is immutable, equal by class and fields, and prints
as it always has."""

import copy
import pickle

import pytest

from cofiso.bicyclic import BicyclicNF
from cofiso.core import BETA, NoiseParams, PartialIso, _product, elements, from_anatomy, in_offset_class, make
from cofiso.expr import Gen, GrpLit, IsoLit, Pow, Prod, Puncture, evaluate, parse
from cofiso.extension import Group, UpSet
from cofiso.oracle import EnumBounds
from cofiso.properties import Report, _numbered_products
from cofiso.topology import NbhdSpec, TailSeqSpec, seq_elem

# one value of each class, built afresh on each call, a field of it and
# its repr
VALUES = [
    (lambda: PartialIso((2, 4), 1), "shift", "iso([2,4],1)"),
    (lambda: NoiseParams(3, {2}), "offsets", "NoiseParams(j=3, offsets=frozenset({2}))"),
    (lambda: Group(3), "k", "grp(3)"),
    (
        lambda: UpSet((Group(0), PartialIso((2,), 0)), False),
        "complete",
        "UpSet(elements=(grp(0), iso([2],0)), complete=False)",
    ),
    (lambda: Gen("a"), "name", "Gen(name='a')"),
    (lambda: Puncture(3), "index", "Puncture(index=3)"),
    (lambda: IsoLit((2,), 1), "excluded", "IsoLit(excluded=(2,), shift=1)"),
    (lambda: GrpLit(3), "k", "GrpLit(k=3)"),
    (
        lambda: Prod(Gen("a"), Pow(Gen("b"), -2)),
        "left",
        "Prod(left=Gen(name='a'), right=Pow(base=Gen(name='b'), exponent=-2))",
    ),
    (lambda: Pow(Gen("b"), 2), "exponent", "Pow(base=Gen(name='b'), exponent=2)"),
    (lambda: BicyclicNF(1, 2), "l", "BicyclicNF(1,2)"),
    (
        lambda: NbhdSpec(0, 2, NoiseParams(2)),
        "params",
        "NbhdSpec(k=0, i=2, params=NoiseParams(j=2, offsets=frozenset()))",
    ),
    (lambda: TailSeqSpec({2}, 1), "kept_offsets", "TailSeqSpec(kept_offsets=frozenset({2}), shift=1)"),
    (lambda: EnumBounds(3, 1), "j", "EnumBounds(n=3, s=1, j=None)"),
    (
        lambda: Report("assoc", "d", True, 8),
        "failures",
        "Report(property_id='assoc', description='d', passed=True, instances=8, counterexamples=(), failures=0, planned=0)",
    ),
]


@pytest.mark.parametrize("build,field,text", VALUES, ids=[text.split("(")[0] for _, _, text in VALUES])
def test_value_semantics(build, field, text):
    x, y = build(), build()
    assert x is not y
    assert x == y and not x != y and hash(x) == hash(y)
    with pytest.raises(AttributeError):
        setattr(x, field, 0)
    with pytest.raises(AttributeError):
        delattr(x, field)
    assert x == y and repr(x) == text
    assert copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x


def test_values_of_different_classes_are_unequal():
    assert Puncture(3) != GrpLit(3)
    assert Group(3) != GrpLit(3)
    assert Gen("a") != ("a",)
    assert len({Puncture(3), GrpLit(3), Group(3), BicyclicNF(0, 0), PartialIso()}) == 5


def test_groups_and_normal_forms_sort():
    assert sorted([Group(2), Group(-1), Group(0)]) == [Group(-1), Group(0), Group(2)]
    nfs = [BicyclicNF(1, 0), BicyclicNF(0, 2), BicyclicNF(0, 1)]
    assert sorted(nfs) == [BicyclicNF(0, 1), BicyclicNF(0, 2), BicyclicNF(1, 0)]
    assert Group(1) <= Group(1) < Group(2) and Group(2) >= Group(2) > Group(1)
    assert BicyclicNF(0, 1) <= BicyclicNF(0, 1) < BicyclicNF(1, 0)
    with pytest.raises(TypeError):
        Group(1) < BicyclicNF(0, 1)
    with pytest.raises(TypeError):
        Gen("a") < Gen("b")


def test_constructors_keep_their_defaults_and_checks():
    assert NoiseParams(3) == NoiseParams(3, frozenset())
    assert TailSeqSpec() == TailSeqSpec(frozenset(), 0)
    assert EnumBounds(3, 1) == EnumBounds(3, 1, None) == EnumBounds(n=3, s=1)
    assert Report("a", "d", True, 8) == Report("a", "d", True, 8, (), 0, 0)
    # sets are stored frozen whatever iterable comes in
    assert NoiseParams(3, [3, 2]).offsets == frozenset({2, 3})
    assert TailSeqSpec([2], 1).kept_offsets == frozenset({2})
    for build, message in [
        (lambda: NoiseParams(-1), "noise bound must be >= 0"),
        (lambda: NoiseParams(3, {4}), "offset 4 outside 2..3"),
        (lambda: TailSeqSpec({1}), "kept offset 1 must be >= 2"),
        (lambda: NbhdSpec(0, 0, NoiseParams(2)), "neighborhood index must be >= 1"),
        (lambda: EnumBounds(-1, 0), "bounds must be non-negative"),
        (lambda: EnumBounds(1, 0, -1), "noise cap must be non-negative"),
        (lambda: BicyclicNF(-1, 0), "exponents must be non-negative"),
    ]:
        with pytest.raises(ValueError, match=message):
            build()
    with pytest.raises(TypeError):
        Gen()


class TestNumbersAreIntegers:
    """The public constructors pass each number through operator.index:
    a float is refused with TypeError, an int or a bool is kept as its
    int."""

    def test_map_shift(self):
        with pytest.raises(TypeError):
            PartialIso((1,), 0.5)
        assert PartialIso((1,), True) == PartialIso((1,), 1)
        assert repr(PartialIso((1,), True)) == "iso([1],1)"

    def test_power_exponent(self):
        with pytest.raises(TypeError):
            PartialIso((1,), 0) ** 2.0
        assert PartialIso((1,), 1) ** True == PartialIso((1,), 1)
        assert repr(BETA ** 3) == "iso([1,2,3],-3)"

    def test_noise_params(self):
        for build in (lambda: NoiseParams(2.5), lambda: NoiseParams(3, [2.0]), lambda: NoiseParams(3, [2, 3.5])):
            with pytest.raises(TypeError):
                build()
        assert NoiseParams(True) == NoiseParams(1)
        assert repr(NoiseParams(3, [True + 1])) == "NoiseParams(j=3, offsets=frozenset({2}))"
        # an int offset still reaches the shift in_offset_class makes
        assert in_offset_class(PartialIso((2,)), NoiseParams(3, [2]))

    def test_tail_sequence_spec(self):
        for build in (lambda: TailSeqSpec([2.0]), lambda: TailSeqSpec([2], 0.5)):
            with pytest.raises(TypeError):
                build()
        assert TailSeqSpec([2], True) == TailSeqSpec([2], 1)
        assert repr(TailSeqSpec([True + 1], True)) == "TailSeqSpec(kept_offsets=frozenset({2}), shift=1)"

    def test_enumeration_bounds(self):
        for build in (lambda: EnumBounds(2.5, 1), lambda: EnumBounds(2, 1.0), lambda: EnumBounds(2, 1, 2.0)):
            with pytest.raises(TypeError):
                build()
        assert EnumBounds(True, False, True) == EnumBounds(1, 0, 1)
        assert repr(EnumBounds(True, False)) == "EnumBounds(n=1, s=0, j=None)"


def test_a_map_keeps_its_fields_in_slots():
    g = PartialIso((2, 4), 1)
    assert {"dom_min", "gaps", "shift"} <= set(PartialIso.__slots__)
    assert (g.dom_min, g.gaps, g.shift) == (1, 0b1010, 1)
    # the dict holds only the excluded tuple, once it has been read
    assert vars(g) == {}
    assert g.excluded == (2, 4) and vars(g) == {"excluded": (2, 4)}
    h = from_anatomy(3, 0b10, -1)
    for twin in (pickle.loads(pickle.dumps(h)), copy.deepcopy(h), copy.copy(h)):
        assert twin == h and twin is not h and vars(twin) == {}
        assert repr(twin) == "iso([1,2,4],-1)"


def _tail_start_routes():
    """(route, map) for each way a map is built: literals, the anatomy
    constructor, the algebra, the sequences, the enumeration, the
    product tables and the copy protocols."""
    g, h = PartialIso((2, 4), 1), make([1, 3, 6], -1)
    yield "literal", g
    yield "literal", PartialIso()
    yield "literal", PartialIso((1, 2, 5), -2)
    # a parsed literal's leading 1, 2, 3 is passed as a run, not walked
    yield "parsed literal", evaluate(parse("iso([1,2,3,5,8],-2)"))
    yield "parsed literal", evaluate(parse("iso([1,2,3],1)"))
    yield "make", h
    yield "from_anatomy", from_anatomy(3, 0b110, -2)
    yield "compose", g * h
    yield "compose", h.compose(g)
    yield "inverse", g.inverse()
    yield "inverse", h.inverse()
    yield "tail", g.tail()
    yield "tail", h.tail()
    for n in (-3, 0, 2, 5):
        yield "pow", g**n
        yield "pow", h**n
    yield "pow", BETA**7
    yield "seq_elem", seq_elem(TailSeqSpec({2, 4}, -1), 7)
    yield "seq_elem", seq_elem(TailSeqSpec(frozenset(), 2), 3)
    for e in elements(range(1, 5), (-1, 0, 2), 3):
        yield "elements", e
    # a table keyed by anatomy builds each distinct product from its key
    for v in _numbered_products([g, h, g.inverse(), BETA], _product)[2]:
        yield "table value", v
    for twin in (pickle.loads(pickle.dumps(h)), copy.copy(h), copy.deepcopy(h)):
        yield "copy", twin


def test_every_route_stores_the_tail_start():
    assert "tail_start" in PartialIso.__slots__
    for route, g in _tail_start_routes():
        assert g.tail_start == max(g.excluded, default=0) + 1 == g.dom_min + g.noise, (route, g)
        # a field of the slots, not of the dict, and not of the value
        assert "tail_start" not in vars(g)
        assert hash(g) == hash((g.dom_min, g.gaps, g.shift))
        assert g.__reduce__() == (from_anatomy, (g.dom_min, g.gaps, g.shift))
    g = PartialIso((2, 4), 1)
    with pytest.raises(AttributeError, match="'tail_start'"):
        g.tail_start = 9
    with pytest.raises(AttributeError, match="'tail_start'"):
        del g.tail_start
    assert g.tail_start == 5


def test_offset_mask_memo_leaves_equality_alone():
    p = NoiseParams(4, {3})
    assert in_offset_class(PartialIso((2, 3), 0), p)
    assert not in_offset_class(PartialIso((2,), 0), p)
    assert p == NoiseParams(4, {3}) and hash(p) == hash(NoiseParams(4, {3}))
    assert repr(p) == "NoiseParams(j=4, offsets=frozenset({3}))"


def test_noise_params_hash_is_the_hash_of_its_fields():
    p = NoiseParams(5, {2, 4})
    twins = (p, NoiseParams(5, [4, 2]), pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p))
    for q in twins:
        assert hash(q) == hash((5, frozenset({2, 4}))) and q == p
    assert hash(NoiseParams(0)) == hash((0, frozenset()))
    assert repr(p) == "NoiseParams(j=5, offsets=frozenset({2, 4}))"
