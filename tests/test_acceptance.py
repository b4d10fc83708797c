"""The thirteen exhaustive acceptance suites at their contract bounds.

Each test drives registered property suites (or a direct exhaustive
loop) at the stated enumeration budget and ends with a single verdict
line; run with -v to see one line per criterion.
"""

from itertools import combinations

from cofiso.core import NoiseParams
from cofiso.bicyclic import BicyclicNF, normalize_word, parse_word
from cofiso.oracle import EnumBounds
from cofiso.properties import verify
from cofiso.topology import converges, distinguish, empirical_converges


def _run(property_id, n, s, j, instances):
    """One suite call; ``instances`` is the exact count it must check, so
    an enumeration that checks less fails here."""
    params = NoiseParams(j) if j is not None else None
    report = verify(property_id, EnumBounds(n, s), params)
    assert report.passed, (property_id, report.counterexamples)
    assert report.instances == instances, (property_id, j, report.instances)
    return report


def test_criterion_01_oracle_equivalence():
    _run("oracle_equiv", 4, 2, None, 3600)
    print("ACCEPTANCE 1 oracle equivalence: PASS")


def test_criterion_02_inverse_monoid_axioms():
    _run("inverse_axioms", 4, 2, None, 436)
    _run("idempotent_iff", 4, 2, None, 136)
    _run("assoc", 3, 2, None, 27000)
    print("ACCEPTANCE 2 inverse-monoid axioms: PASS")


def test_criterion_03_green_relations():
    _run("green_relations", 4, 2, None, 25962)
    print("ACCEPTANCE 3 Green relations: PASS")


def test_criterion_04_order_and_congruence():
    _run("natural_order", 4, 2, None, 27939)
    _run("congruence", 4, 2, None, 11056)
    print("ACCEPTANCE 4 natural order and group congruence: PASS")


def test_criterion_05_retraction():
    _run("retraction", 4, 2, None, 3982)
    print("ACCEPTANCE 5 tail retraction homomorphism: PASS")


def test_criterion_06_offset_classes():
    for j, offset, closure in ((2, 601, 2738), (3, 1325, 8992), (4, 3499, 25782)):
        _run("offset_classes", 5, 2, j, offset)
        _run("class_closure", 5, 2, j, closure)
    print("ACCEPTANCE 6 offset classes and closure: PASS")


def test_criterion_07_absorption_and_chains():
    _run("absorption", 4, 2, None, 121)
    _run("tail_chain", 4, 2, None, 37)
    _run("conjugation", 4, 2, None, 320)
    print("ACCEPTANCE 7 absorption and collapsing chains: PASS")


def test_criterion_08_noise_series():
    _run("noise_one_absent", 6, 3, None, 314)
    _run("series_strict", 6, 3, None, 1256)
    print("ACCEPTANCE 8 noise series facts: PASS")


def test_criterion_09_boundary():
    for j in (2, 3, 4, 5, 6):
        _run("boundary", 6, 2, j, 4)
    print("ACCEPTANCE 9 two-sided boundary sets: PASS")


def test_criterion_10_extension():
    counts = {
        "ext_assoc": (68921, 166375),
        "ext_ideal": (2206, 3746),
        "ext_order": (2228, 3941),
        "ext_commute": (205, 275),
        "ext_surjective": (1, 1),
        "ext_translation": (115, 163),
    }
    for index, j in enumerate((2, 3)):
        for suite, instances in counts.items():
            _run(suite, 4, 2, j, instances[index])
    print("ACCEPTANCE 10 adjoined-integer extension: PASS")


def test_criterion_11_topology_continuity():
    counts = {
        "nbhd_product": (12105, 40539),
        "nbhd_translation": (3821, 8656),
        "nbhd_inversion": (75300, 150600),
        "upset_char": (70, 140),
        "nbhd_nesting": (75300, 150600),
        "nbhd_hausdorff": (75300, 150600),
        "nbhd_monotone": (7530, 37650),
    }
    for index, j in enumerate((2, 3)):
        for suite, instances in counts.items():
            _run(suite, 8, 2, j, instances[index])
    print("ACCEPTANCE 11 neighborhood continuity and characterization: PASS")


def test_criterion_12_pairwise_distinct_topologies():
    j = 4
    subsets = [frozenset(c) for r in range(4) for c in combinations((2, 3, 4), r)]
    assert len(subsets) == 8
    pairs = list(combinations(subsets, 2))
    assert len(pairs) == 28
    for m1, m2 in pairs:
        spec = distinguish(m1, m2, j)
        p1, p2 = NoiseParams(j, m1), NoiseParams(j, m2)
        v1, v2 = converges(spec, 0, p1), converges(spec, 0, p2)
        assert v1 != v2, (sorted(m1), sorted(m2))
        assert empirical_converges(spec, 0, p1, depth=20, horizon=60) == v1
        assert empirical_converges(spec, 0, p2, depth=20, horizon=60) == v2
    for j, instances in ((2, 100), (3, 400), (4, 1600)):
        _run("convergence_probe", 3, 2, j, instances)
    print("ACCEPTANCE 12 pairwise distinct topologies: PASS")


def test_criterion_13_bicyclic():
    _run("bicyclic_hom", 4, 2, None, 2532)
    _run("word_soundness", 3, 2, None, 3001)
    assert normalize_word(parse_word("ab")) == BicyclicNF(0, 0)
    print("ACCEPTANCE 13 bicyclic normal forms: PASS")
