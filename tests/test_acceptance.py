"""The thirteen exhaustive acceptance criteria at their contract bounds.

Each criterion reads the rows of its suites in the benchmark's sweep
plan, run once per session, and a direct exhaustive loop where it has
one; it ends with a single verdict line (run with -v to see them).
"""

from itertools import combinations

from conftest import EXPECTED_INSTANCES, PLAN

from cofiso.core import NoiseParams
from cofiso.bicyclic import BicyclicNF, normalize_word, parse_word
from cofiso.topology import converges, distinguish, empirical_converges


def _plan_passes(plan_record, *suites):
    """Every plan row of these suites, each with rows, passes and checks
    exactly its expected instances, so an enumeration checking less fails."""
    rows = [row for row in PLAN if row[0] in suites]
    assert {pid for pid, *_ in rows} == set(suites)
    for row in rows:
        report = plan_record[row]
        assert report.passed, (row, report.counterexamples)
        assert report.instances == EXPECTED_INSTANCES[row[0], row[3]], (row, report.instances)


def test_criterion_01_oracle_equivalence(plan_record):
    _plan_passes(plan_record, "oracle_equiv")
    print("ACCEPTANCE 1 oracle equivalence: PASS")


def test_criterion_02_inverse_monoid_axioms(plan_record):
    _plan_passes(plan_record, "inverse_axioms", "idempotent_iff", "assoc")
    print("ACCEPTANCE 2 inverse-monoid axioms: PASS")


def test_criterion_03_green_relations(plan_record):
    _plan_passes(plan_record, "green_relations")
    print("ACCEPTANCE 3 Green relations: PASS")


def test_criterion_04_order_and_congruence(plan_record):
    _plan_passes(plan_record, "natural_order", "congruence")
    print("ACCEPTANCE 4 natural order and group congruence: PASS")


def test_criterion_05_retraction(plan_record):
    _plan_passes(plan_record, "retraction")
    print("ACCEPTANCE 5 tail retraction homomorphism: PASS")


def test_criterion_06_offset_classes(plan_record):
    _plan_passes(plan_record, "offset_classes", "class_closure")
    print("ACCEPTANCE 6 offset classes and closure: PASS")


def test_criterion_07_absorption_and_chains(plan_record):
    _plan_passes(plan_record, "absorption", "tail_chain", "conjugation")
    print("ACCEPTANCE 7 absorption and collapsing chains: PASS")


def test_criterion_08_noise_series(plan_record):
    _plan_passes(plan_record, "noise_one_absent", "series_strict")
    print("ACCEPTANCE 8 noise series facts: PASS")


def test_criterion_09_boundary(plan_record):
    _plan_passes(plan_record, "boundary")
    print("ACCEPTANCE 9 two-sided boundary sets: PASS")


def test_criterion_10_extension(plan_record):
    _plan_passes(plan_record, "ext_assoc", "ext_ideal", "ext_order", "ext_commute")
    _plan_passes(plan_record, "ext_surjective", "ext_translation")
    print("ACCEPTANCE 10 adjoined-integer extension: PASS")


def test_criterion_11_topology_continuity(plan_record):
    _plan_passes(plan_record, "nbhd_product", "nbhd_translation", "nbhd_inversion", "upset_char")
    _plan_passes(plan_record, "nbhd_nesting", "nbhd_hausdorff", "nbhd_monotone")
    print("ACCEPTANCE 11 neighborhood continuity and characterization: PASS")


def test_criterion_12_pairwise_distinct_topologies(plan_record):
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
    _plan_passes(plan_record, "convergence_probe")
    print("ACCEPTANCE 12 pairwise distinct topologies: PASS")


def test_criterion_13_bicyclic(plan_record):
    _plan_passes(plan_record, "bicyclic_hom", "word_soundness")
    assert normalize_word(parse_word("ab")) == BicyclicNF(0, 0)
    print("ACCEPTANCE 13 bicyclic normal forms: PASS")
