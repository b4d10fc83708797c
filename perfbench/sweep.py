"""acceptance_sweep: every registered property suite at its acceptance bounds.

The plan mirrors tests/test_acceptance.py and adds the four suites that
the test suite runs only at smoke bounds (nbhd_nesting, nbhd_hausdorff,
nbhd_monotone at N=8, S=2, j in {2, 3}; convergence_probe at N=3, S=2,
j in {2, 3, 4}).  The input is fixed: the seed is recorded only.
"""

from __future__ import annotations


# (suite, N, S, j); j None means verify() gets no NoiseParams.
PLAN: tuple[tuple[str, int, int, int | None], ...] = (
    ("oracle_equiv", 4, 2, None),
    ("inverse_axioms", 4, 2, None),
    ("idempotent_iff", 4, 2, None),
    ("assoc", 3, 2, None),
    ("green_relations", 4, 2, None),
    ("natural_order", 4, 2, None),
    ("congruence", 4, 2, None),
    ("retraction", 4, 2, None),
    *(
        (suite, 5, 2, j)
        for j in (2, 3, 4)
        for suite in ("offset_classes", "class_closure")
    ),
    ("absorption", 4, 2, None),
    ("tail_chain", 4, 2, None),
    ("conjugation", 4, 2, None),
    ("noise_one_absent", 6, 3, None),
    ("series_strict", 6, 3, None),
    *(("boundary", 6, 2, j) for j in (2, 3, 4, 5, 6)),
    *(
        (suite, 4, 2, j)
        for j in (2, 3)
        for suite in (
            "ext_assoc",
            "ext_ideal",
            "ext_order",
            "ext_commute",
            "ext_surjective",
            "ext_translation",
        )
    ),
    *(
        (suite, 8, 2, j)
        for j in (2, 3)
        for suite in (
            "nbhd_product",
            "nbhd_translation",
            "nbhd_inversion",
            "upset_char",
            "nbhd_nesting",
            "nbhd_hausdorff",
            "nbhd_monotone",
        )
    ),
    *(("convergence_probe", 3, 2, j) for j in (2, 3, 4)),
    ("bicyclic_hom", 4, 2, None),
    ("word_soundness", 3, 2, None),
)

# Instances each (suite, j) must check at the bounds above, as counted by
# the implementation this benchmark was written against.  A suite that checks fewer is a failure, so
# the sweep cannot get faster by checking less.
EXPECTED_INSTANCES: dict[tuple[str, int | None], int] = {
    ("oracle_equiv", None): 3600,
    ("inverse_axioms", None): 436,
    ("idempotent_iff", None): 136,
    ("assoc", None): 27000,
    ("green_relations", None): 25962,
    ("natural_order", None): 27939,
    ("congruence", None): 11056,
    ("retraction", None): 3982,
    ("offset_classes", 2): 601,
    ("offset_classes", 3): 1325,
    ("offset_classes", 4): 3499,
    ("class_closure", 2): 2738,
    ("class_closure", 3): 8992,
    ("class_closure", 4): 25782,
    ("absorption", None): 121,
    ("tail_chain", None): 37,
    ("conjugation", None): 320,
    ("noise_one_absent", None): 314,
    ("series_strict", None): 1256,
    ("boundary", 2): 4,
    ("boundary", 3): 4,
    ("boundary", 4): 4,
    ("boundary", 5): 4,
    ("boundary", 6): 4,
    ("ext_assoc", 2): 68921,
    ("ext_assoc", 3): 166375,
    ("ext_ideal", 2): 2206,
    ("ext_ideal", 3): 3746,
    ("ext_order", 2): 2228,
    ("ext_order", 3): 3941,
    ("ext_commute", 2): 205,
    ("ext_commute", 3): 275,
    ("ext_surjective", 2): 1,
    ("ext_surjective", 3): 1,
    ("ext_translation", 2): 115,
    ("ext_translation", 3): 163,
    ("nbhd_product", 2): 12105,
    ("nbhd_product", 3): 40539,
    ("nbhd_translation", 2): 3821,
    ("nbhd_translation", 3): 8656,
    ("nbhd_inversion", 2): 75300,
    ("nbhd_inversion", 3): 150600,
    ("upset_char", 2): 70,
    ("upset_char", 3): 140,
    ("nbhd_nesting", 2): 75300,
    ("nbhd_nesting", 3): 150600,
    ("nbhd_hausdorff", 2): 75300,
    ("nbhd_hausdorff", 3): 150600,
    ("nbhd_monotone", 2): 7530,
    ("nbhd_monotone", 3): 37650,
    ("convergence_probe", 2): 100,
    ("convergence_probe", 3): 400,
    ("convergence_probe", 4): 1600,
    ("bicyclic_hom", None): 2532,
    ("word_soundness", None): 3001,
}

def setup(api, seed: int) -> list:
    """Bind the plan to the package's bound and parameter types and warm
    up one small suite.  The seed does not change the input."""
    plan = [
        (
            suite,
            j,
            api.oracle.EnumBounds(n, s),
            None if j is None else api.core.NoiseParams(j),
        )
        for suite, n, s, j in PLAN
    ]
    api.properties.verify("assoc", api.oracle.EnumBounds(2, 1))
    return plan


def gate(suite: str, j, report) -> bool:
    """A suite call is correct when it passed and checked exactly the
    instances its bounds give."""
    return report.passed and report.instances == EXPECTED_INSTANCES[(suite, j)]


def run_pass(api, plan: list, time_call) -> tuple[int, int, list[float]]:
    """Run every planned suite once; return (instances checked, calls
    that failed the gate, seconds per call as time_call measured them).

    ``time_call(fn, *args)`` calls fn and returns (result, seconds).
    """
    verify = api.properties.verify
    checks = failed = 0
    seconds = []
    for suite, j, bounds, params in plan:
        report, took = time_call(verify, suite, bounds, params)
        seconds.append(took)
        checks += report.instances
        failed += not gate(suite, j, report)
    return checks, failed, seconds
