import os
import runpy

import pytest

from cofiso import properties
from cofiso.core import NoiseParams
from cofiso.oracle import EnumBounds

# the benchmark's sweep plan, (suite, N, S, j) for every suite at its
# acceptance bounds, and its instance counts, run from its source file,
# which writes no bytecode beside it
SWEEP = runpy.run_path(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "sweep.py"))
PLAN, EXPECTED_INSTANCES = SWEEP["PLAN"], SWEEP["EXPECTED_INSTANCES"]


def verify_planned(*args, run=properties.verify):
    """run(*args), by default verify's report, and the units that the
    last suite it ran planned."""
    tallies = []

    class Recording(properties._Tally):
        def __init__(self, *args):
            super().__init__(*args)
            tallies.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(properties, "_Tally", Recording)
        result = run(*args)
    return result, tallies[-1].planned


class _PlanRecord(dict):
    # (report, planned units) of each plan row, run when first read
    def __missing__(self, row):
        assert row in PLAN, row
        pid, n, s, j = row
        self[row] = verify_planned(pid, EnumBounds(n, s), None if j is None else NoiseParams(j))
        return self[row]


@pytest.fixture(scope="session")
def plan_record():
    return _PlanRecord()
