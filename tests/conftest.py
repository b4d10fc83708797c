import os
import runpy

import pytest

from cofiso import properties
from cofiso.core import NoiseParams
from cofiso.oracle import EnumBounds


def perfbench(name):
    """The names that the benchmark's perfbench/<name>.py defines, run
    from its source file, which writes no bytecode beside it."""
    return runpy.run_path(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", f"{name}.py"))


# the benchmark's sweep plan, (suite, N, S, j) for every suite at its
# acceptance bounds, and its instance counts
SWEEP = perfbench("sweep")
PLAN, EXPECTED_INSTANCES = SWEEP["PLAN"], SWEEP["EXPECTED_INSTANCES"]


class _PlanRecord(dict):
    # the report of each plan row, run when first read
    def __missing__(self, row):
        assert row in PLAN, row
        pid, n, s, j = row
        self[row] = properties.verify(pid, EnumBounds(n, s), None if j is None else NoiseParams(j))
        return self[row]


@pytest.fixture(scope="session")
def plan_record():
    return _PlanRecord()
