"""The benchmark's own correctness contracts, run in process.

The benchmark gates every output of its three workloads; the acceptance
criteria already check what the sweep's gate checks.  These tests run
the other two workloads' inputs and judge the outputs with their own
gates, so a regression fails here before a benchmark run reports it as
a failed operation.
"""

from conftest import perfbench

import cofiso
from cofiso.cli import invoke


def test_cli_calls_pass_their_gate():
    # each row's exit code, schema and expected fields, called in process
    # rather than through a python -m cofiso child
    clicalls = perfbench("clicalls")
    assert [call for call in clicalls["CALLS"] if not clicalls["gate"](call, *invoke(list(call[0])))] == []


def test_deep_elements_pass_their_gate():
    # every case of the benchmark's default seed, against its set route
    deep = perfbench("deep")
    cases = deep["generate"](1)
    assert len(cases) == deep["POOL_SIZE"]
    run_case, gate = deep["run_case"], deep["gate"]
    assert [case.text()[:80] for case in cases if not gate(case, run_case(cofiso, case, case.text()))] == []
