"""Operation timing scaled to a reference speed.

The benchmark runs on shared two-core virtual machines whose speed
drifts by about ±20% over seconds to minutes: a fixed pure-Python loop
took between 36 and 55 ms across 4-second windows of one 100-second
run on an otherwise idle 2-vCPU Xeon guest, with CPU time equal to wall
time.  Raw wall times therefore spread by ~18% from run to run however
much work a run measures.

The clock runs a short, fixed pure-Python reference slice after every
operation and scales the operation's wall time by REF_NOMINAL_S over the
mean of the slices just before and just after it.  A scaled time reads
as the wall time on a machine that runs the slice in exactly
REF_NOMINAL_S.  The slice is the benchmark's own code, so no change to
the package can move it.  Raw wall times are kept and printed alongside.

A call that runs a child process (cli_calls) does its work outside this
process, so the slices next to one call say little about the speed that
call saw.  Such calls are scaled by the run's median slice instead
(run_scale): over the same ten runs, the 90th percentile of call times
spread by 0.12 scaled this way and by 0.21 scaled per call.
"""

from __future__ import annotations

import statistics
import time

REF_ITERATIONS = 1000
REF_NOMINAL_S = 0.004


def reference_slice() -> float:
    """Seconds taken by a fixed loop of small set, sort and tuple work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += len(tuple(sorted({(i * 7919 + k) % 97 for k in range(16)})))
    return time.perf_counter() - t0


def plain(fn, *args):
    """Call fn; return (result, wall seconds)."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


class Clock:
    """Times calls and scales each to the reference speed."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.refs: list[float] = [reference_slice()]

    def time_call(self, fn, *args):
        """Call fn; return (result, scaled seconds).  The raw wall time is
        appended to self.raw."""
        out, raw = plain(fn, *args)
        self.refs.append(reference_slice())
        self.raw.append(raw)
        return out, raw * 2 * REF_NOMINAL_S / (self.refs[-2] + self.refs[-1])

    def run_scale(self) -> float:
        """REF_NOMINAL_S over the median of every slice run so far."""
        return REF_NOMINAL_S / statistics.median(self.refs)
