"""Benchmark for cofiso: three closed-loop, single-client workloads.

Run from the repository root, with nothing but the standard library:

    python3 perfbench/run.py --workload acceptance_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (one client; the next operation starts when the last ends):

  acceptance_sweep  every registered property suite at its acceptance
                    bounds; one operation is one full pass
  deep_elements     a seeded pool of long expressions over large
                    elements; one operation parses, evaluates and
                    profiles one expression
  cli_calls         a seeded sequence of `python -m cofiso` children; one
                    operation is one call, spawn to exit

With --trace 0 the run sets up SETUP_REPEATS times (reporting the median
as setup_s), measures operations for --seconds and reports the
end-to-end metrics.  Times are scaled to a reference speed as clock.py
explains; raw wall times are printed alongside.  With --trace 1 it runs
the traced profile of tracing.py, which is the same for every
--workload and ignores --seconds, and reports the per-layer metrics.  Every output is gated
against an independent route outside the timed region; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  --workload all runs each workload untraced and then
the traced profile, each in its own process.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import clicalls  # noqa: E402  (perfbench/ is on sys.path as the script's directory)
import deep  # noqa: E402
import sweep  # noqa: E402
import tracing  # noqa: E402
from clock import Clock  # noqa: E402

WORKLOADS = ("acceptance_sweep", "deep_elements", "cli_calls")
SETUP_REPEATS = 5
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MiB", "op_p50_ms": "ms"}
# Printed with every untraced run but not end-to-end metrics: both follow
# the tail of cli_calls, whose 90th percentile spread by 0.26 and whose
# mean by 0.15 across ten runs.
PRINTED_UNITS = {"op_p90_ms": "ms", "work_per_s": "1/s"}
# The names the workloads' own figures go by, printed next to the
# generic names.
ALIASES = {
    "acceptance_sweep": {"op_p50_ms": "sweep_ms", "op_p90_ms": "sweep_p90_ms", "work_per_s": "sweep_checks_per_s"},
    "deep_elements": {"op_p50_ms": "eval_p50_ms", "op_p90_ms": "eval_p90_ms", "work_per_s": "eval_per_s"},
    "cli_calls": {"op_p50_ms": "cli_p50_ms", "op_p90_ms": "cli_p90_ms", "work_per_s": "cli_calls_per_s"},
}


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


def load_cofiso(with_cli: bool = False) -> SimpleNamespace:
    """Import the package from this checkout's src/, dropping any copy
    imported before, so that each set-up pays for its own imports."""
    if not (SRC / "cofiso" / "__init__.py").is_file():
        raise SetupError(f"no package at {SRC / 'cofiso'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "cofiso" or m.startswith("cofiso.")]:
        del sys.modules[name]
    pkg = importlib.import_module("cofiso")
    if Path(pkg.__file__).resolve().parent != SRC / "cofiso":
        raise SetupError(f"imported cofiso from {pkg.__file__}, not from {SRC}")
    names = ["core", "oracle", "bicyclic", "expr", "extension", "topology", "properties"]
    if with_cli:
        names.append("cli")
    return SimpleNamespace(**{n: importlib.import_module(f"cofiso.{n}") for n in names})


def _p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _set_up(clock: Clock, make) -> tuple:
    """Run make() SETUP_REPEATS times; return (last state, median scaled
    seconds, median raw seconds)."""
    scaled = []
    for _ in range(SETUP_REPEATS):
        state, took = clock.time_call(make)
        scaled.append(took)
    raw = statistics.median(clock.raw[-SETUP_REPEATS:])
    clock.raw.clear()
    return state, statistics.median(scaled), raw


def measure_sweep(clock: Clock, seed: int, seconds: float) -> dict:
    def make():
        api = load_cofiso()
        return api, sweep.setup(api, seed)

    (api, plan), setup_s, setup_raw = _set_up(clock, make)
    passes, raw, checks, failed = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        done, bad, took = sweep.run_pass(api, plan, clock.time_call)
        passes.append(sum(took))
        raw.append(sum(clock.raw[-len(plan):]))
        checks += done
        failed += bad
    return {
        "samples": passes,
        "raw": raw,
        "work": checks,
        "attempted": len(passes) * len(plan),
        "failed": failed,
        "setup": (setup_s, setup_raw),
        "peak_rss_mb": _self_rss_mb(),
    }


def measure_deep(clock: Clock, seed: int, seconds: float) -> dict:
    def make():
        api = load_cofiso()
        cases = deep.generate(seed)
        warm = deep.Case((("b", 2), ("a", 3), ("e", 4), ("iso", (2, (4,), 1))), ("", " ", "*"), 3, frozenset({2}))
        deep.run_case(api, warm, warm.text())
        return api, cases

    (api, cases), setup_s, setup_raw = _set_up(clock, make)
    times, failed = [], 0
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        case = cases[len(times) % len(cases)]
        out, took = clock.time_call(deep.run_case, api, case, case.text())
        times.append(took)
        failed += not deep.gate(case, out)
        del out
    return {
        "samples": times,
        "raw": clock.raw,
        "work": len(times),
        "attempted": len(times),
        "failed": failed,
        "setup": (setup_s, setup_raw),
        "peak_rss_mb": _self_rss_mb(),
    }


def measure_cli(clock: Clock, seed: int, seconds: float) -> dict:
    root = str(ROOT)

    def make():
        if not (SRC / "cofiso" / "__main__.py").is_file():
            raise SetupError(f"no package at {SRC / 'cofiso'}")
        calls = clicalls.sequence(seed, blocks=100)
        code, doc, _ = clicalls.spawn(root, clicalls.WARMUP_ARGV)
        if code != 0 or doc is None:
            raise SetupError(f"warm-up call exited {code} with {doc!r}")
        return calls

    calls, setup_s, setup_raw = _set_up(clock, make)
    failed, peak = 0, 0.0
    deadline = time.perf_counter() + seconds
    while not clock.raw or time.perf_counter() < deadline:
        call = calls[len(clock.raw) % len(calls)]
        (code, doc, rss), _ = clock.time_call(clicalls.spawn, root, call[0])
        peak = max(peak, rss)
        failed += not clicalls.gate(call, code, doc)
    scale = clock.run_scale()
    return {
        "samples": [raw * scale for raw in clock.raw],
        "raw": clock.raw,
        "work": len(clock.raw),
        "attempted": len(clock.raw),
        "failed": failed,
        "setup": (setup_s, setup_raw),
        "peak_rss_mb": peak,
    }


MEASURE = {"acceptance_sweep": measure_sweep, "deep_elements": measure_deep, "cli_calls": measure_cli}


def _declared(kind: str) -> list[str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def _src_lines() -> tuple[int, int]:
    """Raw lines and lines that are neither blank nor only a comment."""
    raw = sloc = 0
    for path in sorted((SRC / "cofiso").glob("*.py")):
        for line in path.read_text().splitlines():
            raw += 1
            stripped = line.strip()
            sloc += bool(stripped) and not stripped.startswith("#")
    return raw, sloc


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    raw, sloc = _src_lines()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "cli.interp_ms": tracing.interp_ms(3),
        "src_lines": raw,
        "src_sloc": sloc,
    }


def run_one(args) -> int:
    if args.trace:
        api = load_cofiso(with_cli=True)
        values, attempted, failed, lines = tracing.profile(api, args.seed, str(ROOT))
        units = tracing.layer_metric_units()
        declared = _declared("per_layer")
        aliases = {}
        for line in lines:
            print(line)
    else:
        clock = Clock()
        m = MEASURE[args.workload](clock, args.seed, args.seconds)
        samples, raw = m["samples"], m["raw"]
        values = {
            "setup_s": m["setup"][0],
            "peak_rss_mb": m["peak_rss_mb"],
            "op_p50_ms": statistics.median(samples) * 1000,
        }
        attempted, failed = m["attempted"], m["failed"]
        units = END_TO_END_UNITS
        declared = _declared("end_to_end")
        aliases = ALIASES[args.workload]
        print(f"operations timed: {len(samples)}")
        printed = {"op_p90_ms": _p90(samples) * 1000, "work_per_s": m["work"] / sum(samples)}
        for name, value in printed.items():
            print(f"{name:<44} {value:>16.6f} {PRINTED_UNITS[name]}  ({aliases[name]}; not a metric)")
        print(
            "raw wall times: "
            f"setup_s {m['setup'][1]:.6f}  op_p50_ms {statistics.median(raw) * 1000:.3f}  "
            f"op_p90_ms {_p90(raw) * 1000:.3f}  work_per_s {m['work'] / sum(raw):.3f}  "
            f"ref_ms {statistics.median(clock.refs) * 1000:.4f}"
        )
    if sorted(values) != sorted(declared):
        raise SetupError(f"metrics {sorted(set(values) ^ set(declared))} differ from BENCHMARK.json")

    print("env: " + json.dumps(environment(args)))
    for name, value in values.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"{name:<44} {shown} {units[name]}{alias}")
    print(f"{'fail_frac':<44} {failed / attempted:>16.6f}  ({failed} of {attempted} failed)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload untraced, then the traced profile, each in a fresh process."""
    status = 0
    runs = [(w, 0) for w in WORKLOADS] + [(WORKLOADS[0], 1)]
    for workload, traced in runs:
        print(f"== {workload} trace={traced}", flush=True)
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(traced),
        ]
        status |= subprocess.run(cmd).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
