"""The traced run: per-function call counts and self time, per layer.

The tracer wraps the public functions named in TARGETS at every place
the package binds them: module globals (including names imported with
``from .x import y``), class attributes (``PartialIso.__mul__`` is a
second binding of ``compose``) and module-level dispatch tables.  Nothing
under src/ is edited.  A function's self time is its wall time minus the
time of wrapped calls nested inside it.

The traced profile is one fixed pass over the work of all three
workloads: the acceptance sweep, the first TRACED_CASES cases of the
seeded deep_elements pool and the CLI table run in process through
``cli.invoke``.  Covering all three keeps every per-layer metric
measured in every traced run.  It runs once untraced
and once traced; the gap is the tracing overhead.  Its call counts
depend only on the seed.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import clicalls
import clock
import deep
import sweep

# layer -> function -> (class name or None, attribute)
TARGETS: dict[str, dict[str, tuple]] = {
    "core": {
        "new": ("PartialIso", "__init__"),
        "compose": ("PartialIso", "compose"),
        "inverse": ("PartialIso", "inverse"),
        "pow": ("PartialIso", "__pow__"),
        "tail": ("PartialIso", "tail"),
        **{
            name: (None, name)
            for name in (
                "head_offsets",
                "in_offset_class",
                "in_offset_class_range",
                "leq",
                "green_l",
                "green_r",
                "green_d",
            )
        },
    },
    "oracle": {name: (None, name) for name in ("enumerate_elements", "compose_via_window")},
    "extension": {
        name: (None, name)
        for name in ("ext_mul", "ext_leq", "up_set_truncated", "translate_left", "translate_right")
    },
    "topology": {
        name: (None, name)
        for name in ("nbhd_member", "seq_elem", "empirical_converges", "nbhd_upset_agreement")
    },
    "bicyclic": {
        name: (None, name)
        for name in ("recognize", "embed", "normalize_word", "reduce_word", "word_iso")
    },
    "expr": {name: (None, name) for name in ("parse", "evaluate")},
    "cli": {"invoke": (None, "invoke")},
}

SUITES = sorted({suite for suite, *_ in sweep.PLAN})
# deep_elements cases in the traced profile: a quarter of the pool keeps a
# traced run near a minute.
TRACED_CASES = 64


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer, funcs in TARGETS.items():
        for name in funcs:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
    units["oracle.enum.yield_ratio"] = "ratio"
    units["oracle.enum.candidates"] = "count"
    units["oracle.enum.yielded"] = "count"
    for suite in SUITES:
        units[f"properties.{suite}.wall_s"] = "s"
    units["cli.import_ms"] = "ms"
    units["cli.interp_ms"] = "ms"
    units["trace.untraced_wall_s"] = "s"
    units["trace.traced_wall_s"] = "s"
    units["trace.overhead_pct"] = "%"
    return units


class Tracer:
    """Counts calls and self time of wrapped functions on one span stack."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        # constructions tried and elements yielded, per enumeration bounds
        self.enum_tried: Counter = Counter()
        self.enum_yielded: Counter = Counter()
        self._stack: list[float] = []  # time of wrapped children, per open span
        self._enum_key = None  # bounds of the enumeration being resumed
        self._undo: list = []

    def _span(self, name: str, fn):
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dt

        return traced

    def _new_span(self, name: str, fn):
        inner = self._span(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._enum_key is not None:
                self.enum_tried[self._enum_key] += 1
            return inner(*args, **kwargs)

        return traced

    def _generator_span(self, name: str, fn):
        """Each resumption of the generator is one span of ``name``."""
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(bounds, *args, **kwargs):
            self.calls[name] += 1
            key = repr(bounds)
            it = fn(bounds, *args, **kwargs)
            while True:
                stack.append(0.0)
                outer, self._enum_key = self._enum_key, key
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    self._enum_key = outer
                    self.self_s[name] += dt - stack.pop()
                    if stack:
                        stack[-1] += dt
                self.enum_yielded[key] += 1
                yield item

        return traced

    def install(self, modules: dict) -> list[str]:
        """Wrap every target at every binding site; return the targets
        the package no longer has."""
        missing = []
        for layer, funcs in TARGETS.items():
            module = modules[layer]
            for name, (cls_name, attr) in funcs.items():
                owner = getattr(module, cls_name) if cls_name else module
                orig = vars(owner).get(attr)
                if orig is None:
                    missing.append(f"{layer}.{name}")
                    continue
                metric = f"{layer}.{name}"
                if inspect.isgeneratorfunction(orig):
                    wrapper = self._generator_span(metric, orig)
                elif metric == "core.new":
                    wrapper = self._new_span(metric, orig)
                else:
                    wrapper = self._span(metric, orig)
                self._rebind(orig, wrapper)
        return missing

    def _rebind(self, orig, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cofiso" and not mod_name.startswith("cofiso."):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._set(module, attr, wrapper)
                elif isinstance(value, type) and value.__module__ == mod_name:
                    for cattr, cvalue in list(vars(value).items()):
                        if cvalue is orig:
                            self._set(value, cattr, wrapper)
                elif isinstance(value, dict):
                    for key, dvalue in list(value.items()):
                        if dvalue is orig:
                            self._undo.append((value.__setitem__, key, orig))
                            value[key] = wrapper

    def _set(self, owner, attr, wrapper) -> None:
        self._undo.append((functools.partial(setattr, owner), attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            put, key, orig = self._undo.pop()
            put(key, orig)


def _work(api, plan, cases, calls, walls=None) -> tuple[float, int, int]:
    """One pass over the fixed work; return (seconds of work, attempted,
    failed).  Gate checks run between operations, off the clock."""
    _, failed, seconds = sweep.run_pass(api, plan, clock.plain)
    busy = sum(seconds)
    if walls is not None:
        for (suite, *_), took in zip(plan, seconds):
            walls[suite] = walls.get(suite, 0.0) + took
    for case in cases:
        out, took = clock.plain(deep.run_case, api, case, case.text())
        busy += took
        failed += not deep.gate(case, out)
    for call in calls:
        (code, doc), took = clock.plain(api.cli.invoke, list(call[0]))
        busy += took
        failed += not clicalls.gate(call, code, doc)
    return busy, len(plan) + len(cases) + len(calls), failed


def _child_ms(root: str, code: str, repeats: int) -> float:
    """Median of the time a fresh interpreter reports for running ``code``,
    which prints its own elapsed seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    samples = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, check=True
        )
        samples.append(float(out.stdout) * 1000)
    return statistics.median(samples)


IMPORT_PROBE = "import time; t = time.perf_counter(); import cofiso.cli; print(time.perf_counter() - t)"


def interp_ms(repeats: int = 5) -> float:
    """Median wall time of a bare interpreter, spawn to exit."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        samples.append((time.perf_counter() - t0) * 1000)
    return statistics.median(samples)


def profile(api, seed: int, root: str) -> tuple[dict, int, int, list[str]]:
    """Run the traced profile; return (metrics, attempted, failed, report lines)."""
    plan = sweep.setup(api, seed)
    cases = deep.generate(seed)[:TRACED_CASES]
    calls = clicalls.sequence(seed, 1)

    walls: dict = {}
    untraced, attempted, failed = _work(api, plan, cases, calls, walls)

    tracer = Tracer()
    modules = {layer: getattr(api, layer) for layer in TARGETS}
    missing = tracer.install(modules)
    try:
        traced, more, bad = _work(api, plan, cases, calls)
    finally:
        tracer.uninstall()
    attempted += more
    failed += bad

    metrics = {}
    for layer, funcs in TARGETS.items():
        for name in funcs:
            metric = f"{layer}.{name}"
            metrics[f"{metric}.calls"] = tracer.calls[metric]
            metrics[f"{metric}.self_s"] = tracer.self_s[metric]
    tried = sum(tracer.enum_tried.values())
    yielded = sum(tracer.enum_yielded.values())
    metrics["oracle.enum.yield_ratio"] = yielded / tried if tried else 1.0
    metrics["oracle.enum.candidates"] = tried
    metrics["oracle.enum.yielded"] = yielded
    for suite in SUITES:
        metrics[f"properties.{suite}.wall_s"] = walls[suite]
    metrics["cli.import_ms"] = _child_ms(root, IMPORT_PROBE, 5)
    metrics["cli.interp_ms"] = interp_ms()
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.traced_wall_s"] = traced
    metrics["trace.overhead_pct"] = (traced / untraced - 1) * 100

    lines = [f"targets missing from the package: {', '.join(missing)}"] if missing else []
    lines.append("enumerations (elements yielded / constructions tried):")
    for key in sorted(tracer.enum_tried.keys() | tracer.enum_yielded.keys()):
        got, base = tracer.enum_yielded[key], tracer.enum_tried[key]
        ratio = f"{got / base:.4f}" if base else "n/a"
        lines.append(f"  {key:<30} {got:>9} / {base:<9} = {ratio}")
    return metrics, attempted, failed, lines
