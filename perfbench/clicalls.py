"""cli_calls: one `python -m cofiso` child at a time, spawn to exit.

CALLS is a table of small argument lists with the exit code and the key
JSON fields each must produce, worked out by hand from the definitions
in the package docstrings.  The seed picks the order: each block of
len(CALLS) calls is a seeded permutation of the table, so every
subcommand is called equally often whatever the seed.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

# (argv, exit code, fields the JSON document must contain)
CALLS: tuple[tuple[tuple[str, ...], int, dict], ...] = (
    (("eval", "a*b"), 0, {"value": {"excluded": [], "shift": 0}, "repr": "iso([],0)"}),
    (("eval", "b*a"), 0, {"value": {"excluded": [1], "shift": 0}}),
    (("eval", "b^2 a^3 e[4]"), 0, {"value": {"excluded": [1, 2, 3], "shift": 1}}),
    (("eval", "grp(2)*b^3"), 0, {"value": {"group": -1}}),
    (
        ("classify", "iso([2],0)", "--j", "3", "--M", "2"),
        0,
        {"nd": 3, "und": 1, "noise": 2, "pi": 0, "in_gj": True, "in_M": True, "bicyclic": None},
    ),
    (
        ("classify", "b^2*a", "--j", "2"),
        0,
        {"nd": 3, "und": 3, "noise": 0, "pi": -1, "idempotent": False, "bicyclic": {"k": 2, "l": 1}},
    ),
    (
        ("classify", "iso([2,3],1)", "--j", "3", "--M", "2"),
        0,
        {"nd": 4, "und": 1, "nr": 5, "unr": 2, "noise": 3, "in_gj": True, "in_M": False, "in_M_range": False},
    ),
    (("green", "L", "iso([1],0)", "iso([1],1)"), 0, {"related": True}),
    (("green", "R", "a", "b"), 1, {"related": False}),
    (
        ("green", "D", "iso([2],0)", "iso([1,3],1)"),
        0,
        {"related": True, "witness": {"excluded": [2], "shift": 1}},
    ),
    (("green", "H", "a", "a*b*a"), 0, {"related": True}),
    (("order", "iso([1],0)", "I"), 0, {"leq": True}),
    (("order", "I", "iso([1],0)"), 1, {"leq": False}),
    (("order", "grp(0)", "e[5]"), 0, {"leq": True}),
    (("pi", "a^3 b"), 0, {"pi": 2}),
    (("pi", "grp(4) a"), 0, {"pi": 5}),
    (("pi", "b^5 e[2]"), 0, {"pi": -5}),
    (
        ("arrow", "iso([2],0)"),
        0,
        {"value": {"excluded": [1, 2], "shift": 0}, "bicyclic": {"k": 2, "l": 2}},
    ),
    (
        ("arrow", "b^2 a^3"),
        0,
        {"value": {"excluded": [1, 2], "shift": 1}, "bicyclic": {"k": 2, "l": 3}},
    ),
    (
        ("arrow", "e[4] a"),
        0,
        {"value": {"excluded": [1, 2, 3, 4], "shift": 1}, "bicyclic": {"k": 4, "l": 5}},
    ),
    (("normalize", "ab"), 0, {"k": 0, "l": 0, "reduced": ""}),
    (("normalize", "baab"), 0, {"k": 1, "l": 1, "reduced": "ba", "value": {"excluded": [1], "shift": 0}}),
    (("normalize", "bbaba"), 0, {"k": 2, "l": 1, "reduced": "bba", "value": {"excluded": [1, 2], "shift": -1}}),
    (("nbhd", "iso([1,2,3],0)", "--k", "0", "--i", "4", "--j", "2"), 0, {"member": True}),
    (("nbhd", "grp(1)", "--k", "1", "--i", "3", "--j", "2"), 0, {"member": True}),
    (("nbhd", "iso([2],0)", "--k", "0", "--i", "2", "--j", "2"), 1, {"member": False}),
    (("nbhd", "iso([2],0)", "--k", "0", "--i", "2", "--j", "2", "--M", "2"), 0, {"member": True}),
    (
        ("converge", "--offsets", "2", "--k", "0", "--j", "2", "--M", "2"),
        0,
        {"converges": True, "empirical": True, "agree": True},
    ),
    (
        ("converge", "--offsets", "2", "--k", "0", "--j", "2"),
        1,
        {"converges": False, "empirical": False, "agree": True},
    ),
    (
        ("converge", "--shift", "1", "--k", "1", "--j", "3", "--M", "all"),
        0,
        {"converges": True, "empirical": True, "agree": True},
    ),
    (
        ("distinguish", "2", "3", "--j", "3"),
        0,
        {"kept_offsets": [2], "shift": 0, "converges_m1": True, "converges_m2": False},
    ),
    (
        ("distinguish", "none", "2,3,4", "--j", "4"),
        0,
        {"kept_offsets": [2], "converges_m1": False, "converges_m2": True},
    ),
    (
        ("distinguish", "3,4", "4", "--j", "4"),
        0,
        {"kept_offsets": [3], "converges_m1": True, "converges_m2": False},
    ),
    (("upset", "iso([1,2],0)", "--j", "2", "--bound", "3"), 0, {"count": 4, "complete": True}),
    (("upset", "grp(0)", "--j", "2", "--bound", "2"), 0, {"count": 5, "complete": False}),
    (("upset", "iso([3],1)", "--j", "3", "--bound", "2"), 0, {"count": 1, "complete": False}),
    (("boundary", "--j", "2"), 0, {"count": 2}),
    (("boundary", "--j", "3"), 0, {"count": 4}),
    (("boundary", "--j", "4"), 0, {"count": 8}),
)

WARMUP_ARGV = ("eval", "a")


def sequence(seed: int, blocks: int) -> list:
    """``blocks`` seeded permutations of the table, one after another."""
    rng = random.Random(seed)
    out = []
    for _ in range(blocks):
        block = list(CALLS)
        rng.shuffle(block)
        out.extend(block)
    return out


def gate(call, code: int, doc) -> bool:
    """The exit code, the schema and every expected field match."""
    _, want_code, fields = call
    return (
        code == want_code
        and isinstance(doc, dict)
        and doc.get("schema") == 1
        and all(doc.get(key) == value for key, value in fields.items())
    )


def spawn(root: str, argv) -> tuple[int, object, float]:
    """Run one CLI child to exit; return (exit code, parsed document or
    None, the child's peak RSS in MiB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    child = subprocess.Popen(
        [sys.executable, "-m", "cofiso", *argv],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    with child.stdout:
        out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    try:
        doc = json.loads(out)
    except ValueError:
        doc = None
    return child.returncode, doc, usage.ru_maxrss / 1024
