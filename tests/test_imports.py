"""The package and the CLI load only the modules a caller uses."""

import argparse
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cofiso

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args):
    """A fresh interpreter on this checkout's src/, compiling from source
    as it does when no bytecode may be written."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT, timeout=60
    )


class TestPackage:
    def test_bare_import_loads_no_module(self):
        proc = run_python(
            "-c", "import sys, cofiso; print(sorted(m for m in sys.modules if m.startswith('cofiso')))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['cofiso']"

    def test_no_module_imports_dataclasses_or_inspect(self):
        proc = run_python(
            "-c", "import sys, cofiso.cli, cofiso.properties; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_expr_import_builds_no_counting_text(self):
        # the text a literal's leading run is compared with is built on first use
        proc = run_python("-c", "import cofiso.expr as e; print(e._counting)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "(0, '')"

    def test_expr_import_leaves_json_out(self):
        # every literal point is read by int(); json loads only with the CLI
        proc = run_python("-c", "import sys, cofiso.expr; print('json' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_public_names_are_their_home_module_objects(self):
        for name in cofiso.__all__:
            home = importlib.import_module(f"cofiso.{cofiso._HOME[name]}")
            assert getattr(cofiso, name) is vars(home)[name], name

    def test_modules_load_on_attribute_access(self):
        from cofiso import properties

        assert cofiso.properties is properties is sys.modules["cofiso.properties"]
        assert cofiso.verify is properties.verify

    def test_dir_lists_every_public_name(self):
        assert set(cofiso.__all__) <= set(dir(cofiso))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            cofiso.nope


_BASE = {"cofiso", "cofiso.cli", "cofiso.core", "cofiso.expr", "cofiso.extension"}
_BICYCLIC = _BASE | {"cofiso.bicyclic"}
_TOPOLOGY = _BASE | {"cofiso.topology"}

# one call per subcommand, and the package modules it must load
COMMANDS = [
    (["eval", "a*b"], _BASE),
    (["classify", "b^2*a", "--j", "2"], _BICYCLIC),
    (["green", "D", "iso([2],0)", "iso([1,3],1)"], _BASE),
    (["order", "grp(0)", "e[5]"], _BASE),
    (["pi", "a^3 b"], _BASE),
    (["arrow", "iso([2],0)"], _BICYCLIC),
    (["normalize", "baab"], _BICYCLIC),
    (["nbhd", "iso([2],0)", "--k", "0", "--i", "2", "--j", "2", "--M", "2"], _TOPOLOGY),
    (["converge", "--offsets", "2", "--k", "0", "--j", "2"], _TOPOLOGY),
    (["distinguish", "2", "3", "--j", "3"], _TOPOLOGY),
    (["upset", "iso([1,2],0)", "--j", "2", "--bound", "3"], _BASE),
    (["boundary", "--j", "2"], _BASE),
    (
        ["verify", "absorption", "--N", "1", "--S", "0"],
        _BICYCLIC | _TOPOLOGY | {"cofiso.oracle", "cofiso.properties"},
    ),
]


# Runs the package as ``python -m cofiso`` does, through runpy, and at
# exit lists on stderr the package modules in sys.modules, and dataclasses
# and inspect if either was imported.
_RUN_AS_MAIN = (
    "import atexit, runpy, sys\n"
    "_WATCHED = ('cofiso', 'dataclasses', 'inspect')\n"
    "atexit.register(lambda: print(*(m for m in sys.modules if m.split('.')[0] in _WATCHED), file=sys.stderr))\n"
    "runpy.run_module('cofiso', run_name='__main__', alter_sys=True)\n"
)


class TestCliLoading:
    def test_every_subcommand_is_listed(self):
        from cofiso.cli import build_parser

        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert sorted(sub.choices) == sorted(argv[0] for argv, _ in COMMANDS)

    @pytest.mark.parametrize("argv,modules", COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
    def test_subcommand_loads_only_its_modules(self, argv, modules):
        proc = run_python("-c", _RUN_AS_MAIN, *argv)
        assert proc.returncode in (0, 1), proc.stdout
        assert json.loads(proc.stdout)["schema"] == 1
        assert proc.stdout.count("\n") == 1
        loaded = set(proc.stderr.split())
        assert not loaded & {"dataclasses", "inspect"}
        assert loaded == modules


def _names_read(source: str) -> set[str]:
    """The names, imported names and attributes the source reads."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
    return found


# a set-bit walk copied by hand into topology: numbers() as it was before
# core._ones took its find loop
_COPIED_FIND_LOOP = """        found = []
        digits = _bits(self.mask(k, i, p))
        n = digits.find("1")
        while n >= 0:
            found.append(n)
            n = digits.find("1", n + 1)
        return found"""


def _low_bits(source: str) -> list[str]:
    """The x & -x expressions the source takes a low bit with."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
            for x, neg in ((node.left, node.right), (node.right, node.left)):
                if isinstance(neg, ast.UnaryOp) and isinstance(neg.op, ast.USub) and ast.dump(neg.operand) == ast.dump(x):
                    found.append(ast.unparse(node))
    return found


def _range_refusals(source: str) -> list[str]:
    """The raise statements of the source that name the offset range."""
    return [
        ast.unparse(node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise) and "outside 2.." in ast.unparse(node)
    ]


def _params_reads(source: str) -> list[str]:
    """The registered suites of the source that take anything but
    (t, bounds, j), and the functions other than verify that read a name
    params."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef):
            if any(ast.unparse(d).startswith("register(") for d in node.decorator_list):
                if [arg.arg for arg in node.args.args] != ["t", "bounds", "j"]:
                    found.append(f"{node.name} takes {ast.unparse(node.args)}")
            if node.name != "verify" and any(
                isinstance(n, ast.Name) and n.id == "params" for n in ast.walk(node)
            ):
                found.append(f"{node.name} reads params")
    return found


# each rule core owns, as its caller reads it, and a copy of it written
# out by hand, as the callers had them before core held the one copy
_CHECK_BUDGET_CALL = """    _check_budget(lambda: f"the value excludes {count} points", count)
"""
_COPIED_BUDGET_TEST = """    if count > core._BUDGET:
        raise OverBudget(f"the value excludes {count} points, above the budget of {core._BUDGET}")
"""
_ONES_CALL = """            for n in _ones(bad)[: _CAP - len(self.bad)]:
                self.bad.append(tuple(repr(x) for x in info(n)))
"""
_COPIED_LOW_BIT_LOOP = """            while bad and len(self.bad) < _CAP:
                low = bad & -bad
                self.bad.append(tuple(repr(x) for x in info(low.bit_length() - 1)))
                bad ^= low
"""
_NOISE_PARAMS_CALL = """    NoiseParams(j, s1 | s2)  # refuses j < 0 and any offset outside 2..j
"""
_COPIED_RANGE_LOOP = """    for m in sorted(s1 | s2):
        if not 2 <= m <= j:
            raise ValueError(f"offset {m} outside 2..{j}")
"""
# verify hands each suite its level; a suite that took the parameters
# and read the level itself, as every level-dependent suite did before
_SUITE_TAKES_J = """def _boundary(t, bounds, j):
"""
_COPIED_PARAMS_SUITE = """def _boundary(t, bounds, params):
    j = params.j
"""
# head_offsets is the independent route behind the mask form of
# in_offset_class: it lists the clear stretches of the gap mask and reads
# no offset mask; a copy that reads the class through the mask
_HEAD_OFFSETS_WALK = """    for i in (*_ones(g.gaps), n + 1):
"""
_HEAD_OFFSETS_VIA_MASK = """    for i in (*_ones(g.gaps & ~NoiseParams(n, range(2, n + 1)).offset_mask(n)[1]), n + 1):
"""
_HEAD_OFFSETS_FORBIDDEN = {"_offset_bits", "offset_mask", "in_offset_class", "_offset_mask"}
# _Value.__lt__ orders every value class by its _order key; a class
# that compares itself, as Group did before _Value held the one order
_GROUP_REPR = """    def __repr__(self) -> str:
        return f"grp({self.k})"
"""
_COPIED_GROUP_LT = """    def __lt__(self, other: "Group") -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.k < other.k

""" + _GROUP_REPR


def _comparisons(source: str) -> list[str]:
    """Class.method for each comparison a class body other than _Value's
    writes."""
    return [
        f"{node.name}.{f.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and node.name != "_Value"
        for f in node.body
        if isinstance(f, ast.FunctionDef) and f.name in {"__lt__", "__le__", "__gt__", "__ge__"}
    ]


def _head_offsets_reads(source: str) -> list[str]:
    """The offset-mask names and attributes that head_offsets reads."""
    (fn,) = (node for node in ast.parse(source).body if getattr(node, "name", None) == "head_offsets")
    return sorted(_names_read(ast.unparse(fn)) & _HEAD_OFFSETS_FORBIDDEN)


class TestSources:
    @pytest.mark.parametrize("path", sorted((ROOT / "src" / "cofiso").glob("*.py")), ids=lambda p: p.name)
    def test_every_imported_name_is_used(self, path):
        # a name a module imports and never reads is a leftover
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert sorted(imported - used) == []

    def test_every_private_function_is_read(self):
        # a private function, or a method of a private class, that no
        # source reads is a leftover; dunders are called by Python, an
        # override by its base class and registered suites by verify()
        functions, methods, names, attributes = set(), set(), set(), set()
        for path in sorted((ROOT / "src" / "cofiso").glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    attributes.add(node.attr)
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                    suite = any(ast.unparse(d).startswith("register(") for d in node.decorator_list)
                    if not node.name.startswith("__") and not suite:
                        functions.add(node.name)
                elif isinstance(node, ast.ClassDef) and node.name.startswith("_"):
                    bases = getattr(importlib.import_module(f"cofiso.{path.stem}"), node.name).__mro__[1:]
                    methods |= {
                        f.name
                        for f in node.body
                        if isinstance(f, ast.FunctionDef)
                        and not f.name.startswith("__")
                        and not any(hasattr(base, f.name) for base in bases)
                    }
        # a method is read as an attribute; a bare name may be a local
        assert sorted(functions - names - attributes) == []
        assert sorted(methods - attributes) == []

    def test_value_classes_share_one_equality_and_hash(self):
        # _Value's __eq__ and __hash__ read each class's fields through
        # its getter; a class that writes its own forks the protocol.
        # PartialIso is no _Value: it compares and hashes its anatomy
        from cofiso.core import _Value

        for path in sorted((ROOT / "src" / "cofiso").glob("[!_]*.py")):
            importlib.import_module(f"cofiso.{path.stem}")
        classes = [c for c in _Value.__subclasses__() if c.__module__.startswith("cofiso.")]
        assert len(classes) == 14
        assert [c.__name__ for c in classes if {"__eq__", "__hash__"} & vars(c).keys()] == []

    def test_value_classes_share_one_order(self):
        # _Value.__lt__ compares by each class's _order key, and
        # PartialIso binds it too; no other class writes a comparison
        from cofiso.core import PartialIso, _Value

        found = [c for path in sorted((ROOT / "src" / "cofiso").glob("*.py")) for c in _comparisons(path.read_text())]
        assert found == []
        assert PartialIso.__lt__ is _Value.__lt__

    # core holds the one subset walk (elements) and the one set-bit walk
    # (_ones): no other module reads the digit string _bits
    @pytest.mark.parametrize("path", sorted((ROOT / "src" / "cofiso").glob("*.py")), ids=lambda p: p.name)
    def test_only_core_reads_the_digits(self, path):
        if path.name != "core.py":
            assert "_bits" not in _names_read(path.read_text())

    def test_core_has_no_second_subset_walk(self):
        from cofiso import core

        tree = ast.parse((ROOT / "src" / "cofiso" / "core.py").read_text())
        assert "subsets" not in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert not hasattr(core, "subsets")

    def test_a_planted_find_loop_fails_the_guard(self):
        source = (ROOT / "src" / "cofiso" / "topology.py").read_text()
        planted = source.replace("    _mask,\n", "    _bits,\n    _mask,\n", 1).replace(
            "        return _ones(self.mask(k, i, p))", _COPIED_FIND_LOOP, 1
        )
        assert "    _bits,\n" in planted and _COPIED_FIND_LOOP in planted
        compile(planted, "topology.py", "exec")
        assert "_bits" not in _names_read(source)
        assert "_bits" in _names_read(planted)


    # core owns the listing budget (_check_budget), the set-bit walk
    # (_ones) and the offset range (NoiseParams): no other module reads
    # _BUDGET, no module takes a low bit as x & -x, and only core raises
    # the "outside 2.." refusal
    @pytest.mark.parametrize("path", sorted((ROOT / "src" / "cofiso").glob("*.py")), ids=lambda p: p.name)
    def test_only_core_reads_the_budget(self, path):
        if path.name != "core.py":
            assert "_BUDGET" not in _names_read(path.read_text())

    @pytest.mark.parametrize("path", sorted((ROOT / "src" / "cofiso").glob("*.py")), ids=lambda p: p.name)
    def test_no_module_takes_a_low_bit(self, path):
        assert _low_bits(path.read_text()) == []

    @pytest.mark.parametrize("path", sorted((ROOT / "src" / "cofiso").glob("*.py")), ids=lambda p: p.name)
    def test_only_core_checks_the_offset_range(self, path):
        assert len(_range_refusals(path.read_text())) == (path.name == "core.py")

    # verify turns parameters into a level: every suite takes
    # (t, bounds, j) and no function but verify reads params
    def test_every_suite_takes_only_the_level(self):
        from cofiso.properties import _REGISTRY

        signatures = {fn.__code__.co_varnames[: fn.__code__.co_argcount] for _, _, fn in _REGISTRY.values()}
        assert signatures == {("t", "bounds", "j")}
        assert _params_reads((ROOT / "src" / "cofiso" / "properties.py").read_text()) == []

    def test_head_offsets_reads_no_offset_mask(self):
        assert _head_offsets_reads((ROOT / "src" / "cofiso" / "core.py").read_text()) == []

    @pytest.mark.parametrize(
        "name,old,copy,guard",
        [
            ("cli.py", _CHECK_BUDGET_CALL, _COPIED_BUDGET_TEST, lambda source: "_BUDGET" in _names_read(source)),
            ("properties.py", _ONES_CALL, _COPIED_LOW_BIT_LOOP, _low_bits),
            ("topology.py", _NOISE_PARAMS_CALL, _COPIED_RANGE_LOOP, _range_refusals),
            ("properties.py", _SUITE_TAKES_J, _COPIED_PARAMS_SUITE, _params_reads),
            ("core.py", _HEAD_OFFSETS_WALK, _HEAD_OFFSETS_VIA_MASK, _head_offsets_reads),
            ("extension.py", _GROUP_REPR, _COPIED_GROUP_LT, _comparisons),
        ],
        ids=["budget", "low bit", "offset range", "suite params", "head offsets", "group order"],
    )
    def test_a_planted_copy_fails_its_guard(self, name, old, copy, guard):
        source = (ROOT / "src" / "cofiso" / name).read_text()
        planted = source.replace(old, copy, 1)
        assert old in source and copy in planted
        compile(planted, name, "exec")
        assert not guard(source)
        assert guard(planted)


# what the window oracle must never read: core's product and anatomy
# helpers, and a map's anatomy fields, so it stays an independent route
_ORACLE_FORBIDDEN_NAMES = {"_product", "compose", "from_anatomy", "_anatomy", "_mask", "_bits"}
_ORACLE_FORBIDDEN_FIELDS = {"gaps", "dom_min", "tail_start"}


def _anatomy_reads(source: str) -> list[str]:
    """The forbidden names, attributes and products the source reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in _ORACLE_FORBIDDEN_NAMES:
            found.append(node.id)
        elif isinstance(node, ast.alias) and node.name in _ORACLE_FORBIDDEN_NAMES:
            found.append(node.name)
        elif isinstance(node, ast.Attribute) and node.attr in _ORACLE_FORBIDDEN_NAMES | _ORACLE_FORBIDDEN_FIELDS:
            found.append("." + node.attr)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            # a * b of two maps is compose
            found.append("*")
    return found


class TestOracleIndependence:
    SOURCE = (ROOT / "src" / "cofiso" / "oracle.py").read_text()

    def test_oracle_reads_no_anatomy(self):
        assert _anatomy_reads(self.SOURCE) == []

    @pytest.mark.parametrize(
        "old,new,read",
        [
            ("g.shift, (ex", "g.shift, (g.tail_start", ".tail_start"),
            ("ex = g.excluded", "ex = g.excluded, g.gaps", ".gaps"),
            ("ex = g.excluded", "ex = g.excluded, g.dom_min", ".dom_min"),
            ("from .core import PartialIso,", "from .core import _product, PartialIso,", "_product"),
            ("from .core import PartialIso,", "from .core import from_anatomy, PartialIso,", "from_anatomy"),
            ("return PartialIso(", "return core._anatomy(va) and PartialIso(", "._anatomy"),
            ("return PartialIso(", "return _mask(_bits(0)) and PartialIso(", "_mask"),
            ("return _compose_views(_view(a), _view(b))", "return a.compose(b)", ".compose"),
            ("return _compose_views(_view(a), _view(b))", "return a * b", "*"),
        ],
        ids=["tail_start", "gaps", "dom_min", "_product", "from_anatomy", "_anatomy", "_mask", "compose", "product"],
    )
    def test_a_planted_read_fails_the_guard(self, old, new, read):
        assert old in self.SOURCE
        assert read in _anatomy_reads(self.SOURCE.replace(old, new, 1))
