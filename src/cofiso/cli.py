"""Command line front end: one JSON document per invocation.

Exit codes: 0 success or true verdict, 1 false verdict, 2 usage, parse,
or domain error, 3 a property suite found a counterexample.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .core import (
    NoiseParams,
    OverBudget,
    PartialIso,
    _check_budget,
    boundary_set,
    d_witness,
    green_d,
    green_h,
    green_j,
    green_l,
    green_r,
    in_offset_class,
    in_offset_class_range,
    noise_bounded,
)
from .expr import EvalError, ParseError, evaluate, parse
from .extension import Group, ext_leq, ext_pi, up_set_truncated

# bicyclic, topology, oracle and properties are imported by the commands
# that use them, so a call loads only what it runs.

_SCHEMA = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cofiso", description=__doc__)
    parser.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("eval", help="evaluate an expression")
    p.add_argument("expr")
    p.add_argument("--j", type=int, default=None)

    p = sub.add_parser("classify", help="report the numeric profile of a map")
    p.add_argument("expr")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--M", default=None)

    p = sub.add_parser("green", help="test one of the five Green relations")
    p.add_argument("relation", choices=["L", "R", "H", "D", "J"])
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("order", help="test the natural partial order")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("pi", help="shift total of an expression")
    p.add_argument("expr")

    p = sub.add_parser("arrow", help="tail restriction of a map")
    p.add_argument("expr")

    p = sub.add_parser("normalize", help="bicyclic normal form of a word in a, b")
    p.add_argument("word")

    p = sub.add_parser("nbhd", help="neighborhood membership test")
    p.add_argument("elem")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--M", default=None)

    p = sub.add_parser("converge", help="decide convergence of a tail sequence")
    p.add_argument("--offsets", default=None)
    p.add_argument("--shift", type=int, default=0)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--M", default=None)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--horizon", type=int, default=60)

    p = sub.add_parser("distinguish", help="a sequence separating two offset topologies")
    p.add_argument("m1")
    p.add_argument("m2")
    p.add_argument("--j", type=int, required=True)

    p = sub.add_parser("upset", help="truncated view of an up-set")
    p.add_argument("elem")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)

    p = sub.add_parser("boundary", help="elements absorbed on neither side")
    p.add_argument("--j", type=int, required=True)

    p = sub.add_parser("verify", help="run a registered property suite")
    p.add_argument("property")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--S", type=int, required=True)
    p.add_argument("--j", type=int, default=None)

    return parser


def _elem_doc(x) -> dict:
    if isinstance(x, Group):
        return {"group": x.k}
    count = x.dom_min - 1 + x.gaps.bit_count()
    _check_budget(lambda: f"the value excludes {count} points", count)
    return {"excluded": list(x.excluded), "shift": x.shift}


def _offsets(text: Optional[str], j: int, name: str) -> frozenset:
    """The offsets that option or operand ``name`` lists: "none", "all" or
    integers separated by commas."""
    if text is None or text.strip() in ("", "none", "-"):
        return frozenset()
    if text.strip() == "all":
        _check_budget(lambda: f"argument {name}: all lists {j - 1} offsets", j - 1)
        return frozenset(range(2, j + 1))
    offsets = set()
    for part in text.split(","):
        try:
            offsets.add(int(part))
        except ValueError:
            if part.strip().isdecimal():  # more digits than int() reads
                message = f"offset of {len(part.strip())} digits is too long"
            else:
                message = f"offset {part!r} is not an integer"
            raise _UsageError(f"argument {name}: {message}") from None
    return frozenset(offsets)


def _params(args) -> NoiseParams:
    return NoiseParams(args.j, _offsets(args.M, args.j, "--M"))


def _value(text: str, label: Optional[str] = None, params: Optional[NoiseParams] = None):
    value = evaluate(parse(text), params)
    # every number a command prints of a value, or of a map derived from
    # it, is at most |k| or the larger tail start, so one check up front
    # keeps each printable; str() refuses more digits than its limit
    n = abs(value.k) if isinstance(value, Group) else max(value.tail_start, value.ran_tail_start)
    limit = sys.get_int_max_str_digits()
    if limit and n >= 10**limit:
        size = f"an integer of at least 2^{n.bit_length() - 1}"
        raise OverBudget(f"the value holds {size}, above the print limit of {limit} digits")
    if label is not None and not isinstance(value, PartialIso):
        raise EvalError(f"{label} must denote a map, not the adjoined integer {value!r}")
    return value


_GREEN = {"L": green_l, "R": green_r, "H": green_h, "D": green_d, "J": green_j}


def _dispatch(args) -> tuple:
    cmd = args.cmd

    if cmd == "eval":
        params = NoiseParams(args.j) if args.j is not None else None
        value = _value(args.expr, params=params)
        return 0, {"value": _elem_doc(value), "repr": repr(value)}

    if cmd == "classify":
        from .bicyclic import recognize

        g = _value(args.expr, "classify")
        params = _params(args)
        nf = recognize(g)
        return 0, {
            "value": _elem_doc(g),
            "nd": g.tail_start,
            "und": g.dom_min,
            "nr": g.ran_tail_start,
            "unr": g.ran_min,
            "noise": g.noise,
            "pi": g.pi,
            "idempotent": g.is_idempotent,
            "in_gj": noise_bounded(g, args.j),
            "in_M": in_offset_class(g, params),
            "in_M_range": in_offset_class_range(g, params),
            "bicyclic": None if nf is None else {"k": nf.k, "l": nf.l},
        }

    if cmd == "green":
        a = _value(args.a, "operand A")
        b = _value(args.b, "operand B")
        related = _GREEN[args.relation](a, b)
        doc = {"relation": args.relation, "a": _elem_doc(a), "b": _elem_doc(b), "related": related}
        if args.relation == "D" and related:
            doc["witness"] = _elem_doc(d_witness(a, b))
        return (0 if related else 1), doc

    if cmd == "order":
        a = _value(args.a)
        b = _value(args.b)
        verdict = ext_leq(a, b)
        return (0 if verdict else 1), {"a": _elem_doc(a), "b": _elem_doc(b), "leq": verdict}

    if cmd == "pi":
        return 0, {"pi": ext_pi(_value(args.expr))}

    if cmd == "arrow":
        from .bicyclic import recognize

        g = _value(args.expr, "arrow")
        r = g.tail()
        nf = recognize(r)
        return 0, {"value": _elem_doc(r), "bicyclic": {"k": nf.k, "l": nf.l}}

    if cmd == "normalize":
        from .bicyclic import embed, normalize_word, parse_word

        nf = normalize_word(parse_word(args.word))
        return 0, {
            "k": nf.k,
            "l": nf.l,
            "reduced": "b" * nf.k + "a" * nf.l,
            "value": _elem_doc(embed(nf)),
        }

    if cmd == "nbhd":
        from .topology import NbhdSpec, nbhd_member

        value = _value(args.elem)
        spec = NbhdSpec(args.k, args.i, _params(args))
        member = nbhd_member(value, spec)
        return (0 if member else 1), {
            "element": _elem_doc(value),
            "k": args.k,
            "i": args.i,
            "member": member,
        }

    if cmd == "converge":
        from .topology import TailSeqSpec, converges, empirical_converges

        seq = TailSeqSpec(_offsets(args.offsets, args.j, "--offsets"), args.shift)
        params = _params(args)
        closed = converges(seq, args.k, params)
        probe = empirical_converges(seq, args.k, params, depth=args.depth, horizon=args.horizon)
        doc = {
            "kept_offsets": sorted(seq.kept_offsets),
            "shift": seq.shift,
            "k": args.k,
            "converges": closed,
            "empirical": probe,
            "agree": closed == probe,
        }
        return (0 if closed else 1), doc

    if cmd == "distinguish":
        from .topology import converges, distinguish

        m1 = _offsets(args.m1, args.j, "m1")
        m2 = _offsets(args.m2, args.j, "m2")
        seq = distinguish(m1, m2, args.j)
        return 0, {
            "kept_offsets": sorted(seq.kept_offsets),
            "shift": seq.shift,
            "converges_m1": converges(seq, 0, NoiseParams(args.j, m1)),
            "converges_m2": converges(seq, 0, NoiseParams(args.j, m2)),
        }

    if cmd == "upset":
        view = up_set_truncated(_value(args.elem), NoiseParams(args.j), args.bound)
        return 0, {
            "elements": [_elem_doc(x) for x in view.elements],
            "count": len(view.elements),
            "complete": view.complete,
        }

    if cmd == "boundary":
        elems = boundary_set(args.j)
        return 0, {"count": len(elems), "elements": [_elem_doc(g) for g in elems]}

    if cmd == "verify":
        from .oracle import EnumBounds
        from .properties import verify

        bounds = EnumBounds(args.N, args.S)
        params = None if args.j is None else NoiseParams(args.j)
        report = verify(args.property, bounds, params)
        doc = {
            "property": report.property_id,
            "description": report.description,
            "passed": report.passed,
            "instances": report.instances,
            "failures": report.failures,
            "counterexamples": [list(c) for c in report.counterexamples],
            "planned": report.planned,
        }
        return (0 if report.passed else 3), doc

    raise _UsageError(f"unknown command {cmd!r}")


def _run(argv) -> tuple:
    """(exit code, document, parsed arguments or None) of one call."""
    args = None
    try:
        args = build_parser().parse_args(argv)
        code, doc = _dispatch(args)
    except SystemExit as exc:  # --help prints and exits itself
        return (exc.code or 0), None, args
    except _UsageError as exc:
        code, doc = 2, {"error": {"type": "usage", "message": str(exc)}}
    except ValueError as exc:
        err = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ParseError):
            err["column"] = exc.column
        code, doc = 2, {"error": err}
    return code, {"schema": _SCHEMA, **doc}, args


def invoke(argv) -> tuple:
    return _run(argv)[:2]


def main(argv=None) -> int:
    code, doc, args = _run(sys.argv[1:] if argv is None else list(argv))
    if doc is not None:
        indent = 2 if args is not None and args.pretty else None
        print(json.dumps(doc, indent=indent))
    return code
