"""A small expression language over the monoid and its integer ideal.

Grammar, loosely:

    expr   := power { ["*"] power }          products, juxtaposition allowed
    power  := atom { "^" int }               int may be negative or zero
    atom   := "a" | "b" | "I" | "e[" int "]"
            | "iso([" ints "]," int ")" | "grp(" int ")"
            | "(" expr ")"

Lexical rules: blanks (any Unicode whitespace) may stand between tokens;
an integer is a run of decimal digits of any script, as ``int`` reads
them, so superscript digits are not digits here; one longer than ``int``
reads (4300 digits by default) is an error at its first digit.
Parentheses nest at most MAX_NESTING deep; a deeper one is an error at
its own column.  A puncture index or literal point is at most MAX_POINT;
a larger one is an error at its column.  Chains of products and powers
may be of any length.

Parse errors carry the offending column; a character that starts no token
is reported ahead of any grammar error.  Evaluation returns a map or an
adjoined integer; with params given, results above the noise bound are
rejected.
"""

from __future__ import annotations

import re
import sys
from typing import Optional, Union

from .core import ALPHA, BETA, IDENTITY, MAX_POINT, NoiseParams, PartialIso, _Value, punctured_identity
from .extension import ExtElem, Group, ext_mul


class ParseError(ValueError):
    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


class EvalError(ValueError):
    """The expression parsed but does not denote a value under the given params."""


class Gen(_Value):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)


class Puncture(_Value):
    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        object.__setattr__(self, "index", index)


class IsoLit(_Value):
    _fields = ("excluded", "shift")
    # the literal is stored as the parser reads it: a leading run
    # 1, 2, ..., _run kept as its length, and the points after it in
    # ``_rest``; a node built by hand or unpickled has _run == 0 and its
    # every point in ``_rest``
    __slots__ = ("_rest", "shift", "_run")

    def __init__(self, excluded: tuple, shift: int, *, _run: int = 0) -> None:
        object.__setattr__(self, "_rest", excluded)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "_run", _run)

    @property
    def excluded(self) -> tuple:
        return (*range(1, self._run + 1), *self._rest)


class GrpLit(_Value):
    __slots__ = ("k",)

    def __init__(self, k: int) -> None:
        object.__setattr__(self, "k", k)


class Prod(_Value):
    __slots__ = ("left", "right")

    def __init__(self, left: "Node", right: "Node") -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Pow(_Value):
    __slots__ = ("base", "exponent")

    def __init__(self, base: "Node", exponent: int) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)


Node = Union[Gen, Puncture, IsoLit, GrpLit, Prod, Pow]

_GENS = {"a": ALPHA, "b": BETA, "I": IDENTITY}


# Every legal sequence of characters.  A greedy match with nothing after it
# never backtracks, so it ends at the first character no token can start.
# Each class lists its ASCII members ahead of \s and \d: re tries them in
# order, and an ASCII bitmap is tested far faster than a Unicode category,
# so the characters real input is made of skip the category lookups.
_LEGAL = re.compile(r"(?:[0-9,abIe()\[\]*^\s\d-]+|iso|grp)*")
# The next token, after any blanks.
_TOKEN = re.compile(r"\s*(?:(?P<int>[0-9\d]+)|(?P<name>[abIe])|(?P<sym>iso|grp|[()\[\],*^-]))")
# A literal's digits and commas after its leading run, read in one match.
# A repeated character class keeps no backtracking stack.
_POINTS = re.compile(r"[0-9,\d]*")
# (n, "1,2,...,n"): the counting text a literal's leading run is compared
# with in place, so that no point of the run is scanned again or
# converted.  Built on first use, not at import, and replaced whole by a
# longer one, n doubling up to MAX_POINT.
_counting = (0, "")


def _counting_end(k: int) -> int:
    """Length of "1,2,...,k": the digits of 1..k plus k - 1 commas."""
    if not k:
        return 0
    d = len(str(k))
    # 1..k holds k + 1 - 10^(t-1) numbers of t digits or more, t = 1..d
    return d * (k + 1) - (10**d - 1) // 9 + k - 1


def _run_length(text: str, pos: int) -> int:
    """The largest k <= MAX_POINT with text[pos:] starting 1,2,...,k and
    then no digit, binary-searched against the counting text in place."""
    global _counting
    # every number but the last takes a digit and a comma
    top = min(MAX_POINT, (len(text) - pos + 1) // 2)
    n, counting = _counting
    # the counting text doubles while the input holds all of it
    while n < top and text.startswith(counting, pos):
        n = min(2 * n or 1, MAX_POINT)
        counting = ",".join(map(str, range(1, n + 1)))
        _counting = n, counting
    lo, hi = 0, min(n, top) + 1  # the input starts "1,...,lo", not "1,...,hi"
    start = 0  # the length of "1,...,lo"
    while hi - lo > 1:
        mid = (lo + hi) // 2
        end = _counting_end(mid)
        if text.startswith(counting[start:end], pos + start):
            lo, start = mid, end
        else:
            hi = mid
    # "1,2,34" starts with the text "1,2,3", but its third number is 34
    return lo - 1 if lo and text[pos + start : pos + start + 1].isdecimal() else lo


# Deepest parenthesis nesting parse accepts: each level costs three parser
# frames, so this keeps parsing far from the interpreter's recursion limit.
MAX_NESTING = 100


class _Parser:
    """Recursive descent with one token of lookahead, scanned on demand.

    ``tok`` is the next token as (kind, text, column), or None at the end
    of the input; ``pos`` is the index just past it.
    """

    def __init__(self, text: str):
        self.text = text
        self.depth = 0  # open parentheses around the current atom
        self.scan(0)

    def scan(self, pos: int) -> None:
        m = _TOKEN.match(self.text, pos)
        if m is None:
            self.tok = None
            return
        kind = m.lastgroup
        value = m[kind]
        self.tok = (value if kind == "sym" else kind, value, m.start(kind) + 1)
        self.pos = m.end()

    def next(self):
        tok = self.tok
        if tok is None:
            # the column just past the last token
            raise ParseError("unexpected end of input", len(self.text.rstrip()) + 1)
        self.scan(self.pos)
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def at(self, kind: str) -> bool:
        return self.tok is not None and self.tok[0] == kind

    def ints(self, run: str, column: int) -> list[int]:
        """The integers of a comma-separated run of digits that starts at column."""
        parts = run.split(",")
        try:
            return list(map(int, parts))
        except ValueError:  # more digits than int() reads (4300 by default)
            limit = sys.get_int_max_str_digits()
            bad = next(n for n, part in enumerate(parts) if len(part) > limit)
            column = _part_column(parts, bad, column)
            raise ParseError(f"integer of {len(parts[bad])} digits is too long", column) from None

    def points(self, run: str, column: int) -> list[int]:
        """The integers of ``ints``, each a point at most MAX_POINT."""
        values = self.ints(run, column)
        if max(values) > MAX_POINT:
            bad = next(n for n, v in enumerate(values) if v > MAX_POINT)
            column = _part_column(run.split(","), bad, column)
            raise ParseError(f"point must be <= {MAX_POINT}", column)
        return values

    def int_token(self, tok) -> int:
        return self.ints(tok[1], tok[2])[0]

    def parse_expr(self) -> Node:
        node = self.parse_power()
        while True:
            tok = self.tok
            if tok is None:
                return node
            if tok[0] == "*":
                self.next()
                node = Prod(node, self.parse_power())
            elif tok[0] in ("name", "iso", "grp", "("):
                node = Prod(node, self.parse_power())
            else:
                return node

    def parse_power(self) -> Node:
        node = self.parse_atom()
        while self.at("^"):
            self.next()
            node = Pow(node, self.signed_int())
        return node

    def signed_int(self) -> int:
        tok = self.next()
        if tok[0] == "-":
            return -self.int_token(self.expect("int"))
        if tok[0] == "int":
            return self.int_token(tok)
        raise ParseError(f"expected an integer, found {tok[1]!r}", tok[2])

    def parse_atom(self) -> Node:
        tok = self.next()
        kind = tok[0]
        if kind == "name" and tok[1] in _GENS:
            return Gen(tok[1])
        if kind == "name":  # "e", needs a bracketed index
            self.expect("[")
            num = self.expect("int")
            index = self.points(num[1], num[2])[0]
            if index < 1:
                raise ParseError("puncture index must be >= 1", num[2])
            self.expect("]")
            return Puncture(index)
        if kind == "iso":
            self.expect("(")
            self.expect("[")
            rest, k = [], 0
            if self.at("int"):
                text, end = self.text, self.tok[2] - 1
                # the leading 1,...,k is compared as text, in place
                k = _run_length(text, end)
                end += _counting_end(k)
                # the points after the run's comma, when a digit follows
                # it, are read in one match and keep their columns
                if not k or text.startswith(",", end) and text[end + 1 : end + 2].isdecimal():
                    end += k > 0
                    tail = _POINTS.match(text, end)[0].split(",,", 1)[0].rstrip(",")
                    rest = self.points(tail, end + 1)
                    end += len(tail)
                self.scan(end)
                # a comma the run left (",]", ",,", " ,", ", ") goes token by token
                while self.at(","):
                    self.next()
                    num = self.expect("int")
                    rest += self.points(num[1], num[2])
            self.expect("]")
            self.expect(",")
            shift = self.signed_int()
            self.expect(")")
            return IsoLit(tuple(rest), shift, _run=k)
        if kind == "grp":
            self.expect("(")
            k = self.signed_int()
            self.expect(")")
            return GrpLit(k)
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok[2])
            self.depth += 1
            node = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return node
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])


def _part_column(parts: list[str], n: int, column: int) -> int:
    """The column of parts[n] in the comma-joined run that starts at column."""
    return column + sum(map(len, parts[:n])) + n


def parse(text: str) -> Node:
    stray = _LEGAL.match(text).end()
    if stray < len(text):
        raise ParseError(f"unexpected character {text[stray]!r}", stray + 1)
    parser = _Parser(text)
    node = parser.parse_expr()
    tok = parser.tok
    if tok is not None:
        raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
    return node


def _ext_pow(x: ExtElem, n: int) -> ExtElem:
    if isinstance(x, Group):
        return Group(x.k * n)
    return x ** n


def _left_spine(node: Node) -> tuple[Node, list]:
    """The leftmost operand of a product or power, and the Prod and Pow
    nodes above it, innermost last: walked with a loop, so a long chain
    such as a*a*...*a or a^2^...^2 needs no deep recursion."""
    spine = []
    while isinstance(node, (Prod, Pow)):
        spine.append(node)
        node = node.left if isinstance(node, Prod) else node.base
    return node, spine


def _eval(node: Node) -> ExtElem:
    node, spine = _left_spine(node)
    value = _eval_operand(node)
    for node in reversed(spine):
        if isinstance(node, Prod):
            value = ext_mul(value, _eval(node.right))
        else:
            value = _ext_pow(value, node.exponent)
    return value


def _eval_operand(node: Node) -> ExtElem:
    if isinstance(node, Gen):
        return _GENS[node.name]
    if isinstance(node, Puncture):
        return punctured_identity(node.index)
    if isinstance(node, IsoLit):
        try:
            return PartialIso(node._rest, node.shift, _run=node._run)
        except ValueError as exc:
            raise EvalError(f"bad literal {unparse(node)}: {exc}") from exc
    if isinstance(node, GrpLit):
        return Group(node.k)
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(node: Node, params: Optional[NoiseParams] = None) -> ExtElem:
    value = _eval(node)
    if params is not None and isinstance(value, PartialIso) and value.noise > params.j:
        # the text names the value: its excluded points may be far too many to list
        raise EvalError(f"{unparse(node)} has noise {value.noise}, above the bound {params.j}")
    return value


def unparse(node: Node) -> str:
    node, spine = _left_spine(node)
    # every parenthesis a power adds opens before the leftmost operand
    opens = 0
    parts = [_unparse_operand(node)]
    for node in reversed(spine):
        if isinstance(node, Prod):
            right = unparse(node.right)
            parts.append(f"*({right})" if isinstance(node.right, Prod) else f"*{right}")
        else:
            if isinstance(node.base, Prod):  # powers chain to the left unbracketed
                opens += 1
                parts.append(")")
            parts.append(f"^{node.exponent}")
    return "(" * opens + "".join(parts)


def _unparse_operand(node: Node) -> str:
    if isinstance(node, Gen):
        return node.name
    if isinstance(node, Puncture):
        return f"e[{node.index}]"
    if isinstance(node, IsoLit):
        return f"iso([{','.join(str(x) for x in node.excluded)}],{node.shift})"
    if isinstance(node, GrpLit):
        return f"grp({node.k})"
    raise TypeError(f"not an expression node: {node!r}")
