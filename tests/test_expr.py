import copy
import pickle
import sys
from itertools import chain, repeat
from math import prod
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import perfbench

from cofiso import expr
from cofiso.core import ALPHA, BETA, IDENTITY, NoiseParams, PartialIso, make
from cofiso.expr import (
    _LEGAL,
    _POINTS,
    _TOKEN,
    MAX_NESTING,
    MAX_POINT,
    EvalError,
    Gen,
    GrpLit,
    IsoLit,
    ParseError,
    Pow,
    Prod,
    Puncture,
    _Parser,
    evaluate,
    parse,
    unparse,
)
from cofiso.extension import Group, ext_pi


class TestParse:
    def test_two_token_product(self):
        assert parse("a*b") == Prod(Gen("a"), Gen("b"))

    def test_juxtaposition_equals_star(self):
        assert parse("ab") == parse("a*b")
        assert parse("a b") == parse("a*b")

    def test_literal_power(self):
        assert parse("iso([2],0)^-1") == Pow(IsoLit((2,), 0), -1)

    def test_puncture_index_must_be_positive(self):
        with pytest.raises(ParseError) as info:
            parse("e[0]")
        assert info.value.column == 3

    def test_products_associate_left(self):
        assert parse("abc".replace("c", "I")) == Prod(Prod(Gen("a"), Gen("b")), Gen("I"))

    def test_chained_powers_associate_left(self):
        assert parse("a^2^3") == Pow(Pow(Gen("a"), 2), 3)

    def test_parens_group(self):
        assert parse("(ab)^2") == Pow(Prod(Gen("a"), Gen("b")), 2)

    def test_group_literal(self):
        assert parse("grp(-4)") == GrpLit(-4)

    def test_unexpected_character_located(self):
        with pytest.raises(ParseError) as info:
            parse("a +b")
        assert info.value.column == 3
        assert "column 3" in str(info.value)

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse("a)")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse("")

    def test_list_entries_are_unsigned(self):
        with pytest.raises(ParseError):
            parse("iso([-1],0)")

    def test_trailing_blanks_accepted(self):
        assert parse("a\u3000") == Gen("a")
        assert parse("b^2 a\n") == Prod(Pow(Gen("b"), 2), Gen("a"))


# Malformed inputs and the exact error each raises: message and column.
# Recorded from the tokenizer that scanned one character at a time.
_LONG_BAD = "iso([" + ",".join(map(str, range(1, 1498))) + ",,1499,1500],0)"
# "1,2,...,300" is 1091 characters long
_COUNTING_300 = ",".join(map(str, range(1, 301)))
ERRORS = [
    ("", "column 1: unexpected end of input", 1),
    ("a^ ", "column 3: unexpected end of input", 3),
    ("a)+", "column 3: unexpected character '+'", 3),
    ("iso([1 2],0)", "column 8: expected ']', found '2'", 8),
    ("iso([1,2,],0)", "column 10: expected 'int', found ']'", 10),
    ("iso([1,,2],0)", "column 8: expected 'int', found ','", 8),
    ("iso([-1],0)", "column 6: expected ']', found '-'", 6),
    ("iso([,1],0)", "column 6: expected ']', found ','", 6),
    (_LONG_BAD, "column 6384: expected 'int', found ','", 6384),
    ("e[0]", "column 3: puncture index must be >= 1", 3),
    ("e[00]", "column 3: puncture index must be >= 1", 3),
    ("grp(-)", "column 6: expected 'int', found ')'", 6),
    ("b^x", "column 3: unexpected character 'x'", 3),
    ("is", "column 1: unexpected character 'i'", 1),
    ("a)", "column 2: unexpected trailing input ')'", 2),
    ("iso([1],0) )", "column 12: unexpected trailing input ')'", 12),
    ("a^1 2", "column 5: unexpected trailing input '2'", 5),
    ("(a", "column 3: unexpected end of input", 3),
    ("e[]", "column 3: expected 'int', found ']'", 3),
    ("iso([1],)", "column 9: expected an integer, found ')'", 9),
    ("iso(1)", "column 5: expected '[', found '1'", 5),
    ("*a", "column 1: unexpected token '*'", 1),
    ("()", "column 2: unexpected token ')'", 2),
    ("a^--1", "column 4: expected 'int', found '-'", 4),
    ("iso([1,2]0)", "column 10: expected ',', found '0'", 10),
    ("iso([1, 2 ,],0)", "column 12: expected 'int', found ']'", 12),
    ("iso([1,2", "column 9: unexpected end of input", 9),
    ("iso([1,2,   ", "column 10: unexpected end of input", 10),
    ("iso([],0", "column 9: unexpected end of input", 9),
    # more digits than int() reads
    ("a^" + "1" * 5000, "column 3: integer of 5000 digits is too long", 3),
    ("e[" + "1" * 5000 + "]", "column 3: integer of 5000 digits is too long", 3),
    ("iso([1," + "1" * 5000 + "],0)", "column 8: integer of 5000 digits is too long", 8),
    ("grp(-" + "1" * 5000 + ")", "column 6: integer of 5000 digits is too long", 6),
    # points above MAX_POINT
    ("e[1048577]", "column 3: point must be <= 1048576", 3),
    ("iso([1,1048577],0)", "column 8: point must be <= 1048576", 8),
    ("iso([1, 1048577],0)", "column 9: point must be <= 1048576", 9),
    # the same two errors after a leading run 1, 2, ..., k, and after a run
    # whose next part starts like its next number
    (f"I*iso([{_COUNTING_300},{'1' * 5000}],0)", "column 1100: integer of 5000 digits is too long", 1100),
    (f"I iso([{_COUNTING_300},1048577],0)", "column 1100: point must be <= 1048576", 1100),
    ("Iiso([1,2,31048577],0)", "column 11: point must be <= 1048576", 11),
    # parentheses nested past MAX_NESTING, reported at the first one too many
    ("(" * 101 + "a" + ")" * 101, "column 101: parentheses nested deeper than 100", 101),
    ("a*(" * 1000 + "a" + ")" * 1000, "column 303: parentheses nested deeper than 100", 303),
    ("(" * 1000, "column 101: parentheses nested deeper than 100", 101),
    # a stray character where the tokens run out, after a whole
    # expression or inside a literal's run, and one after a grammar error
    ("a$", "column 2: unexpected character '$'", 2),
    ("a*b $", "column 5: unexpected character '$'", 5),
    (f"iso([{_COUNTING_300}x],0)", "column 1097: unexpected character 'x'", 1097),
    (f"iso([{_COUNTING_300}],0)+", "column 1101: unexpected character '+'", 1101),
    ("iso([1,,2],0)+", "column 14: unexpected character '+'", 14),
    # "\x1c" is a blank
    ("iso([1,2],0\x1c", "column 12: unexpected end of input", 12),
]


class TestErrors:
    @pytest.mark.parametrize("text,message,column", ERRORS, ids=[e[0][:16] for e in ERRORS])
    def test_message_and_column(self, text, message, column):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (str(info.value), info.value.column) == (message, column)

    @pytest.mark.parametrize("text,column", [("e[²]", 3), ("a^²", 3), ("iso([²],0)", 6), ("e[1²]", 4)])
    def test_non_decimal_digits_are_stray_characters(self, text, column):
        # str.isdigit accepts superscripts, which int() rejects
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (str(info.value), info.value.column) == (f"column {column}: unexpected character '²'", column)

    def test_decimal_digits_of_any_script(self):
        assert parse("e[٣]") == Puncture(3)
        assert parse("iso([١,٢٣],-١)") == IsoLit((1, 23), -1)


def _chars():
    """Every character a str can hold, surrogates left out."""
    return map(chr, chain(range(0xD800), range(0xE000, sys.maxunicode + 1)))


_BLANKS = set(filter(str.isspace, _chars()))
_DECIMALS = set(filter(str.isdecimal, _chars()))
_SYMBOLS = set("abIe()[],*^-")


class TestCharacterClasses:
    """The scanner's classes list ASCII members ahead of \\s and \\d; they
    must still accept exactly what str's own predicates name."""

    def test_legal_characters(self):
        assert set(filter(_LEGAL.fullmatch, _chars())) == _BLANKS | _DECIMALS | _SYMBOLS

    def test_point_run_characters(self):
        assert set(filter(_POINTS.fullmatch, _chars())) == _DECIMALS | {","}

    def test_token_characters(self):
        tokens = set(filter(_TOKEN.fullmatch, _chars()))
        assert tokens == _DECIMALS | _SYMBOLS
        assert {c for c in tokens if _TOKEN.fullmatch(c).lastgroup == "int"} == _DECIMALS
        # a blank before a token
        blank_then_a = filter(None, map(_TOKEN.fullmatch, map(add, _chars(), repeat("a"))))
        assert {m[0][0] for m in blank_then_a} == _BLANKS


_OTHER_DIGITS = "٠١٢٣٤٥٦٧٨٩०१२३४५६७८९０１２３４５６７８９"
# One part of a literal's point run: ASCII or mixed-script digits, leading
# zeros, 7-digit points, points over MAX_POINT and integers longer than
# int() reads.
_RUN_PARTS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.integers(10**6, 2 * MAX_POINT).map(str),
    st.integers(0, 10**6).map(lambda n: "0" + str(n)),
    st.text(alphabet="0123456789" + _OTHER_DIGITS, min_size=1, max_size=8),
    st.integers(MAX_POINT + 1, 10**40).map(str),
    st.tuples(st.integers(4301, 4310), st.sampled_from("19٣")).map(lambda t: t[1] * t[0]),
)


# Where a literal stands: the text before it, the text after it and the
# node the parse puts around it.  The leading run is compared in place,
# at whatever column the literal starts.
_PLACES = {
    "": ("", lambda node: node),
    "a*": ("", lambda node: Prod(Gen("a"), node)),
    "b^3 ": ("", lambda node: Prod(Pow(Gen("b"), 3), node)),
    "e[5]": ("", lambda node: Prod(Puncture(5), node)),
    "(": (")^2", lambda node: Pow(node, 2)),
}


def _run_reference(parts, prefix=""):
    """The node, or the ParseError's (message, column), that int() read
    part by part predicts for iso([<parts>],0) after prefix: the first
    part int() cannot read is an error, else the first point over
    MAX_POINT."""
    start = len(prefix) + 6
    columns = [start + sum(map(len, parts[:n])) + n for n in range(len(parts))]
    values = []
    for part, column in zip(parts, columns):
        try:
            values.append(int(part))
        except ValueError:
            return f"column {column}: integer of {len(part)} digits is too long", column
    for value, column in zip(values, columns):
        if value > MAX_POINT:
            return f"column {column}: point must be <= {MAX_POINT}", column
    return _PLACES[prefix][1](IsoLit(tuple(values), 0))


def _parse_or_error(parts, prefix=""):
    try:
        return parse(f"{prefix}iso([{','.join(parts)}],0){_PLACES[prefix][0]}")
    except ParseError as exc:
        return str(exc), exc.column


# The points 1, 2, ..., k for k up to 300, or all of them but one, which
# a wrong counting text would take for a counting run.
_COUNTING_PREFIXES = st.tuples(st.integers(0, 300), st.just(0) | st.integers(1, 12) | st.integers(1, 300)).map(
    lambda t: [n for n in range(1, t[0] + 1) if n != t[1]]
)
# A counting prefix, read as text, ahead of the parts above.
_COUNTED_RUNS = st.tuples(_COUNTING_PREFIXES, st.lists(_RUN_PARTS, max_size=6)).map(
    lambda t: [*map(str, t[0]), *t[1]]
).filter(bool)

# A counting prefix and ~2,000 ascending parts after it.
_LONG_REST = [*map(str, range(1, 51)), *map(str, range(100, 2100))]


class TestPointRuns:
    @settings(deadline=None, max_examples=300)
    @given(st.lists(_RUN_PARTS, min_size=1, max_size=12), st.sampled_from(sorted(_PLACES)))
    @example(["007", "٣", "1048576"], "")
    @example(["1", str(MAX_POINT + 1), "9" * 4301], "(")  # too long wins over too large
    def test_run_matches_int_per_part(self, parts, prefix):
        assert _parse_or_error(parts, prefix) == _run_reference(parts, prefix)

    @settings(deadline=None, max_examples=300)
    @given(_COUNTED_RUNS, st.sampled_from(sorted(_PLACES)))
    @example([*map(str, range(1, 10)), "10"], "")
    @example([*map(str, range(1, 10)), "100"], "a*")  # "1,...,9,10" is a prefix
    @example(["1", "2", "3" + str(MAX_POINT)], "b^3 ")
    @example(["1", "2", "03"], "e[5]")
    @example(["1", "2", "٣"], "(")
    @example(["1", "2", "4", "5", "6"], "e[5]")
    # a long rest whose last part int() cannot read, or reads over MAX_POINT
    @example([*_LONG_REST, "02100"], "")
    @example([*_LONG_REST, "٣"], "(")
    @example([*_LONG_REST, "9" * 4301], "b^3 ")
    @example([*_LONG_REST, str(MAX_POINT + 1)], "a*")
    def test_counted_run_matches_int_per_part(self, parts, prefix):
        assert _parse_or_error(parts, prefix) == _run_reference(parts, prefix)


# (points, shift) for a literal with a counting prefix: the points after
# it ascend, repeat, descend or hold 0, and the shift may send the domain
# minimum below 1
_COUNTED_LITERALS = st.tuples(
    _COUNTING_PREFIXES,
    st.one_of(
        st.sets(st.integers(1, 320)).map(sorted),
        st.lists(st.integers(0, 320), max_size=5),
        st.lists(st.integers(0, 320), max_size=5).map(lambda xs: sorted(xs, reverse=True)),
    ),
    st.integers(-330, 5),
).map(lambda t: ([*t[0], *t[1]], t[2]))


def _value_or_message(build):
    try:
        return build()
    except ValueError as exc:
        cause = exc.__cause__ or exc
        return type(cause), str(exc)


class TestCountedLiterals:
    """A literal's leading 1, 2, ..., k is read as text and handed to
    PartialIso as a run: the value and every error stay as if each point
    were read and walked."""

    @settings(deadline=None, max_examples=300)
    @given(_COUNTED_LITERALS)
    @example(([1, 2, 3, 3], 0))
    @example(([1, 2, 3, 2], 0))
    @example(([1, 2, 3, 0], 0))
    @example(([1, 2, 3], -4))
    @example(([1, 2, 3, 7], -3))
    @example(([1, 2, 4, 5, 6], 0))
    def test_evaluate_matches_the_point_walk(self, literal):
        points, shift = literal
        text = f"iso([{','.join(map(str, points))}],{shift})"
        got = _value_or_message(lambda: evaluate(parse(text)))
        want = _value_or_message(lambda: PartialIso(points, shift))
        if isinstance(want, PartialIso):
            assert got == want
        else:
            assert got == (want[0], f"bad literal {text}: {want[1]}")

    def test_long_run_is_carried_on_the_node(self):
        k = 10**5
        points = (*range(1, k + 1), k + 3)
        node = parse(f"iso([{','.join(map(str, points))}],-7)")
        assert (node._run, node._rest) == (k, (k + 3,))
        hand = IsoLit(points, -7)
        assert (hand._run, hand._rest) == (0, points)
        assert node == hand and hash(node) == hash(hand) and repr(node) == repr(hand)
        assert evaluate(node) == evaluate(hand) == PartialIso(points, -7)

    def test_only_the_points_after_the_run_are_scanned(self, monkeypatch):
        # _POINTS matches from the first point after the run's comma, and
        # not at all when the run is the whole literal
        spans = []

        class Spy:
            def match(self, text, pos):
                m = _POINTS.match(text, pos)
                spans.append(m.span())
                return m

        monkeypatch.setattr(expr, "_POINTS", Spy())
        k = 10**5
        counted = ",".join(map(str, range(1, k + 1)))
        tail = f"{k + 3},{k + 9}"
        node = parse(f"e[2]*iso([{counted},{tail}],-7)").right
        start = len("e[2]*iso([") + len(counted) + 1
        assert spans == [(start, start + len(tail))]
        assert (node._run, node._rest) == (k, (k + 3, k + 9))
        spans.clear()
        assert parse(f"iso([{counted}],0)")._rest == ()
        assert spans == []

    @pytest.mark.parametrize("text", ["iso([1,2,3,5],-1)", "iso([1,2,3],0)*a", "(b*iso([1,2,3,4,9],2))^3"])
    def test_copies_evaluate_the_same(self, text):
        node = parse(text)
        for twin in (pickle.loads(pickle.dumps(node)), copy.copy(node), copy.deepcopy(node)):
            assert twin == node and evaluate(twin) == evaluate(node)
            if isinstance(node, IsoLit):  # the memo is no field: a copy walks every point
                assert (node._run, twin._run) == (3, 0)

    def test_lowered_max_point_still_bounds_the_run(self, monkeypatch):
        parse(f"iso([{','.join(map(str, range(1, 3001)))}],0)")  # the counting text reaches past 1000
        monkeypatch.setattr(expr, "MAX_POINT", 1000)
        counted = ",".join(map(str, range(1, 1001)))
        assert parse(f"iso([{counted}],0)")._run == 1000
        with pytest.raises(ParseError) as info:
            parse(f"iso([{counted},1001],0)")
        column = 6 + len(counted) + 1
        assert (str(info.value), info.value.column) == (f"column {column}: point must be <= 1000", column)


class TestLiterals:
    def test_long_literal(self):
        points = [*range(1, 4998), 5000, 5003, 5004]
        assert parse(f"iso([{','.join(map(str, points))}],-9)") == IsoLit(tuple(points), -9)

    @pytest.mark.parametrize(
        "text",
        [
            "iso([1, 2 ,3] , 0)",
            " iso ( [ 1 ,2,  3 ] ,0 ) ",
            "iso([1\t,\n2,\u30003],0)",
            "iso([1\x1c,\x1f2,3],0)",  # blanks that int() does not strip
        ],
    )
    def test_blanks_between_tokens(self, text):
        assert parse(text) == IsoLit((1, 2, 3), 0)


# Token pieces, including ones that int() or the grammar rejects, and a
# counting run for a literal's leading run.
_PIECES = [
    *"abIe()[],*^- 0123456789",
    *("iso", "grp", "e[", "iso([", "],", "grp(", "^-"),
    *("٣", "²", "x", "+", "\u3000", "\x1c", "\n"),
    ",".join(map(str, range(1, 13))),
]
_TEXTS = st.lists(st.sampled_from(_PIECES), max_size=40).map("".join)


def _reference_parse(text):
    """The node, or the ParseError's (message, column), of a parse that
    first runs _LEGAL over the whole text and only then reads tokens."""
    stray = _LEGAL.match(text).end()
    if stray < len(text):
        return f"column {stray + 1}: unexpected character {text[stray]!r}", stray + 1
    parser = _Parser(text)
    try:
        node = parser.parse_expr()
    except ParseError as exc:
        return str(exc), exc.column
    tok = parser.tok
    if tok is not None:
        return f"column {tok[2]}: unexpected trailing input {tok[1]!r}", tok[2]
    return node


# (text, shift total) for one factor: a generator, a puncture, a literal
# (valid or not) or an adjoined integer
_FACTORS = st.one_of(
    st.sampled_from([("a", 1), ("b", -1), ("I", 0)]),
    st.integers(1, 12).map(lambda n: (f"e[{n}]", 0)),
    st.tuples(st.lists(st.integers(1, 12), max_size=4), st.integers(-6, 6)).map(
        lambda t: (f"iso([{','.join(map(str, t[0]))}],{t[1]})", t[1])
    ),
    st.integers(-5, 5).map(lambda k: (f"grp({k})", k)),
)
_EXPONENTS = st.integers(-3, 3) | st.integers(10**9, 10**40) | st.integers(-(10**40), -(10**9))


def _compound(inner):
    """Products of inner texts, and an inner text raised to a chain of
    powers, each with the shift total of its parse tree."""
    products = st.lists(inner, min_size=2, max_size=4).map(
        lambda fs: ("*".join(f for f, _ in fs), sum(total for _, total in fs))
    )
    powers = st.tuples(inner, st.lists(_EXPONENTS, min_size=1, max_size=3)).map(
        lambda t: (f"({t[0][0]})" + "".join(f"^{n}" for n in t[1]), t[0][1] * prod(t[1]))
    )
    return products | powers


class TestFuzz:
    # shift totals go as high as 10^480; a hang or a walk over a huge
    # tail start would pass the deadline
    @settings(deadline=2000, max_examples=300)
    @given(st.recursive(_FACTORS, _compound, max_leaves=12))
    # powers chain to the left: x^10^41 is (x^10)^41
    @example(("(e[2]*e[7]*b^3)^10^41", -3 * 10 * 41))
    @example(("((a*e[2])^10^9*b)^10^12", (10 * 9 - 1) * 10 * 12))
    @example((f"((a*e[2])^{10**9}*b)^{10**12}", (10**9 - 1) * 10**12))
    def test_evaluate_gives_the_summed_shift_or_a_typed_error(self, case):
        text, total = case
        try:
            value = evaluate(parse(text))
        except (ParseError, EvalError):
            return
        assert ext_pi(value) == total
        # an adjoined integer absorbs every product and power it is in
        assert isinstance(value, Group) == ("grp" in text)

    @settings(deadline=None, max_examples=400)
    @given(_TEXTS)
    def test_parse_round_trips_or_locates_its_error(self, text):
        try:
            node = parse(text)
        except ParseError as exc:
            assert 1 <= exc.column <= len(text) + 1
        else:
            assert parse(unparse(node)) == node

    @settings(deadline=None, max_examples=400)
    @given(_TEXTS)
    @example("iso([1,2,3,4,5,6,7,8,9,10,11,12],0)")
    @example("iso([1,2,3,4,5,6,7,8,9,10,11,12,9],0)x")
    @example("iso([1,2,3,4,5,6,7,8,9,10,11,12x")
    @example("iso([1,2,3,4,5,6,7,8,9,10,11,12,,2],0)²")
    @example("a is")
    @example("a\x1c$")
    def test_parse_matches_a_legality_pass_first(self, text):
        try:
            got = parse(text)
        except ParseError as exc:
            got = str(exc), exc.column
        assert got == _reference_parse(text)


class _CallCount:
    def __init__(self, pattern):
        self.pattern, self.calls = pattern, 0

    def match(self, *args):
        self.calls += 1
        return self.pattern.match(*args)


_STRAY = [text for text, message, _ in ERRORS if "unexpected character" in message]


class TestLegalityPass:
    """parse runs _LEGAL only once the parse itself has failed."""

    @pytest.fixture
    def legal(self, monkeypatch):
        spy = _CallCount(_LEGAL)
        monkeypatch.setattr(expr, "_LEGAL", spy)
        return spy

    def test_not_run_on_valid_text(self, legal):
        deep = perfbench("deep")
        cases = deep["generate"](1)
        assert len(cases) == deep["POOL_SIZE"]
        for case in cases:
            parse(case.text())
        assert legal.calls == 0

    @pytest.mark.parametrize("text", _STRAY, ids=[text[:16] for text in _STRAY])
    def test_run_to_find_a_stray_character(self, legal, text):
        with pytest.raises(ParseError, match="unexpected character"):
            parse(text)
        assert legal.calls >= 1


class TestEvaluate:
    def test_generators_cancel(self):
        assert evaluate(parse("a*b")) == IDENTITY

    def test_group_absorbs(self):
        assert evaluate(parse("grp(3)*b")) == Group(2)

    def test_punctures_compose(self):
        assert evaluate(parse("e[2]*e[3]")) == make([2, 3], 0)

    def test_powers(self):
        assert evaluate(parse("a^2")) == make([], 2)
        assert evaluate(parse("a^-1")) == BETA
        assert evaluate(parse("a^0")) == IDENTITY
        assert evaluate(parse("(ab)^3")) == IDENTITY
        assert evaluate(parse("grp(2)^3")) == Group(6)
        assert evaluate(parse("grp(2)^-1")) == Group(-2)

    def test_b_squared(self):
        assert evaluate(parse("b^2")) == make([1, 2], -2)

    def test_noise_gate_with_params(self):
        node = parse("e[3]")
        assert evaluate(node) == make([3], 0)
        with pytest.raises(EvalError):
            evaluate(node, NoiseParams(2))
        assert evaluate(node, NoiseParams(3)) == make([3], 0)

    def test_invalid_literal_reported_as_eval_error(self):
        with pytest.raises(EvalError):
            evaluate(parse("iso([1],-2)"))

    def test_group_literals_ignore_the_gate(self):
        assert evaluate(parse("grp(7)"), NoiseParams(0)) == Group(7)

    def test_points_up_to_the_limit_evaluate(self):
        assert evaluate(parse("e[1048576]")) == make([1048576], 0)
        assert evaluate(parse("iso([1,1048576],0)")) == make([1, 1048576], 0)

    def test_long_chains(self):
        # longer than the interpreter's recursion limit
        assert evaluate(parse("a" + "*a" * 5000)) == make([], 5001)
        assert evaluate(parse("b" + "^-1" * 3001)) == ALPHA
        assert evaluate(parse("(" * MAX_NESTING + "b" + ")" * MAX_NESTING)) == BETA


class TestPrinting:
    def test_unparse_round_trips_through_parse(self):
        for text in ("a*b", "iso([2],0)^-1", "grp(3)*b", "(a*b)^2", "e[2]*e[3]^2"):
            node = parse(text)
            assert parse(unparse(node)) == node

    def test_reprs_are_parseable_literals(self):
        for value in (IDENTITY, ALPHA, make([1, 3], -1), Group(-2)):
            assert evaluate(parse(repr(value))) == value

    def test_long_chains(self):
        product = "e[2]" + "*e[2]" * 5000
        assert unparse(parse(product)) == product
        assert unparse(parse("a" + "^2" * 3000)) == "a" + "^2" * 3000
        nested = "a*(" * MAX_NESTING + "a*a" + ")" * MAX_NESTING
        assert unparse(parse(nested)) == nested

    def test_minimal_parens(self):
        assert unparse(parse("a*(b*I)")) == "a*(b*I)"
        assert unparse(parse("a*b*I")) == "a*b*I"
        assert unparse(parse("(a*b)^2")) == "(a*b)^2"
        assert unparse(parse("(a^2)^-3")) == "a^2^-3"
        assert unparse(parse("((a*b)^2)^3")) == "(a*b)^2^3"
        assert unparse(Puncture(4)) == "e[4]"
