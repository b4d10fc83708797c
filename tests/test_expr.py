import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cofiso.core import ALPHA, BETA, IDENTITY, NoiseParams, make
from cofiso.expr import (
    MAX_NESTING,
    EvalError,
    Gen,
    GrpLit,
    IsoLit,
    ParseError,
    Pow,
    Prod,
    Puncture,
    evaluate,
    parse,
    unparse,
)
from cofiso.extension import Group


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


# Malformed inputs and the exact error each raises: message and column.
# Recorded from the tokenizer that scanned one character at a time.
_LONG_BAD = "iso([" + ",".join(map(str, range(1, 1498))) + ",,1499,1500],0)"
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
    # parentheses nested past MAX_NESTING, reported at the first one too many
    ("(" * 101 + "a" + ")" * 101, "column 101: parentheses nested deeper than 100", 101),
    ("a*(" * 1000 + "a" + ")" * 1000, "column 303: parentheses nested deeper than 100", 303),
    ("(" * 1000, "column 101: parentheses nested deeper than 100", 101),
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


# Token pieces, including ones that int() or the grammar rejects.
_PIECES = [
    *"abIe()[],*^- 0123456789",
    *("iso", "grp", "e[", "iso([", "],", "grp(", "^-"),
    *("٣", "²", "x", "+", "\u3000", "\x1c", "\n"),
]


class TestFuzz:
    @settings(deadline=None, max_examples=400)
    @given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
    def test_parse_round_trips_or_locates_its_error(self, text):
        try:
            node = parse(text)
        except ParseError as exc:
            assert 1 <= exc.column <= len(text) + 1
        else:
            assert parse(unparse(node)) == node


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
