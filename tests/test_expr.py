import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobolevkit.expr import (
    GRAMMAR_HELP,
    BinOp,
    EvalError,
    Neg,
    Num,
    ParseError,
    evaluate,
    evaluate_many,
    parse,
    to_source,
    tokenize,
)


def ev(source, point=(), dim=3):
    return evaluate(parse(source, dim), point)


class TestValues:
    @pytest.mark.parametrize(
        "source,expected",
        [
            ("2+3*4", 14.0),
            ("(2+3)*4", 20.0),
            ("7-4-2", 1.0),
            ("12/3/2", 2.0),
            ("2*3^2", 18.0),
            ("2^3^2", 512.0),
            ("-2^2", -4.0),
            ("2^-3", 0.125),
            ("(2^3)^2", 64.0),
            ("--3", 3.0),
            ("2--3", 5.0),
            ("2*-3", -6.0),
            ("abs(-3.5)", 3.5),
            ("min(3, 2)", 2.0),
            ("max(3, 2)", 3.0),
            ("step(-0.1)", 0.0),
            ("step(0)", 1.0),
            ("step(2)", 1.0),
            ("sqrt(9)", 3.0),
            ("exp(0)", 1.0),
            ("sin(0)", 0.0),
            ("cos(0)", 1.0),
            ("1.5e-3", 0.0015),
            (".5", 0.5),
            ("5.", 5.0),
            ("0.25E+1", 2.5),
            ("  2 +\t3 * 4 ", 14.0),
        ],
    )
    def test_exact(self, source, expected):
        assert ev(source) == expected

    def test_constants(self):
        assert ev("pi") == math.pi
        assert ev("e") == math.e
        assert ev("2*pi") == 2.0 * math.pi

    def test_log_of_e(self):
        assert ev("log(e)") == pytest.approx(1.0, rel=1e-15)

    def test_fractional_power(self):
        assert ev("2^0.5") == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_variables(self):
        node = parse("x1*x2 + x1", dim=2)
        assert evaluate(node, (3.0, 4.0)) == 15.0

    def test_evaluate_many(self):
        node = parse("x1^2", dim=1)
        assert evaluate_many(node, [(1.0,), (2.0,), (3.0,)]) == [1.0, 4.0, 9.0]


class TestParseErrors:
    @pytest.mark.parametrize(
        "source,offset",
        [
            ("2+", 2),
            ("(2+3", 4),
            ("2+3)", 3),
            ("foo(2)", 0),
            ("sin()", 4),
            ("2 $ 3", 2),
            ("", 0),
            ("*3", 0),
        ],
    )
    def test_offset(self, source, offset):
        with pytest.raises(ParseError) as err:
            parse(source)
        assert err.value.offset == offset
        assert f"offset {offset}" in str(err.value)

    def test_arity(self):
        with pytest.raises(ParseError, match="takes 1 argument"):
            parse("sin(1, 2)")
        with pytest.raises(ParseError, match="takes 2 arguments"):
            parse("min(1)")

    def test_variable_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse("x3", dim=2)
        with pytest.raises(ParseError, match="out of range"):
            parse("x0", dim=3)
        with pytest.raises(ParseError, match="out of range"):
            parse("x12", dim=3)
        parse("x3", dim=3)  # boundary case is fine

    def test_depth_guard(self):
        deep = "(" * 250 + "1" + ")" * 250
        with pytest.raises(ParseError, match="deeply nested"):
            parse(deep)

    @pytest.mark.parametrize("op", ["+", "-", "*", "/"])
    def test_long_chain_is_too_deep(self, op):
        # each operator of a chain adds a tree level, so it counts as nesting
        with pytest.raises(ParseError, match="deeply nested"):
            parse(op.join(["x1"] * 3000))

    def test_chain_within_depth_round_trips(self):
        node = parse("+".join(["x1"] * 150))
        assert evaluate(parse(to_source(node)), (1.0,)) == 150.0

    def test_dim_validation(self):
        with pytest.raises(ParseError, match="dimension"):
            parse("1", dim=0)
        with pytest.raises(ParseError, match="dimension"):
            parse("1", dim=4)

    def test_non_string_source(self):
        with pytest.raises(ParseError, match="string"):
            parse(123)


class TestEvalErrors:
    def test_division_by_zero(self):
        with pytest.raises(EvalError, match="division by zero"):
            ev("1/0")
        node = parse("1/(x1-1)", dim=1)
        with pytest.raises(EvalError, match="division by zero"):
            evaluate(node, (1.0,))

    def test_log_domain(self):
        with pytest.raises(EvalError, match="non-positive"):
            ev("log(0)")
        with pytest.raises(EvalError, match="non-positive"):
            ev("log(-1)")

    def test_sqrt_domain(self):
        with pytest.raises(EvalError, match="negative"):
            ev("sqrt(-1)")

    def test_exp_overflow(self):
        with pytest.raises(EvalError):
            ev("exp(10000)")

    def test_power_overflow(self):
        with pytest.raises(EvalError, match="power"):
            ev("10^10^10")

    def test_negative_base_fractional_power(self):
        with pytest.raises(EvalError, match="power"):
            ev("(0-2)^0.5")

    def test_product_overflow(self):
        with pytest.raises(EvalError, match="non-finite"):
            ev("1e308*10")

    def test_point_too_short(self):
        node = parse("x2", dim=2)
        with pytest.raises(EvalError, match="coordinates"):
            evaluate(node, (1.0,))

    def test_errors_carry_offsets(self):
        with pytest.raises(EvalError) as err:
            ev("1 + log(0)")
        assert err.value.offset == 4


class TestTokenize:
    def test_kinds(self):
        kinds = [t.kind for t in tokenize("2+x1*(sin(3), )")]
        assert kinds == [
            "number",
            "op",
            "ident",
            "op",
            "lparen",
            "ident",
            "lparen",
            "number",
            "rparen",
            "comma",
            "rparen",
            "eof",
        ]

    def test_offsets_skip_whitespace(self):
        tokens = tokenize("  12 + x1")
        assert (tokens[0].lexeme, tokens[0].offset) == ("12", 2)
        assert (tokens[1].lexeme, tokens[1].offset) == ("+", 5)
        assert (tokens[2].lexeme, tokens[2].offset) == ("x1", 7)


class TestToSource:
    @pytest.mark.parametrize(
        "source,rendered",
        [
            ("2+3*4", "2+3*4"),
            ("(2+3)*4", "(2+3)*4"),
            ("2-(3-4)", "2-(3-4)"),
            ("2-3-4", "2-3-4"),
            ("-2^2", "-2^2"),
            ("2^(3^2)", "2^3^2"),
            ("(2^3)^2", "(2^3)^2"),
            ("-(2+3)", "-(2+3)"),
            ("-(2*3)", "-(2*3)"),
            ("2^-3", "2^-3"),
            ("min(x1, 2)", "min(x1, 2)"),
        ],
    )
    def test_minimal_parentheses(self, source, rendered):
        assert to_source(parse(source)) == rendered

    @pytest.mark.parametrize(
        "source",
        [
            "2+3*4-5/6",
            "-x1^2 + sin(pi*x2)",
            "max(min(x1, x2), step(x3-0.5))",
            "((((1))))",
            "2^-3^2",
            "-(-(x1))",
            "exp(-(x1-0.5)^2/0.01)",
        ],
    )
    def test_round_trip_preserves_shape_and_value(self, source):
        node = parse(source)
        rendered = to_source(node)
        reparsed = parse(rendered)
        assert to_source(reparsed) == rendered
        point = (0.3, 0.7, 0.1)
        assert evaluate(reparsed, point) == pytest.approx(evaluate(node, point), rel=1e-15)

    def test_ast_shapes(self):
        node = parse("-2^2")
        assert isinstance(node, Neg)
        assert isinstance(node.operand, BinOp) and node.operand.op == "^"
        leaf = parse("3.5")
        assert isinstance(leaf, Num) and leaf.value == 3.5


class TestFuzz:
    ALPHABET = "0123456789+-*/^()x., abcdefgilmnopqrstx$#\t"

    @given(st.text(alphabet=ALPHABET, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_parse_is_total(self, source):
        # any input must either parse or raise ParseError with a sane offset
        try:
            parse(source)
        except ParseError as err:
            assert 0 <= err.offset <= len(source)

    @given(st.text(max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_unicode(self, source):
        try:
            parse(source)
        except ParseError:
            pass

    # long inputs of at least 1000 bytes: operator chains of 501 to 3000
    # short operands (a few cycled), chains of 24+ operands of 40+ bytes
    # each (shallow enough to parse), and either kind wrapped in nested calls
    _short = st.sampled_from(["x1", "2", "-x2", "(x3)", "sin(x1)", "-", "(", ")", "^"])
    _long = st.sampled_from(
        ["0." + "5" * 40, f"({' ' * 30}x1 - 0.25)", f"exp(-x2^2/{'1' * 33})", f"max(x1,{' ' * 32}x3)"]
    )
    _op = st.sampled_from(["+", "-", "*", "/", "^", ","])
    _chain = st.one_of(
        st.builds(
            lambda op, cycle, n: op.join(itertools.islice(itertools.cycle(cycle), n)),
            _op,
            st.lists(_short, min_size=1, max_size=4),
            st.integers(501, 3000),
        ),
        st.builds(str.join, _op, st.lists(_long, min_size=24, max_size=150)),
    )
    _nested = st.builds(
        lambda fn, n, inner: fn * n + inner + ")" * n,
        st.sampled_from(["(", "-(", "sin(", "max(1,"]),
        st.integers(0, 120),
        _chain,
    )

    @given(st.one_of(_chain, _nested))
    @settings(max_examples=60, deadline=None)
    def test_long_inputs_parse_or_raise(self, source):
        # a parsed tree is shallow enough to evaluate and render without RecursionError
        try:
            node = parse(source)
        except ParseError as err:
            assert 0 <= err.offset <= len(source)
            return
        to_source(node)
        try:
            evaluate(node, (0.5, 0.25, 0.125))
        except EvalError:
            pass


def test_grammar_help_present():
    assert "expr" in GRAMMAR_HELP
    assert "power" in GRAMMAR_HELP
