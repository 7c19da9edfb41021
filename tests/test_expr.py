import copy
import itertools
import math
import pickle
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobolevkit import acceptance, expr
from sobolevkit.grid import Box, make_grid
from sobolevkit.expr import (
    GRAMMAR_HELP,
    BinOp,
    EvalError,
    Neg,
    Num,
    ParseError,
    Token,
    _Parser,
    _parse_core,
    _parse_or_error,
    _tokens,
    evaluate,
    evaluate_many,
    excerpt,
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
        values = evaluate_many(node, [(1.0,), (2.0,), (3.0,)])
        assert values.dtype == np.float64
        assert values.tolist() == [1.0, 4.0, 9.0]

    def test_evaluate_many_holds_only_its_result(self):
        # each value goes straight into the float64 array: no list of Python floats
        points = make_grid(Box((0.0, 0.0), (1.0, 1.0)), 300).points()
        node = parse("exp(x1)*log(x2+1)+sin(x1*x2)", dim=2)
        tracemalloc.start()
        try:
            values = evaluate_many(node, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == (len(points),)
        assert peak <= 1.1 * 8 * len(points)
        # the per-point walk's values, bit for bit
        assert values.tolist() == [evaluate(node, row) for row in points]


class TestSample:
    AXES = [np.linspace(-1.0, 1.0, 7), np.linspace(0.5, 2.0, 4), np.linspace(0.0, 3.0, 5)]

    @pytest.mark.parametrize("source", ["x1*x3 - x2/(x3+1)", "-0", "sin(x2)", "exp(x1)*x2+sin(x1*x2*x3)", "x1*(0-x3)"])
    def test_equals_the_walk_on_the_lattice(self, source):
        # a lattice of unequal axes straddling 0: the bits of the per-point walk, in row-major order
        node = parse(source, dim=3)
        values = expr.sample(node, self.AXES)
        assert values.shape == (7, 4, 5)
        points = np.stack(np.meshgrid(*self.AXES, indexing="ij"), axis=-1).reshape(-1, 3)
        assert values.tobytes() == evaluate_many(node, points).tobytes()

    @pytest.mark.parametrize(
        "source,message",
        [
            # a split part fails at x1 = 0: the walk meets the log first, at (-1, 0.5, 0)
            ("log(x3)*(1/x1)", "log of non-positive value in 'log(x3)' (at offset 0)"),
            ("x2/x1", "division by zero in 'x2/x1' (at offset 2)"),
            ("log(x1*x3)", "log of non-positive value in 'log(x1*x3)' (at offset 0)"),
        ],
    )
    def test_raises_the_walks_first_error(self, source, message):
        with pytest.raises(EvalError) as info:
            expr.sample(parse(source, dim=3), self.AXES)
        assert str(info.value) == message


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

    @pytest.mark.parametrize(
        "source,offset", [("1e999", 0), ("sin(1e999)", 4), ("2*-1e400", 3), ("1" * 400, 0)]
    )
    def test_non_finite_literal(self, source, offset):
        with pytest.raises(ParseError, match="out of range") as err:
            parse(source)
        assert err.value.offset == offset
        assert len(str(err.value)) < 200

    def test_largest_finite_literal_parses(self):
        assert ev("1.7976931348623157e308") == 1.7976931348623157e308

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
        # an overflowing power is an overflow, not an invalid power
        with pytest.raises(EvalError, match=r"^overflow in '10\^10\^10'"):
            ev("10^10^10")

    def test_negative_base_fractional_power(self):
        with pytest.raises(EvalError, match=r"^invalid power in '\(0-2\)\^0.5'"):
            ev("(0-2)^0.5")

    def test_product_overflow(self):
        with pytest.raises(EvalError, match="non-finite"):
            ev("1e308*10")

    def test_point_too_short(self):
        node = parse("x2", dim=2)
        with pytest.raises(EvalError, match="coordinates"):
            evaluate(node, (1.0,))

    def test_quoted_subexpression_is_bounded(self):
        # a long failing subexpression is quoted by its first 80 characters
        node = parse("1/(" + "+".join(["x1"] * 150) + "-150*x1)", dim=1)
        with pytest.raises(EvalError, match="division by zero") as err:
            evaluate(node, (1.0,))
        assert "…" in str(err.value)
        assert len(str(err.value)) < 200

    def test_errors_carry_offsets(self):
        with pytest.raises(EvalError) as err:
            ev("1 + log(0)")
        assert err.value.offset == 4


class TestExcerpt:
    def test_short_text_is_whole(self):
        assert excerpt("sin(x1)", 3) == "sin(x1)"

    @pytest.mark.parametrize("offset", [0, 5, 500, 995, 1000])
    def test_long_text_is_cut_around_offset(self, offset):
        text = "".join(chr(0x4E00 + i) for i in range(1000))  # no character repeats
        shown = excerpt(text, offset)
        body = shown.strip("…")
        assert len(body) == 80
        start = text.index(body)
        assert start <= min(offset, 999) < start + 80
        assert shown.startswith("…") == (start > 0)
        assert shown.endswith("…") == (start + 80 < 1000)


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


_REF_NUMBER_RE = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_REF_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _reference_tokenize(source):
    """The per-character tokenizer, kept as the oracle for ``tokenize``."""
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if m := _REF_NUMBER_RE.match(source, i):
            tokens.append(Token("number", m.group(), i))
            i = m.end()
            continue
        if m := _REF_IDENT_RE.match(source, i):
            tokens.append(Token("ident", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^":
            tokens.append(Token("op", ch, i))
        elif ch == "(":
            tokens.append(Token("lparen", ch, i))
        elif ch == ")":
            tokens.append(Token("rparen", ch, i))
        elif ch == ",":
            tokens.append(Token("comma", ch, i))
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
        i += 1
    tokens.append(Token("eof", "", n))
    return tokens


def _fuzz_strings():
    """Criterion 12's strings at the default seed, its chunks flattened in order."""
    rng = random.Random(acceptance.DEFAULT_SEED)
    return itertools.chain.from_iterable(acceptance._fuzz_chunks(rng, acceptance.FUZZ_COUNT))


def _lexed(tokenizer, source):
    """The tokens, or the error message and offset."""
    try:
        return tokenizer(source)
    except ParseError as err:
        return str(err), err.offset


def _assert_lexes_like_reference(sources):
    for source in sources:
        want = _lexed(_reference_tokenize, source)
        assert _lexed(tokenize, source) == want, f"source {source!r}"


_EDGE_CASES = [
    "", " ", "\t1\n", "1e+", "1e", "1e5e2", "1E+09x", "1..2", ".5.", "..", ".", ".e1",
    "1.e3", "a.b", "x1.2", "_a1", "e", "2^-3", "1 .", "sin (x1 ,2)", "1\x852", "1$",
]


class TestTokenizeOracle:
    """``tokenize`` gives the reference loop's tokens, or its exact error."""

    def test_default_seed_fuzz_strings(self):
        _assert_lexes_like_reference(_fuzz_strings())

    def test_every_code_point_below_u3000(self):
        # alone, between tokens, and after a number it might extend
        chars = [chr(cp) for cp in range(0x3000)]
        _assert_lexes_like_reference(chars)
        _assert_lexes_like_reference(f"x1{ch}2" for ch in chars)
        _assert_lexes_like_reference(f"1{ch}" for ch in chars)

    def test_random_strings_over_token_alphabet(self):
        # whitespace includes \x1c-\x1f, \x85 and \xa0, which isspace() accepts
        alphabet = "0123456789.eE+-*/^(),x_a \t\n\x0b\x0c\r\x1c\x1f\x85\xa0\u3000#\xe9"
        rng = np.random.default_rng(20241018)
        ends = np.cumsum(rng.integers(0, 30, size=20_000)).tolist()
        text = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=ends[-1]))
        _assert_lexes_like_reference(text[a:b] for a, b in zip([0] + ends, ends))

    @pytest.mark.parametrize("source", _EDGE_CASES)
    def test_edge_cases(self, source):
        _assert_lexes_like_reference([source])

    def test_megabyte_rejected_input(self):
        # "1.1", then ".1" pairs; the final "." starts no token
        source = "1." * 500_000 + "."
        with pytest.raises(ParseError) as info:
            tokenize(source)
        assert info.value.offset == 999_999
        assert str(info.value) == "unexpected character '.' (at offset 999999)"


def _reference_parse(source, dim=3):
    """The raising parser over the reference tokens, kept as the oracle for ``parse``."""
    if not isinstance(source, str):
        raise ParseError("source must be a string", 0)
    dim = int(dim)
    if not 1 <= dim <= 3:
        raise ParseError(f"dimension must be between 1 and 3, got {dim}", 0)
    parser = _Parser(_reference_tokenize(source), dim)
    node = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ParseError(
            f"unexpected trailing input {excerpt(trailing.lexeme)!r}", trailing.offset
        )
    return node


def _parsed(parser, source):
    """The Ast, or the error message and offset."""
    try:
        return parser(source, 3)
    except ParseError as err:
        return str(err), err.offset


def _assert_parses_like_reference(sources):
    for source in sources:
        want = _parsed(_reference_parse, source)
        assert _parsed(parse, source) == want, f"source {source!r}"


class TestParseOracle:
    """``parse``, a wrapper of the non-raising core, raises the reference's error or returns its Ast."""

    def test_default_seed_fuzz_strings(self):
        _assert_parses_like_reference(_fuzz_strings())

    def test_every_code_point_below_u3000(self):
        chars = [chr(cp) for cp in range(0x3000)]
        _assert_parses_like_reference(chars)
        _assert_parses_like_reference(f"x1{ch}2" for ch in chars)

    @pytest.mark.parametrize("source", _EDGE_CASES)
    def test_edge_cases(self, source):
        _assert_parses_like_reference([source])

    @pytest.mark.parametrize("source", ["", "2+", "(1", "1)", "foo", "sin(1,2)", "x4", "1e999"])
    def test_core_returns_the_error(self, source):
        # the core returns, not raises, what parse raises
        error = _parse_or_error(source, 3)
        assert isinstance(error, ParseError)
        assert (str(error), error.offset) == _parsed(_reference_parse, source)


_WHITESPACE = [chr(cp) for cp in range(0x110000) if chr(cp).isspace()]


def _descent_error(source):
    """The error the descent raises at the end of a source with no token: message and offset."""
    with pytest.raises(ParseError) as info:
        _Parser(_tokens(source, len(source)), 3).parse_expr()
    return info.value.args


def _not_lexable(ch):
    # no token and no whitespace run starts with ``ch``
    return not (ch.isspace() or (ch.isascii() and (ch.isalnum() or ch == "_")) or ch in "-+*/^(),")


class TestFastPaths:
    """The core's blank and lexical-reject paths give the descent's and the f-string's errors."""

    def test_blank_sources_match_the_descent(self):
        rng = random.Random(5)
        runs = ["".join(rng.choices(_WHITESPACE, k=n)) for n in range(1, 24) for _ in range(8)]
        for source in ["", *_WHITESPACE, *runs]:
            error = _parse_core(source, 3)
            assert type(error) is ParseError
            assert error.args == _descent_error(source) == ("expected a value, found 'end of input'", len(source))

    def test_blank_sources_build_no_parser(self, monkeypatch):
        built = []

        class CountingParser(_Parser):
            def __init__(self, tokens, dim):
                built.append(tokens)
                super().__init__(tokens, dim)

        monkeypatch.setattr(expr, "_Parser", CountingParser)
        for source in ["", " ", "\t\n", " \u3000\x1c" * 7]:
            assert isinstance(_parse_core(source, 3), ParseError)
        assert built == []
        # the counter sees a source that holds a token
        assert isinstance(_parse_core(" 1+ ", 3), ParseError)
        assert len(built) == 1

    def test_lexical_rejects_below_256(self):
        chars = [chr(cp) for cp in range(256) if _not_lexable(chr(cp))]
        # all but the digits, letters, '_', the 8 operators and brackets, and whitespace
        assert len(chars) == 256 - 10 - 52 - 1 - 8 - sum(chr(cp).isspace() for cp in range(256))
        for ch in chars:
            for prefix in ("", "x1 + "):
                error = _parse_core(prefix + ch, 3)
                assert error.args == (f"unexpected character {ch!r}", len(prefix))

    @pytest.mark.parametrize("ch", ["\u20ac", "\U0001F600", "\u0100", "\ufffd"])
    def test_lexical_rejects_above_256(self, ch):
        for _ in range(2):
            assert _parse_core(f"2*{ch}", 3).args == (f"unexpected character {ch!r}", 2)
        assert ch not in expr._UNEXPECTED

    def test_memo_stays_bounded(self):
        for cp in [*range(0x3000), 0x1F600, 0x10FFFF]:
            if _not_lexable(chr(cp)):
                _parse_core(chr(cp), 3)
        assert len(expr._UNEXPECTED) <= 256
        assert all(ord(ch) < 256 for ch in expr._UNEXPECTED)


def _core_results(sources):
    """``_parse_core``'s result for each source: the Ast, or the error's type and args."""
    results = []
    for source in sources:
        result = _parse_core(source, 3)
        results.append((type(result), result.args) if isinstance(result, ParseError) else result)
    return results


def _assert_table_keeps_regex_results(sources, monkeypatch):
    # the regex path is the core with an empty table
    sources = list(sources)
    got = _core_results(sources)
    with monkeypatch.context() as patch:
        patch.setattr(expr, "_UNLEXABLE_START", frozenset())
        want = _core_results(sources)
    for source, g, w in zip(sources, got, want):
        assert g == w, f"source {source!r}"


_LATIN1 = [chr(cp) for cp in range(256)]


class TestLexicalTable:
    """``_UNLEXABLE_START`` holds exactly the characters that start no token, and changes no result."""

    def test_table_is_every_character_no_continuation_lexes(self):
        want = {
            ch
            for ch in _LATIN1
            if all(expr._LEXABLE_RE.match(ch + after).end() == 0 for after in ["", *_LATIN1])
        }
        assert expr._UNLEXABLE_START == want
        assert len(want) == 172 and "." not in want

    def test_one_and_two_character_sources(self, monkeypatch):
        _assert_table_keeps_regex_results(_LATIN1, monkeypatch)
        _assert_table_keeps_regex_results((a + b for a in _LATIN1 for b in _LATIN1), monkeypatch)

    @pytest.mark.parametrize("seed", [1, 7, 12345])
    def test_fuzz_strings(self, seed, monkeypatch):
        chunks = acceptance._fuzz_chunks(random.Random(seed), acceptance.FUZZ_COUNT)
        _assert_table_keeps_regex_results(itertools.chain.from_iterable(chunks), monkeypatch)

    def test_sources_starting_above_256(self, monkeypatch):
        # a line separator and the other whitespace above 255 lex; pi starts no token
        wide = [ch for ch in _WHITESPACE if ord(ch) >= 256]
        sources = ["\u2028x1", "\u03c0", "\u03c0 + 1", *(ch + "x1" for ch in wide), *wide]
        assert all(ord(ch) < 256 for ch in expr._UNLEXABLE_START)
        _assert_table_keeps_regex_results(sources, monkeypatch)
        assert _parse_core("\u03c0", 3).args == ("unexpected character '\u03c0'", 0)
        assert _parse_core("\u2028x1", 3) == expr.Var(0, 1)


class TestErrorArgs:
    """Both error classes carry ``(message, offset)`` as their args and build the text in ``str``."""

    @pytest.mark.parametrize("cls", [ParseError, EvalError])
    def test_args_and_text(self, cls):
        err = cls("log of non-positive value in 'log(x1)'", 4)
        assert err.args == ("log of non-positive value in 'log(x1)'", 4)
        assert err.offset == 4
        assert str(err) == "log of non-positive value in 'log(x1)' (at offset 4)"

    @pytest.mark.parametrize("cls", [ParseError, EvalError])
    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))])
    def test_round_trip_keeps_text_and_offset(self, cls, clone):
        err = cls("unexpected character '$'", 2)
        twin = clone(err)
        assert type(twin) is cls
        assert (str(twin), twin.offset, twin.args) == (str(err), err.offset, err.args)


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
