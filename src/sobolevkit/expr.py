"""A small expression language for defining functions from the command line.

Grammar, lowest precedence first::

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := primary ('^' unary)?          right-associative
    primary := NUMBER | 'pi' | 'e' | VAR
             | IDENT '(' expr (',' expr)* ')'
             | '(' expr ')'

``^`` binds tighter than unary minus, so ``-2^2 = -(2^2)`` while the
exponent may carry its own sign: ``2^-3``.  Variables are ``x1``..``x3``
up to the declared dimension.  A number literal must be a finite float64
(``1e999`` is a syntax error).  Every parse or evaluation error carries
the byte offset of the offending token or subexpression.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np
from numpy.typing import NDArray

from .grid import _row_slabs, _sample_lattice, format_float

__all__ = [
    "ParseError",
    "EvalError",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "Ast",
    "parse",
    "evaluate",
    "evaluate_many",
    "sample",
    "to_source",
    "GRAMMAR_HELP",
]

GRAMMAR_HELP = __doc__

MAX_DEPTH = 200

FUNCTION_ARITY = {
    "abs": 1,
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "step": 1,
    "min": 2,
    "max": 2,
}

CONSTANTS = {"pi": math.pi, "e": math.e}


class _LocatedError:
    """Raised as ``cls(message, offset)``: those are its ``args``, so it pickles and copies.

    The text, ``"<message> (at offset <offset>)"``, is built only by ``str``;
    there is no ``__init__`` of its own, so an error that is returned and
    dropped, as the parser fuzz does 100,000 times, costs one C-level call.
    """

    @property
    def offset(self) -> int:
        return self.args[1]

    def __str__(self) -> str:
        message, offset = self.args
        return f"{message} (at offset {offset})"


class ParseError(_LocatedError, ValueError):
    """Syntax or lexical error with the source offset where it occurred."""


class EvalError(_LocatedError, ArithmeticError):
    """Domain or overflow error, pointing at the offending subexpression."""


# Longest stretch of source an error message quotes.
EXCERPT_WIDTH = 80


def excerpt(text: str, offset: int = 0) -> str:
    """At most ``EXCERPT_WIDTH`` characters of ``text`` around ``offset``, ``…`` marking each cut."""
    if len(text) <= EXCERPT_WIDTH:
        return text
    start = min(max(offset - EXCERPT_WIDTH // 2, 0), len(text) - EXCERPT_WIDTH)
    end = start + EXCERPT_WIDTH
    return ("…" if start > 0 else "") + text[start:end] + ("…" if end < len(text) else "")


class Token(NamedTuple):
    kind: str  # number | ident | op | lparen | rparen | comma | eof
    lexeme: str
    offset: int


_NUMBER = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
# Whitespace and tokens as far as they go: the match ends at the first
# character no token can start.  ``\s`` and ``str.isspace`` agree on every
# code point.
_LEXABLE_RE = re.compile(rf"(?:\s+|{_NUMBER}|{_IDENT}|[-+*/^(),])*")
# The lexical error message of each character below 256, every one the parser fuzz draws.
_UNEXPECTED = {c: f"unexpected character {c!r}" for c in map(chr, range(256))}
# Those of the characters at which no token can start, whatever follows, read
# off ``_LEXABLE_RE`` itself: ``.`` is not one, as ``.0`` is a number.
_UNLEXABLE_START = {c: m for c, m in _UNEXPECTED.items() if _LEXABLE_RE.match(c + "0").end() == 0}
# One token per match; ``finditer`` skips the whitespace between them.
_TOKEN_RE = re.compile(
    rf"(?P<number>{_NUMBER})|(?P<ident>{_IDENT})"
    r"|(?P<op>[-+*/^])|(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,)"
)


def _tokens(source: str, end: int) -> list[Token]:
    # the tokens of a source that lexes up to ``end == len(source)``
    tokens = [Token(m.lastgroup, m.group(), m.start()) for m in _TOKEN_RE.finditer(source)]
    tokens.append(Token("eof", "", end))
    return tokens


@dataclass(frozen=True)
class Num:
    value: float
    offset: int


@dataclass(frozen=True)
class Var:
    index: int  # zero-based; source name is x{index+1}
    offset: int


@dataclass(frozen=True)
class Neg:
    operand: "Ast"
    offset: int


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Ast"
    right: "Ast"
    offset: int


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Ast", ...]
    offset: int


Ast = Union[Num, Var, Neg, BinOp, Call]

_VAR_RE = re.compile(r"x([0-9]+)$")


class _Parser:
    def __init__(self, tokens: list[Token], dim: int) -> None:
        self.tokens = tokens
        self.pos = 0
        self.dim = dim
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.lexeme or "end of input"
            raise ParseError(f"expected {what}, found {excerpt(shown)!r}", tok.offset)
        return self.advance()

    def _enter(self, offset: int) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError("expression is too deeply nested", offset)

    def _leave(self) -> None:
        self.depth -= 1

    def _chain(self, ops: str, operand: Callable[[], Ast]) -> Ast:
        # each operator of a left-associative chain adds one level to the
        # tree, so it counts toward MAX_DEPTH like a nesting level
        entered = self.depth
        node = operand()
        while self.peek().kind == "op" and self.peek().lexeme in ops:
            op = self.advance()
            self._enter(op.offset)
            node = BinOp(op.lexeme, node, operand(), op.offset)
        self.depth = entered
        return node

    def parse_expr(self) -> Ast:
        self._enter(self.peek().offset)
        node = self._chain("+-", self.parse_term)
        self._leave()
        return node

    def parse_term(self) -> Ast:
        return self._chain("*/", self.parse_unary)

    def parse_unary(self) -> Ast:
        tok = self.peek()
        if tok.kind == "op" and tok.lexeme == "-":
            self._enter(tok.offset)
            self.advance()
            operand = self.parse_unary()
            self._leave()
            return Neg(operand, tok.offset)
        return self.parse_power()

    def parse_power(self) -> Ast:
        base = self.parse_primary()
        tok = self.peek()
        if tok.kind == "op" and tok.lexeme == "^":
            self._enter(tok.offset)
            self.advance()
            exponent = self.parse_unary()
            self._leave()
            return BinOp("^", base, exponent, tok.offset)
        return base

    def parse_primary(self) -> Ast:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            value = float(tok.lexeme)
            if not math.isfinite(value):
                raise ParseError(
                    f"number literal {excerpt(tok.lexeme)!r} is out of range", tok.offset
                )
            return Num(value, tok.offset)
        if tok.kind == "lparen":
            self._enter(tok.offset)
            self.advance()
            node = self.parse_expr()
            self.expect("rparen", "')'")
            self._leave()
            return node
        if tok.kind == "ident":
            self.advance()
            name = tok.lexeme
            if name in CONSTANTS:
                return Num(CONSTANTS[name], tok.offset)
            if m := _VAR_RE.match(name):
                index = int(m.group(1)) - 1
                if not 0 <= index < self.dim:
                    raise ParseError(
                        f"variable {name} is out of range for dimension {self.dim}", tok.offset
                    )
                return Var(index, tok.offset)
            if name in FUNCTION_ARITY:
                self._enter(tok.offset)
                self.expect("lparen", "'(' after function name")
                args = [self.parse_expr()]
                while self.peek().kind == "comma":
                    self.advance()
                    args.append(self.parse_expr())
                self.expect("rparen", "')'")
                self._leave()
                arity = FUNCTION_ARITY[name]
                if len(args) != arity:
                    raise ParseError(
                        f"{name} takes {arity} argument{'s' if arity > 1 else ''}, got {len(args)}",
                        tok.offset,
                    )
                return Call(name, tuple(args), tok.offset)
            raise ParseError(f"unknown identifier {excerpt(name)!r}", tok.offset)
        raise _no_value(tok.lexeme, tok.offset)


def _no_value(lexeme: str, offset: int) -> ParseError:
    # the error where a value is due: ``lexeme`` is "" at the end of input
    shown = lexeme or "end of input"
    return ParseError(f"expected a value, found {excerpt(shown)!r}", offset)


def _parse_core(source: str, dim: int) -> Ast | ParseError:
    """The Ast of ``source``, or the ``ParseError`` that ``parse`` raises for it; ``dim`` is an int in 1..3.

    A lexical error, the common case for random input, is found by one
    regex match and returned before any token exists; nothing is raised,
    and its message below code point 256 is read from ``_UNEXPECTED``.  A
    source whose first character is a key of ``_UNLEXABLE_START``, the
    messages of the characters below 256 that start no token, is refused
    at offset 0 by one dict lookup, without the regex.  A lexable source with no token,
    ``""`` or all whitespace, gets the descent's error at the end of input
    without a token or parser being built: a lexable whitespace run is all
    ``\\s``, and no token holds any.
    """
    if message := _UNLEXABLE_START.get(source[:1]):
        return ParseError(message, 0)
    end = _LEXABLE_RE.match(source).end()
    if end < len(source):
        c = source[end]
        return ParseError(_UNEXPECTED.get(c) or f"unexpected character {c!r}", end)
    if not source or source.isspace():
        return _no_value("", end)
    parser = _Parser(_tokens(source, end), dim)
    try:
        node = parser.parse_expr()
    except ParseError as exc:
        return exc
    trailing = parser.peek()
    if trailing.kind != "eof":
        return ParseError(
            f"unexpected trailing input {excerpt(trailing.lexeme)!r}", trailing.offset
        )
    return node


def parse(source: str, dim: int = 3) -> Ast:
    """Parse ``source`` into an Ast; variables above ``x{dim}`` are rejected."""
    if not isinstance(source, str):
        raise ParseError("source must be a string", 0)
    dim = int(dim)
    if not 1 <= dim <= 3:
        raise ParseError(f"dimension must be between 1 and 3, got {dim}", 0)
    result = _parse_core(source, dim)
    if isinstance(result, ParseError):
        raise result
    return result


def _shown(node: Ast) -> str:
    # error messages quote the failing subexpression, bounded in length
    return repr(excerpt(to_source(node)))


def _check_finite(value: float, node: Ast) -> float:
    if not math.isfinite(value):
        raise EvalError(f"non-finite result in {_shown(node)}", node.offset)
    return value


def evaluate(node: Ast, point: Sequence[float]) -> float:
    """Evaluate ``node`` at ``point``; domain errors name the failing subexpression."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.index >= len(point):
            raise EvalError(
                f"point has {len(point)} coordinates but x{node.index + 1} was used", node.offset
            )
        return float(point[node.index])
    if isinstance(node, Neg):
        return -evaluate(node.operand, point)
    if isinstance(node, BinOp):
        left = evaluate(node.left, point)
        right = evaluate(node.right, point)
        if node.op == "+":
            return _check_finite(left + right, node)
        if node.op == "-":
            return _check_finite(left - right, node)
        if node.op == "*":
            return _check_finite(left * right, node)
        if node.op == "/":
            if right == 0.0:
                raise EvalError(f"division by zero in {_shown(node)}", node.offset)
            return _check_finite(left / right, node)
        if node.op == "^":
            try:
                return _check_finite(math.pow(left, right), node)
            except OverflowError:
                raise EvalError(f"overflow in {_shown(node)}", node.offset) from None
            except ValueError:
                raise EvalError(f"invalid power in {_shown(node)}", node.offset) from None
        raise EvalError(f"unknown operator {node.op!r}", node.offset)
    if isinstance(node, Call):
        args = [evaluate(a, point) for a in node.args]
        try:
            if node.name == "abs":
                return abs(args[0])
            if node.name == "sin":
                return math.sin(args[0])
            if node.name == "cos":
                return math.cos(args[0])
            if node.name == "exp":
                return _check_finite(math.exp(args[0]), node)
            if node.name == "log":
                if args[0] <= 0.0:
                    raise EvalError(
                        f"log of non-positive value in {_shown(node)}", node.offset
                    )
                return math.log(args[0])
            if node.name == "sqrt":
                if args[0] < 0.0:
                    raise EvalError(
                        f"sqrt of negative value in {_shown(node)}", node.offset
                    )
                return math.sqrt(args[0])
            if node.name == "step":
                return 0.0 if args[0] < 0.0 else 1.0
            if node.name == "min":
                return min(args)
            if node.name == "max":
                return max(args)
        except OverflowError:
            raise EvalError(f"overflow in {_shown(node)}", node.offset) from None
        raise EvalError(f"unknown function {node.name!r}", node.offset)
    raise EvalError(f"unexpected node {node!r}", getattr(node, "offset", 0))


def evaluate_many(node: Ast, points) -> NDArray[np.float64]:
    """Evaluate at each row of an ``(N, dim)`` point array, giving a float64 array of length ``N``.

    Each value goes straight into the array: 8 bytes per point, no list of Python floats.  ``sample`` calls it
    once per slab of each part it walks; the first point that fails raises its ``EvalError``.
    """
    return np.fromiter((evaluate(node, row) for row in points), np.float64, count=len(points))


# IEEE + - * / are correctly rounded: numpy's give the bits of the walk's Python float ops
_BROADCAST_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


class _SplitFailed(Exception):
    """A part on a lattice smaller than the whole failed: the walk fails there too, though maybe elsewhere first."""


def _reads(node: Ast) -> frozenset[int]:
    """The axes whose coordinate ``node`` reads: the indices of the ``x_i`` below it."""
    if isinstance(node, Var):
        return frozenset((node.index,))
    if isinstance(node, Neg):
        return _reads(node.operand)
    if isinstance(node, BinOp):
        return _reads(node.left) | _reads(node.right)
    if isinstance(node, Call):
        return frozenset().union(*map(_reads, node.args))
    return frozenset()


def sample(node: Ast, axes: Sequence[NDArray[np.float64]]) -> NDArray[np.float64]:
    """``node`` at every point of the tensor lattice of ``axes``, in one fresh array of shape ``(len(a) for a in axes)``.

    The bits and the first ``EvalError`` of ``evaluate_many`` over the lattice's points in row-major order.  Each
    part, the root too, is formed on the lattice of the axes it reads (``_part``), then broadcast.  A part fails
    only where the walk does, on the same floats, but the walk may fail elsewhere first: so where a part on a
    smaller lattice fails, the whole lattice is walked for the walk's own error.
    """
    try:
        vals = _part(node, axes, _reads(node))
    except _SplitFailed:
        return _sample_lattice(axes, partial(evaluate_many, node))
    shape = tuple(map(len, axes))
    # np.positive copies each value, -0.0 included
    return vals if vals.shape == shape else _slabwise(np.positive, shape, [vals])


def _part(node: Ast, axes: Sequence[NDArray[np.float64]], reads: frozenset[int]) -> NDArray[np.float64]:
    """``node`` on the lattice of the axes in ``reads``, one node on every other axis of ``axes``.

    A ``+ - * /`` whose operands each read fewer axes is the broadcast of their parts, ``left op right``; any other
    node is walked, raising its ``EvalError`` on the whole lattice and ``_SplitFailed`` on a smaller one.
    """
    lattice = [a if i in reads else a[:1] for i, a in enumerate(axes)]
    if isinstance(node, BinOp) and node.op in _BROADCAST_OPS:
        operands = [(node.left, _reads(node.left)), (node.right, _reads(node.right))]
        if all(sub_reads < reads for _, sub_reads in operands):
            parts = [_part(sub, axes, sub_reads) for sub, sub_reads in operands]
            return _slabwise(_BROADCAST_OPS[node.op], tuple(map(len, lattice)), parts)
    try:
        # evaluate_many is looked up per call, so a wrapper on this module's name sees every slab
        return _sample_lattice(lattice, partial(evaluate_many, node))
    except EvalError:
        if reads.issuperset(range(len(axes))):
            raise
        raise _SplitFailed from None


def _slabwise(op: np.ufunc, shape: tuple[int, ...], parts: Sequence[NDArray[np.float64]]) -> NDArray[np.float64]:
    """``op`` of ``parts`` broadcast to ``shape``, in one fresh array written one ``_row_slabs`` slab at a time.

    The walk fails at a zero divisor and at a non-finite result.  The parts are finite, so a zero divisor gives an
    inf or a nan: one finiteness check per slab finds both and raises ``_SplitFailed``, with no numpy warning.
    """
    out = np.empty(shape)
    for rows in _row_slabs(shape):
        slab = out[rows]
        with np.errstate(all="ignore"):
            op(*(part[rows] if len(part) > 1 else part for part in parts), out=slab)
        if not np.isfinite(slab).all():
            raise _SplitFailed
    return out


_PREC_ATOM = 5
_PREC_POWER = 4
_PREC_NEG = 3
_PREC_MUL = 2
_PREC_ADD = 1


def _precedence(node: Ast) -> int:
    if isinstance(node, (Num, Var, Call)):
        return _PREC_ATOM
    if isinstance(node, Neg):
        return _PREC_NEG
    if node.op == "^":
        return _PREC_POWER
    return _PREC_MUL if node.op in "*/" else _PREC_ADD


def _wrap(text: str, need: bool) -> str:
    return f"({text})" if need else text


def to_source(node: Ast) -> str:
    """Render with the fewest parentheses that reparse to the same shape."""
    if isinstance(node, Num):
        return format_float(node.value)
    if isinstance(node, Var):
        return f"x{node.index + 1}"
    if isinstance(node, Neg):
        inner = to_source(node.operand)
        return "-" + _wrap(inner, _precedence(node.operand) < _PREC_NEG)
    if isinstance(node, Call):
        return f"{node.name}({', '.join(to_source(a) for a in node.args)})"
    # binary operator
    myprec = _precedence(node)
    left = to_source(node.left)
    right = to_source(node.right)
    if node.op == "^":
        # base is a primary; exponent re-parses via unary, so Neg is fine bare
        left = _wrap(left, _precedence(node.left) < _PREC_ATOM)
        right = _wrap(right, _precedence(node.right) < _PREC_NEG)
    else:
        left = _wrap(left, _precedence(node.left) < myprec)
        right = _wrap(right, _precedence(node.right) <= myprec)
    return f"{left}{node.op}{right}"
