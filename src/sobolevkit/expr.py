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
up to the declared dimension.  Every parse or evaluation error carries
the byte offset of the offending token or subexpression.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .grid import format_float

__all__ = [
    "Token",
    "ParseError",
    "EvalError",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "Ast",
    "tokenize",
    "parse",
    "evaluate",
    "evaluate_many",
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


class ParseError(ValueError):
    """Syntax or lexical error with the source offset where it occurred."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ArithmeticError):
    """Domain or overflow error, pointing at the offending subexpression."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Token:
    kind: str  # number | ident | op | lparen | rparen | comma | eof
    lexeme: str
    offset: int


_NUMBER_RE = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if m := _NUMBER_RE.match(source, i):
            tokens.append(Token("number", m.group(), i))
            i = m.end()
            continue
        if m := _IDENT_RE.match(source, i):
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
            raise ParseError(f"expected {what}, found {shown!r}", tok.offset)
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
            try:
                value = float(tok.lexeme)
            except ValueError:
                raise ParseError(f"bad number literal {tok.lexeme!r}", tok.offset) from None
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
            raise ParseError(f"unknown identifier {name!r}", tok.offset)
        shown = tok.lexeme or "end of input"
        raise ParseError(f"expected a value, found {shown!r}", tok.offset)


def parse(source: str, dim: int = 3) -> Ast:
    """Parse ``source`` into an Ast; variables above ``x{dim}`` are rejected."""
    if not isinstance(source, str):
        raise ParseError("source must be a string", 0)
    dim = int(dim)
    if not 1 <= dim <= 3:
        raise ParseError(f"dimension must be between 1 and 3, got {dim}", 0)
    parser = _Parser(tokenize(source), dim)
    node = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ParseError(f"unexpected trailing input {trailing.lexeme!r}", trailing.offset)
    return node


def _check_finite(value: float, node: Ast) -> float:
    if not math.isfinite(value):
        raise EvalError(f"non-finite result in {to_source(node)!r}", node.offset)
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
                raise EvalError(f"division by zero in {to_source(node)!r}", node.offset)
            return _check_finite(left / right, node)
        if node.op == "^":
            try:
                return _check_finite(math.pow(left, right), node)
            except (ValueError, OverflowError):
                raise EvalError(f"invalid power in {to_source(node)!r}", node.offset) from None
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
                        f"log of non-positive value in {to_source(node)!r}", node.offset
                    )
                return math.log(args[0])
            if node.name == "sqrt":
                if args[0] < 0.0:
                    raise EvalError(
                        f"sqrt of negative value in {to_source(node)!r}", node.offset
                    )
                return math.sqrt(args[0])
            if node.name == "step":
                return 0.0 if args[0] < 0.0 else 1.0
            if node.name == "min":
                return min(args)
            if node.name == "max":
                return max(args)
        except OverflowError:
            raise EvalError(f"overflow in {to_source(node)!r}", node.offset) from None
        raise EvalError(f"unknown function {node.name!r}", node.offset)
    raise EvalError(f"unexpected node {node!r}", getattr(node, "offset", 0))


def evaluate_many(node: Ast, points) -> list[float]:
    """Evaluate at each row of an ``(N, dim)`` point array."""
    return [evaluate(node, row) for row in points]


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
