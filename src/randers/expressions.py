"""Arithmetic expression mini-language for scenario fields.

Supports +, -, *, /, ^ (constant exponent), unary minus, parentheses, the
functions exp/sin/cos/sqrt, float literals, and a caller-supplied variable
set (x1, x2, r for planar fields; r alone for radial profiles).  Compiled
expressions evaluate on plain floats and numpy arrays.
:meth:`Expression.diff` differentiates the syntax tree symbolically and
returns another compiled expression, so a field builds its derivative trees
once, when it is constructed, and evaluates them like its value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["Expression", "compile_expression", "FUNCTIONS"]

FUNCTIONS = ("exp", "sin", "cos", "sqrt")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    pos: int


def _tokenize(src):
    toks, i = [], 0
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if m is None:
            if src[i:].strip() == "":
                break
            raise ConfigError(f"unexpected character {src[i]!r} in expression", column=i + 1)
        if m.group("num") is not None:
            toks.append(_Tok("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            toks.append(_Tok("name", m.group("name"), m.start("name")))
        else:
            toks.append(_Tok("op", m.group("op"), m.start("op")))
        i = m.end()
    toks.append(_Tok("end", "", len(src)))
    return toks


# AST nodes are tuples: ("num", v) ("var", name) ("neg", a)
# ("+"|"-"|"*"|"/", a, b) ("pow", a, const) ("call", fname, a)


class _Parser:
    def __init__(self, src, variables):
        self.src = src
        self.toks = _tokenize(src)
        self.k = 0
        self.variables = variables

    def peek(self):
        return self.toks[self.k]

    def take(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def fail(self, msg, tok):
        raise ConfigError(f"{msg} in expression {self.src!r}", column=tok.pos + 1)

    def parse(self):
        node = self.expr()
        t = self.peek()
        if t.kind != "end":
            self.fail(f"unexpected {t.text!r}", t)
        return node

    def expr(self):
        node = self.term()
        while self.peek().text in ("+", "-"):
            op = self.take().text
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek().text in ("*", "/"):
            op = self.take().text
            node = (op, node, self.factor())
        return node

    def factor(self):
        # unary minus binds looser than ^, so -x1^2 means -(x1^2)
        if self.peek().text == "-":
            self.take()
            return ("neg", self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().text == "^":
            tok = self.take()
            exponent = self.factor()
            const = _fold_constant(exponent)
            if const is None:
                self.fail("exponent must be a constant", tok)
            return ("pow", base, const)
        return base

    def atom(self):
        t = self.take()
        if t.kind == "num":
            return ("num", float(t.text))
        if t.kind == "name":
            if self.peek().text == "(":
                if t.text not in FUNCTIONS:
                    self.fail(f"unknown function {t.text!r}", t)
                self.take()
                arg = self.expr()
                closing = self.take()
                if closing.text != ")":
                    self.fail("expected ')'", closing)
                return ("call", t.text, arg)
            if t.text not in self.variables:
                self.fail(f"unknown variable {t.text!r} (allowed: {', '.join(sorted(self.variables))})", t)
            return ("var", t.text)
        if t.text == "(":
            node = self.expr()
            closing = self.take()
            if closing.text != ")":
                self.fail("expected ')'", closing)
            return node
        self.fail(f"unexpected {t.text!r}" if t.text else "unexpected end of expression", t)


def _fold_constant(node):
    return None if _vars_used(node) else float(_eval(node, {}))


def _eval(node, env):
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "var":
        return env[node[1]]
    if tag == "neg":
        return -_eval(node[1], env)
    if tag == "+":
        return _eval(node[1], env) + _eval(node[2], env)
    if tag == "-":
        return _eval(node[1], env) - _eval(node[2], env)
    if tag == "*":
        return _eval(node[1], env) * _eval(node[2], env)
    if tag == "/":
        return _eval(node[1], env) / _eval(node[2], env)
    if tag == "pow":
        # a scalar's ** may differ from the array power in the last place
        return np.power(_eval(node[1], env), node[2])
    if tag == "call":
        return getattr(np, node[1])(_eval(node[2], env))
    raise AssertionError(f"bad node {tag}")


def _vars_used(node):
    tag = node[0]
    if tag == "num":
        return frozenset()
    if tag == "var":
        return frozenset([node[1]])
    if tag in ("neg", "pow"):
        return _vars_used(node[1])
    if tag == "call":
        return _vars_used(node[2])
    return _vars_used(node[1]) | _vars_used(node[2])


# Derivative trees are built through constructors that fold constant
# operands, drop zero terms and unit factors, so a derivative carries no
# arithmetic on known zeros and a constant derivative is a single number.

_ZERO, _ONE = ("num", 0.0), ("num", 1.0)


def _num(v):
    return ("num", float(v))


def _neg(a):
    return _num(-a[1]) if a[0] == "num" else ("neg", a)


def _binary(tag, a, b):
    if a[0] == "num" and b[0] == "num":
        return _num(_eval((tag, a, b), {}))
    return (tag, a, b)


def _add(a, b):
    if a == _ZERO:
        return b
    return a if b == _ZERO else _binary("+", a, b)


def _sub(a, b):
    if b == _ZERO:
        return a
    return _neg(b) if a == _ZERO else _binary("-", a, b)


def _mul(a, b):
    if a == _ZERO or b == _ZERO:
        return _ZERO
    if a == _ONE:
        return b
    return a if b == _ONE else _binary("*", a, b)


def _div(a, b):
    if a == _ZERO or b == _ONE:
        return a
    return _binary("/", a, b)


def _pow(a, p):
    if p == 0.0:
        return _ONE
    return a if p == 1.0 else ("pow", a, p)


# f'(a) from the call node f(a)
_CALL_DERIVATIVES = {
    "exp": lambda node: node,
    "sin": lambda node: ("call", "cos", node[2]),
    "cos": lambda node: _neg(("call", "sin", node[2])),
    "sqrt": lambda node: _div(_num(0.5), node),
}


def _diff(node, var):
    tag = node[0]
    if tag == "num":
        return _ZERO
    if tag == "var":
        return _ONE if node[1] == var else _ZERO
    if tag == "neg":
        return _neg(_diff(node[1], var))
    if tag == "pow":
        a, p = node[1], node[2]
        return _mul(_mul(_num(p), _pow(a, p - 1.0)), _diff(a, var))
    if tag == "call":
        return _mul(_CALL_DERIVATIVES[node[1]](node), _diff(node[2], var))
    a, b = node[1], node[2]
    da, db = _diff(a, var), _diff(b, var)
    if tag == "+":
        return _add(da, db)
    if tag == "-":
        return _sub(da, db)
    if tag == "*":
        return _add(_mul(da, b), _mul(a, db))
    if tag == "/":   # a'/b - a b'/b^2
        return _sub(_div(da, b), _div(_mul(a, db), _pow(b, 2.0)))
    raise AssertionError(f"bad node {tag}")


@dataclass(frozen=True)
class Expression:
    source: str
    node: tuple
    variables: frozenset

    def __call__(self, **env):
        return _eval(self.node, env)

    @property
    def is_constant(self):
        return not self.variables

    def constant_value(self):
        if not self.is_constant:
            raise ValueError(f"expression {self.source!r} is not constant")
        return float(_eval(self.node, {}))

    def diff(self, var):
        """Partial derivative along ``var``, as another compiled expression.

        A derivative that folds to a constant evaluates to a plain float, so
        callers broadcast it against their points.
        """
        node = _diff(self.node, var)
        return Expression(f"d/d{var}({self.source})", node, _vars_used(node))


def compile_expression(src, allowed=("x1", "x2", "r")):
    """Parse ``src`` into an :class:`Expression` over the allowed variables."""
    node = _Parser(src, frozenset(allowed)).parse()
    return Expression(src.strip(), node, _vars_used(node))
