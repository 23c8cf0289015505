"""Compiler for potentials written as arithmetic text in a config file.

The accepted grammar is deliberately small: +, -, *, /, ^ (right
associative), unary minus, sin, cos, exp, the variables x and t, numeric
literals, and parentheses.  Expressions are differentiated symbolically
in x so a text-defined potential still supplies analytic first and
second derivatives to the solvers.  ``^`` is ``math.pow``, so a power
with no real value (a negative base under a fractional exponent) raises
ValueError and one that overflows raises OverflowError; neither returns a
complex number or infinity.  ``compile_node`` turns a tree into one
straight-line Python function that does ``evaluate``'s arithmetic, so the
solvers' callbacks do not walk the tree at every call.
"""

from __future__ import annotations

import math
import re

from .errors import ConfigError

_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()])"
    r")")

_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp}


class _Num:
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = float(value)

    def evaluate(self, x: float, t: float) -> float:
        return self.value

    def diff(self) -> "_Num":
        return _Num(0.0)

    def uses(self, name: str) -> bool:
        return False


class _Var:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, x: float, t: float) -> float:
        return x if self.name == "x" else t

    def diff(self):
        return _Num(1.0 if self.name == "x" else 0.0)

    def uses(self, name: str) -> bool:
        return self.name == name


class _Neg:
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg

    def evaluate(self, x: float, t: float) -> float:
        return -self.arg.evaluate(x, t)

    def diff(self):
        return _Neg(self.arg.diff())

    def uses(self, name: str) -> bool:
        return self.arg.uses(name)


class _Call:
    __slots__ = ("name", "arg")

    def __init__(self, name: str, arg):
        self.name = name
        self.arg = arg

    def evaluate(self, x: float, t: float) -> float:
        return _FUNCTIONS[self.name](self.arg.evaluate(x, t))

    def diff(self):
        inner = self.arg.diff()
        if self.name == "sin":
            outer = _Call("cos", self.arg)
        elif self.name == "cos":
            outer = _Neg(_Call("sin", self.arg))
        else:
            outer = _Call("exp", self.arg)
        return _Bin("*", outer, inner)

    def uses(self, name: str) -> bool:
        return self.arg.uses(name)


class _Bin:
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left, right):
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, x: float, t: float) -> float:
        a = self.left.evaluate(x, t)
        b = self.right.evaluate(x, t)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            return a / b
        return math.pow(a, b)

    def diff(self):
        if self.op in "+-":
            return _Bin(self.op, self.left.diff(), self.right.diff())
        if self.op == "*":
            return _Bin("+", _Bin("*", self.left.diff(), self.right),
                        _Bin("*", self.left, self.right.diff()))
        if self.op == "/":
            num = _Bin("-", _Bin("*", self.left.diff(), self.right),
                       _Bin("*", self.left, self.right.diff()))
            return _Bin("/", num, _Bin("*", self.right, self.right))
        if self.right.uses("x"):
            raise ConfigError(
                "cannot differentiate a power whose exponent depends on x")
        # d/dx u^c = c * u^(c-1) * u'
        decremented = _Bin("-", self.right, _Num(1.0))
        return _Bin("*", _Bin("*", self.right, _Bin("^", self.left,
                                                    decremented)),
                    self.left.diff())

    def uses(self, name: str) -> bool:
        return self.left.uses(name) or self.right.uses(name)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise ConfigError(f"bad character in expression at: {text[pos:]!r}")
        pos = match.end()
        if match.group("num") is not None:
            tokens.append(("num", match.group("num")))
        elif match.group("name") is not None:
            tokens.append(("name", match.group("name")))
        else:
            op = match.group("op")
            tokens.append(("op", "^" if op == "**" else op))
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, op: str) -> None:
        kind, text = self.take()
        if kind != "op" or text != op:
            raise ConfigError(f"expected {op!r}, found {text!r}")

    def expression(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.take()[1]
            node = _Bin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.take()[1]
            node = _Bin(op, node, self.unary())
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            return _Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            return _Bin("^", node, self.unary())
        return node

    def atom(self):
        kind, text = self.take()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ConfigError(f"number {text!r} overflows a double")
            return _Num(value)
        if kind == "name":
            if text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expression()
                self.expect_op(")")
                return _Call(text, arg)
            if text in ("x", "t"):
                return _Var(text)
            raise ConfigError(f"unknown symbol {text!r}")
        if (kind, text) == ("op", "("):
            node = self.expression()
            self.expect_op(")")
            return node
        raise ConfigError(f"unexpected token {text!r}")


def parse_expression(text: str):
    """Parse to an AST with .evaluate(x, t), .diff() and .uses(name) methods."""
    parser = _Parser(_tokenize(text))
    node = parser.expression()
    if parser.peek()[0] != "end":
        raise ConfigError(f"trailing input: {parser.peek()[1]!r}")
    return node


_PY_OPERATORS = {"+": "+", "-": "-", "*": "*", "/": "/"}


def compile_node(node):
    """Compile an AST into one function f(x, t) equal to ``node.evaluate``.

    Every distinct node (by identity, so subtrees that ``diff`` shares are
    computed once) becomes one local, emitted in ``evaluate``'s order with
    the same operators (``^`` as ``math.pow``).  Numeric constants are
    bound as names in the function's globals, so the generated source
    holds only local names, ``x``, ``t`` and the whitelisted function
    names: no config text.
    """
    scope = {"__builtins__": {}, "pow": math.pow, **_FUNCTIONS}
    names = {}
    lines = []

    def emit(n) -> str:
        if id(n) in names:
            return names[id(n)]
        if isinstance(n, _Num):
            name = f"c{len(names)}"
            scope[name] = n.value
        elif isinstance(n, _Var):
            name = "x" if n.name == "x" else "t"
        else:
            if isinstance(n, _Neg):
                code = f"-{emit(n.arg)}"
            elif isinstance(n, _Call):
                if n.name not in _FUNCTIONS:
                    raise ValueError(f"unknown function {n.name!r}")
                code = f"{n.name}({emit(n.arg)})"
            else:
                left, right = emit(n.left), emit(n.right)
                code = (f"pow({left}, {right})" if n.op == "^"
                        else f"{left} {_PY_OPERATORS[n.op]} {right}")
            name = f"v{len(names)}"
            lines.append(f"    {name} = {code}")
        names[id(n)] = name
        return name

    result = emit(node)
    exec("\n".join(["def f(x, t):", *lines, f"    return {result}"]), scope)
    return scope["f"]


def compile_potential(text: str):
    """Compile V(x, t) text into (V, dV/dx, d2V/dx2) scalar callables."""
    node = parse_expression(text)
    first = node.diff()
    second = first.diff()
    return compile_node(node), compile_node(first), compile_node(second)
