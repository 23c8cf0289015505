"""Compiler for potentials written as arithmetic text in a config file.

``ast.parse`` reads the text, with ``^`` as ``**`` and each whitespace run
as one space, and ``_build`` keeps the grammar: +, -, *, /, ^ (right
associative), unary minus, sin, cos, exp, the variables x and t, decimal
literals, and parentheses.  ``diff`` differentiates a tree in x, so a
text-defined potential supplies analytic first and second derivatives to
the solvers, and ``degree`` gives a tree's exact polynomial degree in x
(None when it is not a polynomial in x).  A derivative tree drops the
terms that a literal 0 or 1 makes dead (``0 * u``, ``1 * u``, ``u + 0``,
``u ^ 1``, a quotient with a 0 numerator), so it computes every finite
value to the same bits as the rules without the fold, but for the sign of
a zero, and never evaluates a dead term: ``d/dx (2 * x^4)`` at x = 1e80 is
8e240, where ``0 * x^4`` would overflow.  The parsed tree itself is kept
as written.  ``^`` is ``math.pow``, so a
power with no real value raises ValueError and one that overflows raises
OverflowError, not a complex number or infinity.  ``straight_line`` turns
a tree into straight-line Python lines of ``evaluate``'s arithmetic, with
each operation on constants alone folded into a constant, and the
constants kept out of the text; ``compile_node`` compiles those lines
once per shape (``compiled``) and binds them to ``math`` and to numpy,
behind a function marked as a stacked model callback: it evaluates one
point on Python floats and arrays of points with numpy, and carries its
tree as ``node``.  ``dynamics`` inlines the same lines of a compiled
dV/dx in its D = 1 path pass.  ``run_generated`` runs the generated
code of both, the one place in the package that does.
"""

from __future__ import annotations

import ast
import functools
import math
import operator
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .models import stacked

_DECIMAL_LITERAL = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_BAD_CHARACTER = re.compile(r"[^\w.+\-*/() ]", re.ASCII)
TOO_DEEP = "expression is nested too deeply"

_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv, "^": math.pow}


# The tree's nodes.  eq=False keeps equality by identity: ``straight_line``
# names each distinct node by ``id``, and ``diff`` shares subtrees.


@dataclass(eq=False, slots=True)
class _Num:
    value: float

    def __post_init__(self):
        # a float even when built from an int, for ``degree``'s is_integer
        self.value = float(self.value)

    def evaluate(self, x: float, t: float) -> float:
        return self.value

    def diff(self) -> "_Num":
        return _Num(0.0)

    def uses(self, name: str) -> bool:
        return False

    def degree(self):
        return 0


@dataclass(eq=False, slots=True)
class _Var:
    name: str

    def evaluate(self, x: float, t: float) -> float:
        return x if self.name == "x" else t

    def diff(self):
        return _Num(1.0 if self.name == "x" else 0.0)

    def uses(self, name: str) -> bool:
        return self.name == name

    def degree(self):
        return 1 if self.name == "x" else 0


@dataclass(eq=False, slots=True)
class _Neg:
    arg: object

    def evaluate(self, x: float, t: float) -> float:
        return -self.arg.evaluate(x, t)

    def diff(self):
        return _sum("-", _ZERO, self.arg.diff())

    def uses(self, name: str) -> bool:
        return self.arg.uses(name)

    def degree(self):
        return self.arg.degree()


@dataclass(eq=False, slots=True)
class _Call:
    name: str
    arg: object

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
        return _product(outer, inner)

    def uses(self, name: str) -> bool:
        return self.arg.uses(name)

    def degree(self):
        return None if self.arg.uses("x") else 0


@dataclass(eq=False, slots=True)
class _Bin:
    op: str
    left: object
    right: object

    def evaluate(self, x: float, t: float) -> float:
        return _ARITHMETIC[self.op](self.left.evaluate(x, t),
                                    self.right.evaluate(x, t))

    def diff(self):
        if self.op in "+-":
            return _sum(self.op, self.left.diff(), self.right.diff())
        if self.op == "*":
            return _sum("+", _product(self.left.diff(), self.right),
                        _product(self.left, self.right.diff()))
        if self.op == "/":
            num = _sum("-", _product(self.left.diff(), self.right),
                       _product(self.left, self.right.diff()))
            if _is_literal(num, 0.0):
                return num
            return _Bin("/", num, _Bin("*", self.right, self.right))
        if self.right.uses("x"):
            raise ConfigError(
                "cannot differentiate a power whose exponent depends on x")
        # d/dx u^c = c * u^(c-1) * u', with c - 1 folded for a literal c
        # and 0 for c = 0, so x^1 and x^0 stay defined at x = 0
        if isinstance(self.right, _Num):
            if self.right.value == 0.0:
                return _Num(0.0)
            decremented = _Num(self.right.value - 1.0)
        else:
            decremented = _Bin("-", self.right, _Num(1.0))
        return _product(_product(self.right, _power(self.left, decremented)),
                        self.left.diff())

    def uses(self, name: str) -> bool:
        return self.left.uses(name) or self.right.uses(name)

    def degree(self):
        if self.op == "^":
            c = self.right.value if isinstance(self.right, _Num) else -1.0
            if c >= 0.0 and c.is_integer():
                base = self.left.degree()
                return None if base is None else base * int(c)
            return None if self.uses("x") else 0   # constant in x
        if self.op == "/" and self.right.uses("x"):
            return None
        left = self.left.degree()
        right = 0 if self.op == "/" else self.right.degree()
        if left is None or right is None:
            return None
        return left + right if self.op == "*" else max(left, right)


_ZERO = _Num(0.0)


def _is_literal(node, value: float) -> bool:
    return isinstance(node, _Num) and node.value == value


# The constructors of derivative trees: each drops what a literal 0 or 1
# makes an identity, and does the rest with the operation ``diff`` asked
# for, so a compiled derivative skips no live operation and reorders none.


def _sum(op: str, left, right):
    """left + right or left - right, without a literal 0 term."""
    if _is_literal(right, 0.0):
        return left
    if _is_literal(left, 0.0):
        return right if op == "+" else _Neg(right)
    return _Bin(op, left, right)


def _product(left, right):
    """left * right: 0 when a factor is a literal 0, without a literal 1."""
    if _is_literal(left, 0.0) or _is_literal(right, 0.0):
        return _ZERO
    if _is_literal(left, 1.0):
        return right
    if _is_literal(right, 1.0):
        return left
    return _Bin("*", left, right)


def _power(base, exponent):
    """base ^ exponent, and base itself for a literal exponent 1."""
    return base if _is_literal(exponent, 1.0) else _Bin("^", base, exponent)


_OPERATORS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
              ast.Pow: "^"}


def _build(node, source: str):
    text = source[node.col_offset:node.end_col_offset]
    if isinstance(node, ast.Constant) and _DECIMAL_LITERAL.fullmatch(text):
        if not math.isfinite(float(text)):
            raise ConfigError(f"number {text!r} overflows a double")
        return _Num(float(text))
    if isinstance(node, ast.Name) and node.id in ("x", "t"):
        return _Var(node.id)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _Neg(_build(node.operand, source))
    if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
        return _Bin(_OPERATORS[type(node.op)], _build(node.left, source),
                    _build(node.right, source))
    if (isinstance(node, ast.Call) and len(node.args) == 1
            and getattr(node.func, "id", "") in _FUNCTIONS
            and not node.keywords):
        return _Call(node.func.id, _build(node.args[0], source))
    raise ConfigError(f"{text!r} is not in the expression grammar")


def parse_expression(text: str):
    """Parse to a tree with .evaluate(x, t), .diff(), .uses(name) and
    .degree()."""
    source = " ".join(text.replace("^", "**").split())
    if _BAD_CHARACTER.search(source):   # a comment, or a non-ASCII name
        raise ConfigError(f"bad character in expression {text!r}")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # "1if x else 2" warns: reject it
            return _build(ast.parse(source, mode="eval").body, source)
    except (SyntaxError, ValueError) as exc:
        raise ConfigError(f"cannot parse expression {text!r}: "
                          f"{getattr(exc, 'msg', exc)}") from exc
    except (RecursionError, MemoryError) as exc:
        raise ConfigError(TOO_DEEP) from exc


# the functions that straight-line code calls, on Python floats
POINT_FUNCTIONS = {"pow": math.pow, **_FUNCTIONS}
_NUMPY_FUNCTIONS = {"pow": np.power, "sin": np.sin, "cos": np.cos,
                    "exp": np.exp}


def _stacked_call(point, array, x, t):
    """``array`` on stacked x and t, broadcast to their common shape.

    It runs under ``np.errstate(all="raise")``, with the constants as
    numpy floats, so a step on finite numbers that leaves them raises
    FloatingPointError.  After one, or when x, t or the result is not
    finite, every point is evaluated again by ``point``, on Python floats:
    an array raises the ValueError, OverflowError or ZeroDivisionError its
    first failing point raises alone, and a step that only numpy flags
    (an underflow, an inf that Python float arithmetic returns quietly)
    gives the pointwise values.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(x.shape, t.shape)
    out = None
    if np.isfinite(x).all() and np.isfinite(t).all():
        try:
            with np.errstate(all="raise"):
                out = array(x, t)
        except FloatingPointError:
            pass
    if out is None or not np.isfinite(out).all():
        out = np.reshape([point(a, b) for a, b in zip(
            np.broadcast_to(x, shape).ravel().tolist(),
            np.broadcast_to(t, shape).ravel().tolist())], shape)
    return np.array(np.broadcast_to(out, shape), dtype=float)


def _evaluated(node):
    """``node``, an operation on literals, folded into one literal when
    ``evaluate`` gives it a finite value without raising, else None."""
    try:
        value = node.evaluate(0.0, 0.0)
    except (ArithmeticError, ValueError):
        return None
    return _Num(value) if math.isfinite(value) else None


def straight_line(node, x: str, t: str, prefix: str):
    """``node`` as straight-line Python: ``(lines, result, constants)``.

    Every distinct node (by identity, so subtrees that ``diff`` shares are
    computed once) becomes one name, in ``evaluate``'s order with the same
    operators: the variables are the input names ``x`` and ``t``, an
    operation is a local ``prefix<i>`` assigned by one unindented line of
    ``lines``, and a literal is a constant ``c<i>``, where i numbers the
    distinct nodes in the order they are first reached.  An operation
    whose operands are all constants is folded into a constant when
    ``evaluate`` gives it a finite value without raising, so it is
    computed once, by the same IEEE operation; one that raises (``1/0``)
    or overflows stays a line and raises or overflows at call time.
    ``constants`` maps the constant names to their float values and
    ``result`` is the name of the tree's value.  The lines hold only
    names, operators and ``pow``, ``sin``, ``cos`` and ``exp`` calls, no
    number: trees of one shape give the same lines.
    """
    names = {}
    values = {}
    constants = {}
    lines = []

    def fold(n):
        # n as a literal, or None; one frame a tree level, as in ``emit``
        if id(n) not in values:
            if isinstance(n, _Num):
                literal = n
            elif isinstance(n, _Var):
                literal = None
            elif isinstance(n, _Bin):
                left, right = fold(n.left), fold(n.right)
                literal = (None if left is None or right is None
                           else _evaluated(_Bin(n.op, left, right)))
            else:
                arg = fold(n.arg)
                literal = (None if arg is None else _evaluated(
                    _Neg(arg) if isinstance(n, _Neg) else _Call(n.name, arg)))
            values[id(n)] = literal
        return values[id(n)]

    def emit(n) -> str:
        if id(n) in names:
            return names[id(n)]
        literal = fold(n)
        if literal is not None:
            name = f"c{len(names)}"
            constants[name] = literal.value
        elif isinstance(n, _Var):
            name = x if n.name == "x" else t
        else:
            if isinstance(n, _Neg):
                code = f"-{emit(n.arg)}"
            elif isinstance(n, _Call):
                code = f"{n.name}({emit(n.arg)})"
            else:
                left, right = emit(n.left), emit(n.right)
                code = (f"pow({left}, {right})" if n.op == "^"
                        else f"{left} {n.op} {right}")
            name = f"{prefix}{len(names)}"
            lines.append(f"{name} = {code}")
        names[id(n)] = name
        return name

    result = emit(node)
    return lines, result, constants


@functools.lru_cache(maxsize=1024)
def compiled(source: str, filename: str):
    """``compile(source, filename, "exec")``, cached by its text.

    A generated source holds no constant, so every tree of one shape
    shares one code object, and each ``exec`` of it binds its own
    constants in its own globals.  Code objects are immutable, so a
    shared one carries nothing of the tree it was first compiled for.
    """
    return compile(source, filename, "exec")


def indented(lines: list, depth: int) -> list:
    """Generated ``lines`` indented by ``depth`` levels."""
    return ["    " * depth + line for line in lines]


def run_generated(lines: list, filename: str, scope: dict) -> dict:
    """The globals of the generated ``lines`` after they run in ``scope``,
    which are all their builtins.  The text is compiled once per process
    (``compiled``)."""
    scope = {"__builtins__": {}, **scope}
    exec(compiled("\n".join(lines), filename), scope)
    return scope


def compile_node(node):
    """Compile an AST into one function f(x, t) equal to ``node.evaluate``.

    The body is ``straight_line``'s, and its constants are bound as names
    in the function's globals, so the generated source holds only local
    names, ``x``, ``t`` and the whitelisted function names: no config
    text.  It is compiled once per shape (``compiled``).

    The body's code is bound twice, by ``run_generated``: to ``math``,
    where ``^`` is ``math.pow`` and a division by zero raises
    ZeroDivisionError, and to numpy.  The returned function is marked
    ``models.stacked``: when x or t is an array it hands both bindings to
    ``_stacked_call``; at a point (x and t numbers, not arrays) it calls
    the ``math`` binding on ``float(x)`` and ``float(t)``, so also a numpy
    float t gives Python float arithmetic.  Its ``node`` attribute is the
    tree it computes.
    """
    lines, result, constants = straight_line(node, "x", "t", "v")
    source = ["def f(x, t):", *indented(lines, 1), f"    return {result}"]
    point = run_generated(source, "<expression>",
                          {**POINT_FUNCTIONS, **constants})["f"]
    array = run_generated(source, "<expression>", {
        **_NUMPY_FUNCTIONS,
        **{name: np.float64(c) for name, c in constants.items()}})["f"]

    def f(x, t):
        if type(x) is np.ndarray or type(t) is np.ndarray:
            return _stacked_call(point, array, x, t)
        return point(float(x), float(t))

    f.node = node
    return stacked(f)


def compile_potential(text: str):
    """Compile V(x, t) text into (V, dV/dx, d2V/dx2) scalar callables.

    The derivatives are compiled from ``diff``'s trees, without their dead
    terms (see the module docstring).  V carries its parsed tree as
    ``node``, so ``one_dim_potential`` reads its degree from it.
    """
    node = parse_expression(text)
    try:
        first = node.diff()
        second = first.diff()
        return compile_node(node), compile_node(first), compile_node(second)
    except RecursionError as exc:
        raise ConfigError(TOO_DEEP) from exc
