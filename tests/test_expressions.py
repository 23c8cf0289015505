from __future__ import annotations

import builtins
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanvleck import (ConfigError, compile_potential, expressions,
                      one_dim_potential, parse_expression)
from vanvleck.expressions import _Bin, _Call, _Neg, _Num, _Var, compile_node
from vanvleck.models import is_stacked

X, T = _Var("x"), _Var("t")
N = _Num


def _pow(a, b):
    return _Bin("^", a, b)


def _shape(node):
    """Class, op or name, float constant and children of a tree, nested."""
    attrs = [a for a in ("value", "name", "op", "arg", "left", "right")
             if hasattr(node, a)]
    return (type(node).__name__, *(
        _shape(getattr(node, a)) if a in ("arg", "left", "right")
        else getattr(node, a) for a in attrs))


# Every expression in tests/ and demos/, the forms the benchmark generates,
# and the literal and whitespace forms, with the tree each one must give.
ACCEPTED = [
    ("1 + 2*3 - 4/2", _Bin("-", _Bin("+", N(1), _Bin("*", N(2), N(3))),
                           _Bin("/", N(4), N(2)))),
    ("2^3^2", _pow(N(2), _pow(N(3), N(2)))),
    ("2**3", _pow(N(2), N(3))),
    ("-sin(x) + cos(t) * exp(x/2)",
     _Bin("+", _Neg(_Call("sin", X)),
          _Bin("*", _Call("cos", T), _Call("exp", _Bin("/", X, N(2)))))),
    ("0.25 * x^4", _Bin("*", N(0.25), _pow(X, N(4)))),
    ("0.5 * (1 + 0.2*sin(t))^2 * x^2",
     _Bin("*", _Bin("*", N(0.5), _pow(_Bin("+", N(1), _Bin(
         "*", N(0.2), _Call("sin", T))), N(2))), _pow(X, N(2)))),
    ("sin(x^2)", _Call("sin", _pow(X, N(2)))),
    ("2^x", _pow(N(2), X)),
    ("x^0.5", _pow(X, N(0.5))),
    ("(-1)^0.5 + t", _Bin("+", _pow(_Neg(N(1)), N(0.5)), T)),
    ("x^400", _pow(X, N(400))),
    ("x^2 / (1 + x^2) - 3 / x",
     _Bin("-", _Bin("/", _pow(X, N(2)), _Bin("+", N(1), _pow(X, N(2)))),
          _Bin("/", N(3), X))),
    ("2^x^2 * t", _Bin("*", _pow(N(2), _pow(X, N(2))), T)),
    ("-x^-2 + (1 + t)^-1.5 * x^3",
     _Bin("+", _Neg(_pow(X, _Neg(N(2)))),
          _Bin("*", _pow(_Bin("+", N(1), T), _Neg(N(1.5))), _pow(X, N(3))))),
    ("-sin(x)^2 + cos(t*x) * exp(-x/2)",
     _Bin("+", _Neg(_pow(_Call("sin", X), N(2))),
          _Bin("*", _Call("cos", _Bin("*", T, X)),
               _Call("exp", _Bin("/", _Neg(X), N(2)))))),
    ("exp(sin(x*t)) / cos(x) - -x",
     _Bin("-", _Bin("/", _Call("exp", _Call("sin", _Bin("*", X, T))),
                    _Call("cos", X)), _Neg(X))),
    ("sin(x^3) * (x - t)",
     _Bin("*", _Call("sin", _pow(X, N(3))), _Bin("-", X, T))),
    ("0.25*x^4*(1+t)",
     _Bin("*", _Bin("*", N(0.25), _pow(X, N(4))), _Bin("+", N(1), T))),
    ("(1 + 0.2*sin(t))^2",
     _pow(_Bin("+", N(1), _Bin("*", N(0.2), _Call("sin", T))), N(2))),
    ("1 + t/4", _Bin("+", N(1), _Bin("/", T, N(4)))),
    ("1/0", _Bin("/", N(1), N(0))),
    ("4 / 2", _Bin("/", N(4), N(2))),
    ("x^2 + t*x/4", _Bin("+", _pow(X, N(2)), _Bin("/", _Bin("*", T, X), N(4)))),
    ("x^2/2", _Bin("/", _pow(X, N(2)), N(2))),
    ("x^4/4 + x^2", _Bin("+", _Bin("/", _pow(X, N(4)), N(4)), _pow(X, N(2)))),
    ("x^4/4", _Bin("/", _pow(X, N(4)), N(4))),
    ("x^2", _pow(X, N(2))),
    ("x", X),
    ("t", T),
    ("2.0", N(2)),
    ("0", N(0)),
    ("1", N(1)),
    ("3", N(3)),
    ("0.37 * x^2 + 0.81 * x^4",      # the verify workload's potential
     _Bin("+", _Bin("*", N(0.37), _pow(X, N(2))),
          _Bin("*", N(0.81), _pow(X, N(4))))),
    ("0.7 * (1 + 0.25 * sin(1.5 * t))",   # its time-dependent frequency
     _Bin("*", N(0.7), _Bin("+", N(1), _Bin("*", N(0.25), _Call(
         "sin", _Bin("*", N(1.5), T)))))),
    ("1.5e3 + .5 + 5. + 1E-2 + 2e+1 + 00 + 007.5",
     _Bin("+", _Bin("+", _Bin("+", _Bin("+", _Bin("+", _Bin(
         "+", N(1500), N(0.5)), N(5)), N(0.01)), N(20)), N(0)), N(7.5))),
    ("-2^2", _Neg(_pow(N(2), N(2)))),
    ("2^-x^2", _pow(N(2), _Neg(_pow(X, N(2))))),
    ("--x", _Neg(_Neg(X))),
    ("((x))", X),
    ("  x\n+\t1 ", _Bin("+", X, N(1))),
    ("x\xa0*\r\n2", _Bin("*", X, N(2))),
]


@pytest.mark.parametrize("text, tree", ACCEPTED,
                         ids=[f"accept{i}" for i in range(len(ACCEPTED))])
def test_accepted_expression_gives_its_tree(text, tree):
    assert _shape(parse_expression(text)) == _shape(tree)


REJECTED = [
    "", " ", "x^2 y", "sinh(x)", "y", "sin", "abs(x)", "+x", "x % 2",
    "x // 2", "x < 1", "x == t", "x[0]", "x.real", "sin(x, t)", "sin(x=1)",
    "sin()", "sin(*x)", "sin(**x)", "sin(x, t=1)", "(x)(t)", "sin(x)(t)",
    "x @ t", "~x", "not x", "x and t", "x if t else 1", "lambda: x",
    "(x, t)", "[x]", "'x'", "...", "True", "None", "1_0", "0x10", "0b1",
    "1j", "1 2", "1.2.3", "2x",
    "007", "1e999 * x^2", "1" + "0" * 400, "x # comment", "x;", "x =1",
    "\uff58^2", "\u0663", "x\0", "\ud800", "-", "x^", "x^^2", "((x)",
    "x)", "1if x else 2", "x **** 2",
    "(" * 300 + "x" + ")" * 300, "-" * 3000 + "x",
    " + ".join(["x"] * 3000), "^".join(["x"] * 3000),
]


@pytest.mark.parametrize("text", REJECTED,
                         ids=[f"reject{i}" for i in range(len(REJECTED))])
def test_rejected_expression_is_config_error(text):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ConfigError):
            parse_expression(text)
    assert not seen   # "1if x else 2" must not print a SyntaxWarning


def test_scalar_arithmetic_and_precedence():
    node = parse_expression("1 + 2*3 - 4/2")
    assert node.evaluate(0.0, 0.0) == pytest.approx(5.0)


def test_power_right_associative():
    assert parse_expression("2^3^2").evaluate(0.0, 0.0) == pytest.approx(512.0)
    assert parse_expression("2**3").evaluate(0.0, 0.0) == pytest.approx(8.0)


def test_unary_minus_and_functions():
    node = parse_expression("-sin(x) + cos(t) * exp(x/2)")
    x, t = 0.7, 0.3
    assert node.evaluate(x, t) == pytest.approx(
        -math.sin(x) + math.cos(t) * math.exp(x / 2))


def test_compiled_potential_derivatives():
    v, dv, d2v = compile_potential("0.25 * x^4")
    assert v(1.5, 0.0) == pytest.approx(0.25 * 1.5 ** 4)
    assert dv(1.5, 0.0) == pytest.approx(1.5 ** 3)
    assert d2v(1.5, 0.0) == pytest.approx(3.0 * 1.5 ** 2)


def test_compiled_time_dependence():
    v, dv, d2v = compile_potential("0.5 * (1 + 0.2*sin(t))^2 * x^2")
    t = 0.9
    w2 = (1.0 + 0.2 * math.sin(t)) ** 2
    assert d2v(0.3, t) == pytest.approx(w2)
    assert dv(0.3, t) == pytest.approx(w2 * 0.3)


def test_chain_rule_through_functions():
    _, dv, d2v = compile_potential("sin(x^2)")
    x = 0.6
    assert dv(x, 0.0) == pytest.approx(2 * x * math.cos(x * x))
    assert d2v(x, 0.0) == pytest.approx(
        2 * math.cos(x * x) - 4 * x * x * math.sin(x * x))


def test_rejects_trailing_garbage():
    with pytest.raises(ConfigError):
        parse_expression("x^2 y")


def test_rejects_unknown_name():
    with pytest.raises(ConfigError):
        parse_expression("sinh(x)")


def test_rejects_exponent_depending_on_x():
    with pytest.raises(ConfigError):
        compile_potential("2^x")


@pytest.mark.parametrize("text, x, error", [
    ("x^0.5", -1.0, ValueError),        # no real value: not a complex number
    ("(-1)^0.5 + t", 0.0, ValueError),
    ("x^400", 10.0, OverflowError),
])
def test_power_without_a_finite_real_value_raises(text, x, error):
    node = parse_expression(text)
    with pytest.raises(error):
        node.evaluate(x, 0.0)
    with pytest.raises(error):
        compile_node(node)(x, 0.0)


def test_rejects_non_finite_literal():
    with pytest.raises(ConfigError, match="1e999"):
        parse_expression("1e999 * x^2")


@pytest.mark.parametrize("text", [
    "0.25 * x^4",
    "x^2 / (1 + x^2) - 3 / x",
    "2^x^2 * t",
    "-x^-2 + (1 + t)^-1.5 * x^3",
    "-sin(x)^2 + cos(t*x) * exp(-x/2)",
    "exp(sin(x*t)) / cos(x) - -x",
])
def test_compiled_node_equals_evaluate(text):
    node = parse_expression(text)
    grid = [(x, t) for x in (-1.3, -0.4, 0.6, 1.7) for t in (0.0, 0.35, 1.1)]
    trees = [node]
    if not text.startswith("2^x"):
        trees += [node.diff(), node.diff().diff()]
    for tree in trees:
        f = compile_node(tree)
        assert f.node is tree
        for x, t in grid:
            assert f(x, t).hex() == tree.evaluate(x, t).hex()


def test_model_callbacks_carry_the_compiled_trees():
    fns = compile_potential("0.5 * x^2 + 0.3 * x^4 - sin(t) * x")
    model = one_dim_potential(*fns)
    assert model.potential.node is fns[0].node
    assert model.potential_grad.node is fns[1].node
    assert model.potential_hess.node is fns[2].node
    plain = one_dim_potential(lambda x, t: x, lambda x, t: 1.0,
                              lambda x, t: 0.0)
    assert plain.potential_grad.node is None
    assert not any(hasattr(f, "scalar")
                   for f in (*fns, model.potential, model.potential_grad,
                             model.potential_hess))


def _compiled_sources(monkeypatch, text):
    """The sources that ``compile_potential(text)`` compiles or execs,
    from an empty compile cache, so a shape compiled earlier in the
    process is compiled again."""
    expressions.compiled.cache_clear()
    sources = []
    for name in ("compile", "exec"):
        def counted(source, *args, real=getattr(builtins, name)):
            if isinstance(source, str):
                sources.append(source)
            return real(source, *args)
        monkeypatch.setattr(expressions, name, counted, raising=False)
    compile_potential(text)
    return sources


def test_compile_potential_compiles_one_source_a_node(monkeypatch):
    # V, dV/dx and d2V/dx2: one source each, compiled once and bound to
    # math and to numpy; the point/array dispatch is not generated
    sources = _compiled_sources(monkeypatch,
                                "0.5 * x^2 + 0.3 * x^4 - sin(t) * x")
    assert len(sources) == 3
    assert not any("ndarray" in s or "float" in s or "_stacked" in s
                   for s in sources)


def test_quartic_derivative_bodies_make_one_pow_each(monkeypatch):
    # dV/dx = 0.3 * (2 * x) + 0.7 * (4 * x^3), d2V/dx2 = 0.3 * 2 +
    # 0.7 * (4 * (3 * x^2)): no 0 * x^n, no x^1, no factor 1
    _, first, second = _compiled_sources(monkeypatch, "0.3 * x^2 + 0.7 * x^4")
    assert first.count("pow(") == second.count("pow(") == 1


def _trees(text):
    """The parsed tree of ``text`` and its derivative trees that exist."""
    trees = [parse_expression(text)]
    try:
        trees += [trees[0].diff(), trees[0].diff().diff()]
    except ConfigError:   # an exponent that depends on x
        pass
    return trees


@pytest.mark.parametrize("text", [text for text, _ in ACCEPTED],
                         ids=[f"accept{i}" for i in range(len(ACCEPTED))])
def test_constant_operations_fold_to_the_evaluate_bits(text):
    # an operation on constants alone is computed once, at compile time,
    # unless it raises or overflows: no such line is left, and the
    # compiled body gives evaluate's bits or its error at every point
    for tree in _trees(text):
        lines, _, constants = expressions.straight_line(tree, "x", "t", "v")
        scope = {"__builtins__": {}, **expressions.POINT_FUNCTIONS,
                 **constants}
        for line in lines:
            code = line.split(" = ", 1)[1]
            operands = [name for name in re.findall(r"[a-z]\w*", code)
                        if name not in expressions.POINT_FUNCTIONS]
            if all(name in constants for name in operands):
                value = _value_or_error(lambda x, t: eval(code, scope), 0, 0)
                assert value in (ZeroDivisionError, ValueError,
                                 OverflowError) or not math.isfinite(value)
        f = compile_node(tree)
        for x in (-1.3, -0.4, 0.0, 0.6, 1.7):
            for t in (0.0, 0.35, 1.1):
                want = _value_or_error(tree.evaluate, x, t)
                got = _value_or_error(f, x, t)
                assert (got is want if isinstance(want, type)
                        else got.hex() == want.hex()), (text, x, t)


def test_constant_operations_that_raise_raise_at_call_time():
    # 1/0 and (-1)^0.5 compile, and raise when the function is called
    for text, error in (("1/0", ZeroDivisionError),
                        ("(-1)^0.5 + t", ValueError)):
        f = compile_node(parse_expression(text))
        with pytest.raises(error):
            f(0.3, 0.1)
        with pytest.raises(error):
            f(np.array([0.3, 0.4]), 0.1)


def test_quartic_second_derivative_folds_its_constant_product():
    # d2V/dx2 of 0.3 * x^2 + 0.7 * x^4 is 0.3 * 2 + 0.7 * (4 * (3 * x^2)):
    # the product 0.3 * 2 is one constant, bound by name, not a line
    second = parse_expression("0.3 * x^2 + 0.7 * x^4").diff().diff()
    lines, _, constants = expressions.straight_line(second, "x", "t", "v")
    assert 0.3 * 2 in constants.values()
    assert not any(re.fullmatch(r"v\d+ = c\d+ \* c\d+", line)
                   for line in lines)
    assert compile_node(second)(1.5, 0.0) == second.evaluate(1.5, 0.0)


def _operation_nodes(node, seen):
    """Count visits of inner (operation) nodes; ``seen`` collects their ids."""
    children = [getattr(node, a) for a in ("arg", "left", "right")
                if hasattr(node, a)]
    if not children:
        return 0
    seen.add(id(node))
    return 1 + sum(_operation_nodes(c, seen) for c in children)


def test_compile_node_computes_shared_subtrees_once():
    second = parse_expression("sin(x^3) * (x - t)").diff().diff()
    distinct = set()
    visits = _operation_nodes(second, distinct)
    lines, _, _ = expressions.straight_line(second, "x", "t", "v")
    # one line, and one local, per distinct operation node
    assert len(lines) == len(distinct) < visits
    assert compile_node(second)(0.4, 0.2) == second.evaluate(0.4, 0.2)


@pytest.mark.parametrize("text, first, second", [
    ("x^0", 0.0, 0.0),
    ("x^1", 1.0, 0.0),
    ("0.5*x^2 + 0.3*x^1", 0.3, 1.0),
    ("(x - t)^1 * 2", 2.0, 0.0),
])
def test_literal_powers_differentiate_at_the_origin(text, first, second):
    # c - 1 is folded into a literal and d/dx u^0 is 0, so no derivative
    # evaluates pow(0, -1)
    _, dv, d2v = compile_potential(text)
    assert (dv(0.0, 0.0), d2v(0.0, 0.0)) == (first, second)


def _unfolded_diff(node):
    """``diff`` by the rules without the fold of literal 0 and 1: the
    reference that the folded derivative trees are checked against."""
    if isinstance(node, _Num):
        return N(0)
    if isinstance(node, _Var):
        return N(1.0 if node.name == "x" else 0.0)
    if isinstance(node, _Neg):
        return _Neg(_unfolded_diff(node.arg))
    if isinstance(node, _Call):
        outer = (_Call("cos", node.arg) if node.name == "sin"
                 else _Neg(_Call("sin", node.arg)) if node.name == "cos"
                 else _Call("exp", node.arg))
        return _Bin("*", outer, _unfolded_diff(node.arg))
    left, right = node.left, node.right
    if node.op in "+-":
        return _Bin(node.op, _unfolded_diff(left), _unfolded_diff(right))
    product = _Bin("+" if node.op == "*" else "-",
                   _Bin("*", _unfolded_diff(left), right),
                   _Bin("*", left, _unfolded_diff(right)))
    if node.op == "*":
        return product
    if node.op == "/":
        return _Bin("/", product, _Bin("*", right, right))
    if right.uses("x"):
        raise ConfigError("cannot differentiate a power whose exponent "
                          "depends on x")
    if isinstance(right, _Num):
        if right.value == 0.0:
            return N(0)
        decremented = N(right.value - 1.0)
    else:
        decremented = _Bin("-", right, N(1))
    return _Bin("*", _Bin("*", right, _pow(left, decremented)),
                _unfolded_diff(left))


def _value_or_error(f, x, t):
    try:
        return f(x, t)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def _same_bits(a, b):
    """Equal to the bit, but for the sign of a zero."""
    return a.hex() == b.hex() or a == b == 0.0


@pytest.mark.parametrize("text", [text for text, _ in ACCEPTED],
                         ids=[f"accept{i}" for i in range(len(ACCEPTED))])
def test_folded_derivatives_keep_the_unfolded_bits(text):
    node = parse_expression(text)
    try:
        first = node.diff()
    except ConfigError:   # an exponent that depends on x
        with pytest.raises(ConfigError):
            _unfolded_diff(node)
        return
    unfolded = _unfolded_diff(node)
    for tree, reference in ((first, unfolded),
                            (first.diff(), _unfolded_diff(unfolded))):
        f, g = compile_node(tree), compile_node(reference)
        for x in (-2.5, -1.3, -1.0, -0.4, -0.0, 0.0, 0.6, 1.0, 1.7, 3.0):
            for t in (-0.7, 0.0, 0.35, 0.5, 1.1):
                want = _value_or_error(reference.evaluate, x, t)
                got = _value_or_error(f, x, t)
                if isinstance(want, float):
                    assert _same_bits(got, want), (text, x, t)
                    # the numpy bindings of both trees
                    xs, ts = np.array([x]), np.array([t])
                    assert _same_bits(f(xs, ts)[0], g(xs, ts)[0]), (x, t)
                elif _shape(tree) == _shape(N(0)):
                    # every term of the unfolded derivative is dead, and
                    # one of them raised: "1/0", "(-1)^0.5 + t"
                    assert got == 0.0
                else:
                    assert got is want, (text, x, t)


def test_a_derivative_does_not_evaluate_its_dead_terms():
    # unfolded, d/dx (2 * x^4) = 0 * x^4 + 2 * (4 * x^3 * 1): the dead
    # x^4 overflows at x = 1e80
    node = parse_expression("2 * x^4")
    with pytest.raises(OverflowError):
        _unfolded_diff(node).evaluate(1e80, 0.0)
    _, dv, _ = compile_potential("2 * x^4")
    assert dv(1e80, 0.0) == 2 * (4 * math.pow(1e80, 3)) == 8e240
    assert dv(np.array([1e80]), 0.0).tolist() == [8e240]
    # x*x*x*x overflows to inf quietly, and its dead 0 * inf was a NaN
    node = parse_expression("2 * (x*x*x*x)")
    assert math.isnan(_unfolded_diff(node).evaluate(1e80, 0.0))
    assert compile_node(node.diff())(1e80, 0.0) == 8e240


DEGREES = [
    ("0.5*x^2", 2),
    ("x^2 + t*x/4", 2),
    ("0.3*(1 + 0.2*sin(t))*(x - 0.5)^2", 2),
    ("3*x + 2", 1),
    ("x*x", 2),
    ("-x/4 + exp(t)", 1),
    ("x^0", 0),
    ("x^1", 1),
    ("x^2.0", 2),
    ("(x^2 + x)^2", 4),
    ("0.25 * x^4", 4),
    ("0*x^4", 4),                  # exact degree of the tree, not of V
    ("x^2 * (1 + t)^-1.5", 2),     # an x-free power is constant in x
    ("2^3^2 + t^0.5", 0),
    ("1", 0),
    ("t", 0),
    ("sin(x)", None),
    ("exp(x/2)", None),
    ("cos(t*x)", None),
    ("sin(x - x)", None),
    ("1/x", None),
    ("x^2/(1 + x^2)", None),
    ("x / (x - x + 1)", None),
    ("x^-2", None),
    ("x^0.5", None),
    ("x^(1 + 1)", None),
    ("2^x", None),
    ("t^x", None),
]


@pytest.mark.parametrize("text, degree", DEGREES,
                         ids=[text for text, _ in DEGREES])
def test_degree_table(text, degree):
    assert parse_expression(text).degree() == degree


def _subtrees(node):
    yield node
    for a in ("arg", "left", "right"):
        if hasattr(node, a):
            yield from _subtrees(getattr(node, a))


def _any_node(inner):
    exponent = st.integers(0, 3).map(N) | inner
    return (inner.map(_Neg)
            | st.builds(_Call, st.sampled_from(["sin", "cos", "exp"]), inner)
            | st.builds(_Bin, st.sampled_from("+-*/"), inner, inner)
            | st.builds(_pow, inner, exponent))


_CONSTANTS = st.integers(-3, 3).map(N) | st.floats(-2.0, 2.0).map(N)
_X_FREE = st.recursive(st.just(T) | _CONSTANTS, _any_node, max_leaves=4)
_LITERAL_EXPONENTS = st.integers(0, 3).map(N) | st.sampled_from(
    [N(0.5), N(1.5), _Neg(N(1))])
# any tree, and polynomial-shaped trees with x-free coefficients, so that
# powers of x and degrees above 0 are drawn often
_TREES = st.recursive(st.sampled_from([X, T]) | _CONSTANTS, _any_node,
                      max_leaves=10) | st.recursive(
    st.just(X) | st.builds(_pow, st.just(X) | _X_FREE, _LITERAL_EXPONENTS)
    | _X_FREE,
    lambda inner: (inner.map(_Neg)
                   | st.builds(_Bin, st.sampled_from("+-*"), inner, inner)
                   | st.builds(_Bin, st.just("/"), inner, _X_FREE)
                   | st.builds(_pow, inner, _LITERAL_EXPONENTS)),
    max_leaves=8)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(tree=_TREES, x=st.floats(-2.0, 2.0), t=st.floats(-2.0, 2.0),
       u=st.floats(0.1, 1.0))
def test_degree_d_has_vanishing_differences_of_order_d_plus_1(tree, x, t, u):
    # on degree <= 2 this includes the third difference
    # V(x + 2u) - 3 V(x + u) + 3 V(x) - V(x - u), the test for a quadratic
    degree = tree.degree()
    if degree is None or degree > 4:
        return
    order = degree + 1
    points = [x + (k - 1) * u for k in range(order + 1)]
    try:
        f = compile_node(tree)
        values = [f(p, t) for p in points]
        # the rounding scale: the largest intermediate value of the tree
        scale = max(abs(n.evaluate(p, t)) for n in _subtrees(tree)
                    for p in points)
    except (ArithmeticError, ValueError):
        return
    if not math.isfinite(scale):
        return
    difference = sum((-1) ** (order - k) * math.comb(order, k) * v
                     for k, v in enumerate(values))
    assert abs(difference) <= 1e-12 * (1.0 + scale), (degree, difference)


# ---------------------------------------------------------------------------
# the stacked binding


@pytest.mark.parametrize("text, x, t, error", [
    ("x^0.5", -1.0, 0.0, ValueError),
    ("(-1)^0.5 + t", 0.0, 0.0, ValueError),
    ("x^400", 10.0, 0.0, OverflowError),
    ("1/(t-0.5)", 0.0, 0.5, ZeroDivisionError),
])
def test_point_and_array_raise_the_same_error(text, x, t, error):
    f = compile_node(parse_expression(text))
    assert is_stacked(f)
    # grid times are numpy floats: a point is still evaluated on Python
    # floats, so 1/(t-0.5) raises instead of warning and returning inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            f(np.float64(x), np.float64(t))
        xs = np.array([0.5, 0.25, x, 0.75])
        ts = np.array([0.0, 0.1, t, 0.2])
        with pytest.raises(error):
            f(xs, ts)
        with pytest.raises(error):
            f(x, ts)
        with pytest.raises(error):
            f(xs, t)


def test_steps_only_numpy_flags_give_the_pointwise_values():
    # exp underflows and 1e200 * x overflows to inf: Python returns both
    # quietly, numpy's raise mode flags them, and the stacked call falls
    # back to the point values
    for text in ("exp(x)", "1e200 * 1e200 * x", "1/(1e200 * 1e200 * x)"):
        f = compile_node(parse_expression(text))
        xs = np.array([-800.0, 0.5, 2.0])
        np.testing.assert_array_equal(f(xs, 0.0), [f(x, 0.0) for x in xs])


def _pointwise(f, xs, ts):
    """The point values of f, or the error of the first point that raises."""
    try:
        return np.array([f(x, t) for x, t in zip(xs, ts)], dtype=float), None
    except (ArithmeticError, ValueError) as exc:
        return None, type(exc)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(tree=_TREES, xs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6),
       t=st.floats(-2.0, 2.0))
def test_stacked_call_equals_the_pointwise_loop(tree, xs, t):
    f = compile_node(tree)
    xs = np.array(xs)
    ts = t + 0.25 * np.arange(len(xs))
    values, error = _pointwise(f, xs.tolist(), ts.tolist())
    if error is not None:
        with pytest.raises(error):
            f(xs, ts)
        return
    stacked_values = f(xs, ts)
    assert stacked_values.shape == xs.shape
    finite = np.isfinite(values)
    np.testing.assert_array_equal(stacked_values[~finite], values[~finite])
    np.testing.assert_array_max_ulp(stacked_values[finite], values[finite],
                                    maxulp=4)
