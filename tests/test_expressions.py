from __future__ import annotations

import math

import pytest

from vanvleck import ConfigError, compile_potential, parse_expression
from vanvleck.expressions import compile_node


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
        for x, t in grid:
            assert f(x, t) == tree.evaluate(x, t)


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
    f = compile_node(second)
    # one local per distinct operation node, besides the arguments x and t
    assert f.__code__.co_nlocals - 2 == len(distinct) < visits
    assert f(0.4, 0.2) == second.evaluate(0.4, 0.2)
