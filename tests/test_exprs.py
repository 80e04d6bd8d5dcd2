import math
import random
from fractions import Fraction

import pytest

from qdp.bundles import builtin
from qdp.errors import (ExpressionSyntaxError, NotTopologicallyNilpotent,
                        UnknownGenerator)
from qdp.exprs import (element_to_expr, parse_element, parse_scalar,
                       scalar_to_expr)
from qdp.freealg import Monomial
from qdp.hopf import element_exp, multiply, normal_form
from qdp.selftest import random_elements
from qdp.series import HSeries

from support import series_from_map


@pytest.fixture(scope="module")
def borel2():
    return builtin("borel2", 8, 8).quea


class TestParseElement:
    def test_linear_combination(self, borel2):
        e = parse_element("h*x + h^2*y", borel2)
        assert e.terms[(Monomial((1, 0)),)] == HSeries.h_power(1, 8)
        assert e.terms[(Monomial((0, 1)),)] == HSeries.h_power(2, 8)

    def test_relation_applied(self, borel2):
        assert parse_element("y*x", borel2) == normal_form((1, 0), borel2)

    def test_unknown_generator(self, borel2):
        with pytest.raises(UnknownGenerator):
            parse_element("h*q", borel2)

    def test_syntax_error_position(self, borel2):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_element("x + * y", borel2)
        assert exc.value.position == 4

    def test_exp_of_h_times_generator(self, borel2):
        got = parse_element("exp(h*x)", borel2)
        want = element_exp(
            borel2.gen("x").scaled(HSeries.h_power(1, 8)), borel2)
        assert got == want

    def test_exp_rejects_valuation_zero(self, borel2):
        with pytest.raises(NotTopologicallyNilpotent):
            parse_element("exp(x)", borel2)

    def test_powers_and_parens(self, borel2):
        got = parse_element("(x + y)*(x + y)", borel2)
        s = borel2.gen("x") + borel2.gen("y")
        assert got == multiply(s, s, borel2)
        assert parse_element("y^3", borel2) == multiply(
            multiply(borel2.gen("y"), borel2.gen("y"), borel2),
            borel2.gen("y"), borel2)

    def test_rationals(self, borel2):
        e = parse_element("3/4*x - 2*y", borel2)
        assert e.terms[(Monomial((1, 0)),)] == HSeries.const(Fraction(3, 4), 8)
        assert e.terms[(Monomial((0, 1)),)] == HSeries.const(-2, 8)

    def test_trailing_garbage(self, borel2):
        with pytest.raises(ExpressionSyntaxError):
            parse_element("x )", borel2)


class TestParseScalar:
    def test_exp_shorthand(self):
        got = parse_scalar("exp(3*h)", 4)
        want = series_from_map(
            {k: Fraction(3 ** k, math.factorial(k)) for k in range(5)}, 4)
        assert got == want

    def test_identifiers_forbidden(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_scalar("x + 1", 4)

    def test_plain_fraction(self):
        assert parse_scalar("-5/7", 8) == HSeries.const(Fraction(-5, 7), 8)


class TestPrinting:
    def test_scalar_fixed_point(self):
        s = series_from_map({0: 1, 2: Fraction(-1, 2)}, 8)
        assert parse_scalar(scalar_to_expr(s), 8) == s

    def test_element_fixed_point(self, borel2):
        rng = random.Random(23)
        for a in random_elements(borel2, rng, 15):
            printed = element_to_expr(a, borel2)
            assert parse_element(printed, borel2) == a

    def test_zero(self, borel2):
        assert element_to_expr(borel2.zero(), borel2) == "0"
        assert parse_element("0", borel2).is_zero()
