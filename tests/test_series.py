import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qdp.errors import NotDivisible, NotTopologicallyNilpotent
from qdp.exprs import parse_scalar
from qdp.hopf import POLY, Presentation, counit, element_exp
from qdp.series import HSeries, div_h


def H(terms, order=8):
    return HSeries.from_map(terms, order)


class TestAdd:
    def test_cancellation(self):
        one_plus_h = H({0: 1, 1: 1})
        assert one_plus_h + H({0: -1}) == H({1: 1})

    def test_zero_identity(self):
        s = H({0: 3, 2: Fraction(1, 2)})
        assert HSeries.zero(8) + s == s

    def test_cancellation_within_truncation(self):
        a = H({1: 1, 3: -1}, order=4)
        b = H({3: 1}, order=4)
        assert a + b == H({1: 1}, order=4)

    def test_order_is_min(self):
        a = H({1: 1}, order=3)
        b = H({2: 1}, order=8)
        assert (a + b).order == 3


class TestMul:
    def test_difference_of_squares(self):
        a = H({0: 1, 1: 1}, order=2)
        b = H({0: 1, 1: -1}, order=2)
        assert a * b == H({0: 1, 2: -1}, order=2)

    def test_laurent_inverse(self):
        h = HSeries.h_power(1, 4)
        hinv = HSeries.h_power(-1, 4)
        assert h * hinv == HSeries.one(4)

    def test_exp_square_is_exp_two_h(self):
        # oracle: direct convolution of factorial coefficients
        e = H({k: Fraction(1, math.factorial(k)) for k in range(5)}, order=4)
        expected = H({0: 1, 1: 2, 2: 2, 3: Fraction(4, 3), 4: Fraction(2, 3)},
                     order=4)
        assert e * e == expected

    def test_order_adjusted_by_valuation(self):
        # multiplying by an exact h^2 shifts the reliable window up by 2
        a = H({0: 1}, order=3)
        h2 = HSeries.h_power(2, 10)
        assert (a * h2).order == 5
        # a short partner caps the window instead
        assert (a * HSeries.h_power(2, 3)).order == 3


class TestDivH:
    def test_simple_shift(self):
        assert div_h(HSeries.h_power(2, 8), 1) == HSeries.h_power(1, 8)

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            div_h(H({0: 1, 1: 1}), 1)

    def test_deeper_shift(self):
        a = H({3: 1, 5: -1})
        assert div_h(a, 3) == H({0: 1, 2: -1})

    def test_order_drops_with_shift(self):
        assert div_h(HSeries.h_power(2, 8), 2).order == 6


class TestValuation:
    def test_plain(self):
        assert H({3: 1, 5: -1}).valuation() == 3

    def test_zero(self):
        assert HSeries.zero(8).valuation() == math.inf

    def test_laurent(self):
        assert H({-1: 1, 0: 1}).valuation() == -1


class TestExp:
    """exp of a scalar is exp in the algebra on no generators."""

    def test_exp_h(self):
        got = parse_scalar("exp(h)", 3)
        assert got == H({0: 1, 1: 1, 2: Fraction(1, 2), 3: Fraction(1, 6)},
                        order=3)

    def test_exp_zero(self):
        assert parse_scalar("exp(0)", 5) == HSeries.one(5)

    def test_rejects_valuation_zero(self):
        with pytest.raises(NotTopologicallyNilpotent):
            parse_scalar("exp(1 + h)", 8)

    def test_exp_times_exp_of_minus(self):
        got = parse_scalar("exp(h + 1/3*h^2)*exp(-h - 1/3*h^2)", 8)
        assert got == HSeries.one(8)


# -- property tests -----------------------------------------------------------

small_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@st.composite
def series(draw, order=6, laurent=False):
    lo = -2 if laurent else 0
    terms = draw(st.dictionaries(st.integers(lo, order), small_fractions,
                                 max_size=5))
    return HSeries.from_map(terms, order)


@settings(max_examples=60, deadline=None)
@given(series(), series(), series())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(series(order=6), st.integers(0, 3))
def test_mul_then_div_roundtrip(s, k):
    shifted = s * HSeries.h_power(k, 6 + k)
    assert div_h(shifted, k) == s


@settings(max_examples=60, deadline=None)
@given(series(laurent=True), series(laurent=True))
def test_valuation_additive(a, b):
    p = a * b
    if a.coeffs and b.coeffs and a.valuation() + b.valuation() <= p.order:
        assert p.valuation() == a.valuation() + b.valuation()


@settings(max_examples=40, deadline=None)
@given(series())
def test_exp_inverse_property(a):
    if a.coeffs and a.valuation() < 1:
        return
    P = Presentation("scalars", POLY, [], a.order, None, {}, {}, {}, {})

    def exp(s):
        return counit(element_exp(P.unit().scaled(s), P), P)
    assert exp(a) * exp(-a) == HSeries.one(a.order)


def test_serialization_roundtrip():
    s = H({1: Fraction(-3, 7), 4: 2})
    data = s.to_jsonable()
    assert data == {"v_min": 1, "order": 8, "coeffs": ["-3/7", "0", "0", "2"]}
    assert HSeries.from_jsonable(data) == s


def test_zero_serialization():
    z = HSeries.zero(5)
    assert HSeries.from_jsonable(z.to_jsonable()) == z
