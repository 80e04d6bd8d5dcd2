import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qdp.errors import NotDivisible, NotTopologicallyNilpotent
from qdp.exprs import parse_scalar
from qdp.hopf import POLY, Presentation, counit, element_exp
from qdp.manifest import series_from_jsonable
from qdp.series import HSeries, _make, div_h, hsum, mul

from support import series_from_map


def H(terms, order=8):
    return series_from_map(terms, order)


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
        # h has no inverse over k[[h]]: h^-1 is refused, and 1 / h is no
        # power series
        with pytest.raises(ValueError, match="h-valuation -1"):
            HSeries.h_power(-1, 4)
        with pytest.raises(NotDivisible):
            div_h(HSeries.one(4), 1)

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

    def test_past_the_valuation_is_not_divisible(self):
        # a division that would leave h^-1 is a finding, not a bad input
        with pytest.raises(NotDivisible):
            div_h(HSeries.h_power(2, 8), 3)

    def test_non_positive_k_multiplies(self):
        assert div_h(HSeries.h_power(1, 8), -2) == HSeries.h_power(3, 10)
        assert div_h(HSeries.zero(4), -1) == HSeries.zero(5)


class TestValuation:
    def test_plain(self):
        assert H({3: 1, 5: -1}).valuation() == 3

    def test_zero(self):
        assert HSeries.zero(8).valuation() == math.inf

    def test_laurent(self):
        # no series has a negative valuation
        with pytest.raises(ValueError, match="h-valuation -1"):
            H({-1: 1, 0: 1})


class TestInspection:
    def test_bool_is_nonzero(self):
        assert bool(HSeries.zero(3)) is False
        assert bool(HSeries.one(3)) is True

    def test_repr_names_the_order(self):
        assert repr(HSeries.h_power(1, 4, -2)) == "HSeries(-2*h; order=4)"


class TestPowerSeriesOnly:
    """Every public constructor refuses a nonzero coefficient below h^0."""

    @pytest.mark.parametrize("build", [
        lambda: HSeries(-1, 4, [1]),
        lambda: HSeries.h_power(-1, 4),
        lambda: HSeries.h_power(-1, 4, Fraction(-2, 3)),
        lambda: HSeries.one(4).shift(-1),
    ], ids=["constructor", "h_power", "h_power-value", "shift"])
    def test_negative_power_raises(self, build):
        with pytest.raises(ValueError, match="h-valuation -1"):
            build()

    def test_deeper_power_is_named(self):
        with pytest.raises(ValueError, match="h-valuation -3"):
            HSeries(-3, 4, [1, 0, 0, 1])

    def test_canonical_result_is_checked(self):
        # zeros below h^0 are no coefficient, and an h^-1 cut away by the
        # order leaves the zero series
        assert HSeries(-2, 4, [0, 0, 1]) == HSeries.one(4)
        assert HSeries.h_power(-1, -2).is_zero()
        assert HSeries.zero(4).shift(-6).is_zero()
        assert HSeries.h_power(2, 8).shift(-2) == HSeries.one(6)

    def test_str_coefficient_is_refused(self):
        with pytest.raises(TypeError):
            HSeries(0, 4, ["1/2"])


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
def series(draw, order=6):
    terms = draw(st.dictionaries(st.integers(0, order), small_fractions,
                                 max_size=5))
    return series_from_map(terms, order)


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
@given(series(), series())
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
    assert series_from_jsonable(data, 8) == s


def test_zero_serialization():
    z = HSeries.zero(5)
    assert series_from_jsonable(z.to_jsonable(), 5) == z


# -- reference model ----------------------------------------------------------
#
# The Fraction-per-coefficient series that HSeries replaced: one normalised
# Fraction per stored coefficient, trimmed to nonzero ends.  Every HSeries
# operation must agree with it exactly.

class RefSeries:
    def __init__(self, v_min, order, coeffs):
        cs = [Fraction(c) for c in coeffs]
        if v_min + len(cs) - 1 > order:
            cs = cs[: max(0, order - v_min + 1)]
        while cs and cs[0] == 0:
            cs.pop(0)
            v_min += 1
        while cs and cs[-1] == 0:
            cs.pop()
        self.v_min = v_min if cs else order + 1
        self.order = order
        self.coeffs = tuple(cs)

    def coeff_at(self, k):
        if self.coeffs and self.v_min <= k < self.v_min + len(self.coeffs):
            return self.coeffs[k - self.v_min]
        return Fraction(0)

    def items(self):
        return [(self.v_min + i, c) for i, c in enumerate(self.coeffs) if c]

    def __add__(self, other):
        order = min(self.order, other.order)
        if not self.coeffs:
            return other.truncate(order)
        if not other.coeffs:
            return self.truncate(order)
        lo = min(self.v_min, other.v_min)
        hi = max(self.v_min + len(self.coeffs),
                 other.v_min + len(other.coeffs)) - 1
        return RefSeries(lo, order, [self.coeff_at(k) + other.coeff_at(k)
                                     for k in range(lo, hi + 1)])

    def __neg__(self):
        return RefSeries(self.v_min, self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RefSeries):
            order = min(self.order + other.v_min, other.order + self.v_min)
            if not self.coeffs or not other.coeffs:
                return RefSeries(order + 1, order, [])
            v = self.v_min + other.v_min
            acc = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    acc[i + j] += a * b
            return RefSeries(v, order, acc)
        if not other:
            return RefSeries(self.order + 1, self.order, [])
        return RefSeries(self.v_min, self.order,
                         [c * other for c in self.coeffs])

    def truncate(self, order):
        order = min(order, self.order)
        return RefSeries(self.v_min, order, self.coeffs)

    def shift(self, k):
        return RefSeries(self.v_min + k, self.order + k, self.coeffs)

    def div_h(self, k):
        if self.coeffs and self.v_min < k:
            raise NotDivisible("reference")
        return self.shift(-k)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in self.items():
            if k == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                hk = "h" if k == 1 else f"h^{k}"
                parts.append(f"{head}{hk}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def to_jsonable(self):
        return {"v_min": self.v_min if self.coeffs else self.order + 1,
                "order": self.order,
                "coeffs": [str(c) for c in self.coeffs]}


def assert_canonical(s):
    assert type(s.den) is int and s.den > 0
    assert all(type(c) is int for c in s.coeffs)
    if s.coeffs:
        assert s.coeffs[0] and s.coeffs[-1]
        assert math.gcd(s.den, *s.coeffs) == 1
        assert s.v_min + len(s.coeffs) - 1 <= s.order
    else:
        assert s.den == 1 and s.v_min == s.order + 1


def assert_matches(s, r):
    assert_canonical(s)
    assert (s.v_min, s.order) == (r.v_min, r.order)
    assert len(s.coeffs) == len(r.coeffs)
    assert tuple(Fraction(c, s.den) for c in s.coeffs) == r.coeffs
    lo = min(s.v_min, s.order) - 1
    for k in range(lo, s.order + 2):
        got = s.coeff_at(k)
        assert type(got) is Fraction and got == r.coeff_at(k)
    assert list(s.items()) == r.items()
    assert str(s) == str(r)
    assert s.to_jsonable() == r.to_jsonable()
    back = series_from_jsonable(s.to_jsonable(), s.order)
    assert back == s and hash(back) == hash(s)
    assert (back.v_min, back.order, back.coeffs, back.den) == \
        (s.v_min, s.order, s.coeffs, s.den)


rationals = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=24),
    st.sampled_from([0, 0, Fraction(1, 720), Fraction(-5040, 7)]))


@st.composite
def series_pair(draw):
    """The same random coefficient window as an HSeries and a RefSeries,
    zero ends included."""
    v_min = draw(st.integers(0, 5))
    order = draw(st.integers(v_min - 2, v_min + 8))
    coeffs = draw(st.lists(rationals, max_size=8))
    return HSeries(v_min, order, coeffs), RefSeries(v_min, order, coeffs)


@settings(max_examples=300, deadline=None)
@given(series_pair(), series_pair())
def test_arithmetic_matches_reference(x, y):
    (a, ra), (b, rb) = x, y
    assert_matches(a, ra)
    assert_matches(a + b, ra + rb)
    assert_matches(a - b, ra - rb)
    assert_matches(-a, -ra)
    assert_matches(a * b, ra * rb)


@settings(max_examples=200, deadline=None)
@given(series_pair(), st.integers(-12, 12),
       st.fractions(min_value=-9, max_value=9, max_denominator=30))
def test_scalar_product_matches_reference(x, k, q):
    a, ra = x
    for s in (k, q):
        assert_matches(a * s, ra * s)
        assert_matches(s * a, ra * s)


@settings(max_examples=200, deadline=None)
@given(series_pair(), st.integers(-4, 10), st.integers(-3, 4))
def test_window_ops_match_reference(x, order, k):
    a, ra = x
    assert_matches(a.truncate(order), ra.truncate(order))
    want = ra.shift(k)
    if want.coeffs and want.v_min < 0:
        with pytest.raises(ValueError, match=f"h-valuation {want.v_min}"):
            a.shift(k)
    else:
        assert_matches(a.shift(k), want)
    try:
        want = ra.div_h(k)
    except NotDivisible:
        with pytest.raises(NotDivisible):
            div_h(a, k)
    else:
        assert_matches(div_h(a, k), want)


@settings(max_examples=150, deadline=None)
@given(series(), series(), series(), series_pair())
def test_equal_values_hash_equal(a, b, c, x):
    for u, v in (((a * b) * c, a * (b * c)), ((a + b) + c, a + (b + c)),
                 (a * (b + c), a * b + a * c), (a - a, HSeries.zero(3))):
        assert u == v and hash(u) == hash(v)
    # the same content known to a further order
    s = x[0]
    longer = HSeries(s.v_min, s.order + 3,
                     [s.coeff_at(k) for k in range(s.v_min, s.order + 1)])
    assert longer == s and hash(longer) == hash(s)


# -- fast paths of the coefficient kernel -------------------------------------
#
# __mul__ builds single-numerator results and exact-1 products without the
# generic _make path, and hsum (which __add__ calls with two summands) sums
# a list in one pass.  Each must give what the generic path gives, field
# for field.

def fields(s):
    return (s.v_min, s.order, s.coeffs, s.den)


def generic_mul(a, b):
    """The full convolution, canonicalised by _make."""
    order = min(a.order + b.v_min, b.order + a.v_min)
    if not a.coeffs or not b.coeffs:
        return _make(order + 1, order, [], 1)
    acc = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            acc[i + j] += x * y
    return _make(a.v_min + b.v_min, order, acc, a.den * b.den)


def generic_add(a, b):
    """Both summands over den_a * den_b, added and canonicalised by _make."""
    order = min(a.order, b.order)
    live = [s for s in (a, b) if s.coeffs]
    if not live:
        return _make(order + 1, order, [], 1)
    lo = min(s.v_min for s in live)
    acc = [0] * (max(s.v_min + len(s.coeffs) for s in live) - lo)
    den = a.den * b.den
    for s in live:
        for i, c in enumerate(s.coeffs, s.v_min - lo):
            acc[i] += c * (den // s.den)
    return _make(lo, order, acc, den)


@st.composite
def kernel_series(draw):
    """Series that reach every fast path: exact 1s known to low and high
    orders, single numerators over mixed denominators, and zeros."""
    kind = draw(st.sampled_from(["one", "single", "window", "zero"]))
    order = draw(st.integers(-2, 9))
    if kind == "one":
        return HSeries.one(order)
    if kind == "zero":
        return HSeries.zero(order)
    v = draw(st.integers(0, 6))
    if kind == "single":
        q = draw(rationals.filter(bool))
        return HSeries.h_power(v, max(order, v), q)
    coeffs = draw(st.lists(rationals, max_size=6))
    return HSeries(v, draw(st.integers(v - 2, v + 8)), coeffs)


@settings(max_examples=300, deadline=None)
@given(kernel_series(), kernel_series())
def test_fast_paths_match_the_generic_path(a, b):
    for got, want in ((a * b, generic_mul(a, b)), (b * a, generic_mul(b, a)),
                      (a + b, generic_add(a, b)), (b + a, generic_add(b, a)),
                      (a - b, generic_add(a, -b))):
        assert_canonical(got)
        assert fields(got) == fields(want)


def test_exact_one_returns_the_other_factor():
    a = HSeries(1, 6, [Fraction(1, 3), 2])
    # 1 known through h^5 or further: the product is a, order 6 included
    for one in (HSeries.one(5), HSeries.one(8)):
        assert a * one is a and one * a is a
    # 1 known only through h^4: the product stops at h^5
    cut = a * HSeries.one(4)
    assert cut.order == 5
    assert fields(cut) == fields(generic_mul(a, HSeries.one(4)))


@settings(max_examples=400, deadline=None)
@given(kernel_series(), kernel_series(),
       st.integers(-6, 16) | st.just(math.inf))
def test_mul_takes_its_cut(a, b, cut):
    # cuts below, between and above both factors' orders, and none at all
    got = mul(a, b, cut)
    assert_canonical(got)
    assert fields(got) == fields((a * b).truncate(cut))
    assert fields(got) == fields(generic_mul(a, b).truncate(cut))


@settings(max_examples=200, deadline=None)
@given(st.lists(kernel_series(), min_size=1, max_size=8))
def test_hsum_is_the_left_fold(terms):
    fold = terms[0]
    for t in terms[1:]:
        fold = generic_add(fold, t)
    got = hsum(terms)
    assert_canonical(got)
    assert fields(got) == fields(fold)


@settings(max_examples=100, deadline=None)
@given(st.lists(kernel_series(), min_size=1, max_size=5), st.randoms())
def test_hsum_cancelling_to_zero(terms, rnd):
    both = terms + [-t for t in terms]
    rnd.shuffle(both)
    got = hsum(both)
    assert got.is_zero() and got.v_min == got.order + 1
    assert got.order == min(t.order for t in terms)
    fold = both[0]
    for t in both[1:]:
        fold = generic_add(fold, t)
    assert fields(got) == fields(fold)


def test_hsum_summand_above_the_cut():
    # the second summand starts at h^5, above the sum's order 2, and adds
    # nothing; a slice of it bounded by the cut would have a negative bound
    terms = [HSeries(0, 2, [1, 1]), HSeries(5, 8, [1, 2, 3]),
             HSeries(1, 9, [Fraction(1, 2)])]
    fold = generic_add(generic_add(terms[0], terms[1]), terms[2])
    assert fields(hsum(terms)) == fields(fold) == (0, 2, (2, 3), 2)
    # alone above the cut, it leaves the zero at the cut
    assert fields(hsum([terms[1], HSeries.zero(3)])) == (4, 3, (), 1)
