import math
import random
from fractions import Fraction

import pytest

from qdp.bundles import builtin
from qdp.errors import MixedPresentations
from qdp.freealg import Monomial, TensorElement, add_into
from qdp.hopf import multiply
from qdp.manifest import tensor_from_jsonable, tensor_to_jsonable
from qdp.selftest import random_elements
from qdp.series import HSeries

from support import element, from_monomial, series_from_map


def H(terms, order=8):
    return series_from_map(terms, order)


def i_degree(a):
    """Min over terms of (coefficient valuation + monomial degree)."""
    return min((c.valuation() + m.degree for (m,), c in a.terms.items()),
               default=math.inf)


@pytest.fixture(scope="module")
def borel2():
    return builtin("borel2", 8, 8).quea


class TestMonomial:
    def test_word_roundtrip(self):
        m = Monomial((2, 0, 1))
        assert m.word() == (0, 0, 2)
        assert Monomial.from_word(m.word(), 3) == m

    def test_degree_cached(self):
        assert Monomial((1, 3)).degree == 4

    def test_deglex(self):
        def key(e):
            return Monomial(e).deglex_key()
        assert key((0, 2)) < key((1, 1)) < key((2, 0))
        assert key((2, 0)) < key((0, 3))

    def test_interned(self):
        assert Monomial((1, 0)) is Monomial.from_word((0,), 2)
        assert Monomial([0, 1]) is Monomial.generator(1, 2)
        assert Monomial((0, 0)) is Monomial.identity(2)
        assert Monomial((1, 0)).merged(Monomial((1, 2))) is Monomial((2, 2))

    def test_equal_vectors_hash_equal_across_presentations(self):
        # tuple, list, word, generator and merged presentations of x*y^2
        forms = [Monomial((1, 2)), Monomial([1, 2]),
                 Monomial.from_word((0, 1, 1), 2),
                 Monomial.generator(0, 2).merged(Monomial((0, 2)))]
        assert len({hash(m) for m in forms}) == 1
        assert all(m == forms[0] for m in forms)
        table = {(forms[0], Monomial((0, 1))): 1}
        assert all(table[(m, Monomial.generator(1, 2))] == 1 for m in forms)
        assert Monomial((1, 2)) != Monomial((2, 1))

    def test_deglex_sorting_unchanged(self):
        monos = builtin("heisenberg3", 4, 4).quea.monomials_up_to(3)
        shuffled = list(monos)
        random.Random(5).shuffle(shuffled)
        assert sorted(shuffled, key=Monomial.deglex_key) == monos
        assert monos == sorted(monos, key=lambda m: (sum(m.exponents),
                                                     m.exponents))
        assert [m.exponents for m in sorted(
            (Monomial(e) for e in ((2, 0), (0, 1), (1, 1), (0, 0), (0, 2),
                                   (1, 0))), key=Monomial.deglex_key)] == [
            (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


class TestCombine:
    # Linear combinations are built from scaled() and +.
    def test_cancellation(self, borel2):
        x = borel2.gen("x")
        out = x.scaled(HSeries.one(8)) + x.scaled(HSeries.const(-1, 8))
        assert out.is_zero()

    def test_two_generators(self, borel2):
        h = HSeries.h_power(1, 8)
        out = borel2.gen("x").scaled(h) + borel2.gen("y").scaled(h)
        assert out.terms[(Monomial((1, 0)),)] == h
        assert out.terms[(Monomial((0, 1)),)] == h

    def test_mixed_presentations(self, borel2):
        other = builtin("abelian2", 8, 8).quea
        with pytest.raises(MixedPresentations):
            borel2.gen("x") + other.gen("x1")
        one = Monomial.identity(2)
        t1 = TensorElement(borel2.name, 1, {(one,): HSeries.one(8)})
        t2 = TensorElement(borel2.name, 2, {(one, one): HSeries.one(8)})
        with pytest.raises(MixedPresentations):
            t1 - t2
        # an element is the rank-1 tensor
        assert t1 != t2 and t1 == borel2.unit()

    def test_add_into_defers_the_sum(self):
        # colliding coefficients are collected in arrival order and summed
        # once, to the eager left fold field for field; every key keeps its
        # first-insertion position, and a sum that cancels is a zero that a
        # TensorElement drops
        a, b, c = Monomial((1, 0)), Monomial((0, 1)), Monomial((1, 1))
        s0 = HSeries(0, 5, [1, 2])
        s1 = HSeries(1, 4, [Fraction(1, 3)])
        s2 = HSeries(0, 6, [Fraction(1, 2), 0, -1, -2])
        acc = {}
        for key, coeff in ((a, s0), (b, s1), (a, s1), (c, s0), (a, s2),
                           (c, -s0)):
            add_into(acc, key, coeff)
        assert acc[a] == [s0, s1, s2] and acc[b] is s1
        elem = TensorElement("p", 1, acc)
        assert list(elem.terms) == [a, b]
        fold = (s0 + s1) + s2
        got = elem.terms[a]
        assert (got.v_min, got.order, got.coeffs, got.den) == \
            (fold.v_min, fold.order, fold.coeffs, fold.den)


class TestValuations:
    def test_h_valuation(self, borel2):
        a = element(borel2.name, {
            Monomial((1, 0)): HSeries.h_power(1, 8),
            Monomial((0, 1)): HSeries.h_power(2, 8)})
        assert a.h_valuation() == 1

    def test_zero_valuation(self, borel2):
        assert borel2.zero().h_valuation() == math.inf

    def test_generator_valuation(self, borel2):
        assert borel2.gen("x").h_valuation() == 0

    def test_i_degree(self, borel2):
        a = borel2.gen("x").scaled(HSeries.h_power(1, 8))
        assert i_degree(a) == 2
        assert i_degree(borel2.unit()) == 0
        mixed = borel2.unit().scaled(HSeries.h_power(2, 8)) \
            + multiply(borel2.gen("x"), borel2.gen("y"), borel2)
        assert i_degree(mixed) == 2

    def test_h_scaling_raises_valuation(self, borel2):
        rng = random.Random(5)
        h = HSeries.h_power(1, borel2.h_order)
        for a in random_elements(borel2, rng, 10):
            scaled = a.scaled(h)
            if scaled.is_zero():
                continue
            assert scaled.h_valuation() == 1 + a.h_valuation()

    def test_tensor_valuation(self, borel2):
        t = TensorElement(borel2.name, 2, {
            (Monomial((1, 0)), Monomial((0, 1))): HSeries.h_power(1, 8)})
        assert t.h_valuation() == 1
        assert TensorElement.zero(borel2.name, 2).h_valuation() == math.inf


class TestTruncate:
    def test_drops_high_h(self, borel2):
        a = borel2.gen("x") + borel2.gen("y").scaled(HSeries.h_power(9, 12))
        assert a.truncate(8) == borel2.gen("x")

    def test_degree_cap(self, borel2):
        big = from_monomial(borel2.name, Monomial((9, 0)), HSeries.one(8))
        assert big.truncate(8, 8).is_zero()

    def test_degree_cap_reads_every_slot(self, borel2):
        # a tensor key is dropped when any of its monomials exceeds the cap
        x, y9 = Monomial((1, 0)), Monomial((0, 9))
        one = HSeries.one(8)
        t = TensorElement(borel2.name, 2, {(x, x): one, (x, y9): one,
                                           (y9, x): one})
        assert t.truncate(8, 8).terms == {(x, x): one}

    def test_idempotent(self, borel2):
        rng = random.Random(6)
        for a in random_elements(borel2, rng, 10):
            once = a.truncate(4, 3)
            assert once.truncate(4, 3) == once


class TestFilteredProduct:
    # The representation-based degree is filtered exactly when relation
    # corrections carry h (commutative-mod-h presentations); that is the
    # setting the degree models.
    @pytest.mark.parametrize("name", ["abelian3", "borel2", "heisenberg3"])
    def test_i_degree_superadditive(self, name):
        from qdp.drinfeld import prime_presentation
        P = prime_presentation(builtin(name, 6, 6).quea, 6)
        rng = random.Random(7)
        pairs = zip(random_elements(P, rng, 12),
                    random_elements(P, rng, 12))
        for a, b in pairs:
            p = multiply(a, b, P)
            if p.is_zero():
                continue
            assert i_degree(p) >= i_degree(a) + i_degree(b)


class TestSerialization:
    def test_element_roundtrip(self, borel2):
        rng = random.Random(8)
        for a in random_elements(borel2, rng, 10):
            data = tensor_to_jsonable(a)
            back = tensor_from_jsonable(data, borel2.name, 1, borel2.ngens,
                                        borel2.h_order)
            assert back == a

    def test_coefficient_strings(self, borel2):
        a = borel2.gen("x").scaled(HSeries.const(Fraction(-3, 7), 8))
        data = tensor_to_jsonable(a)
        assert data[0]["coeff"]["coeffs"] == ["-3/7"]
