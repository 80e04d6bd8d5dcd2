import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from qdp.bundles import builtin
from qdp.errors import InputError
from qdp.exprs import parse_element
from qdp.freealg import Element
from qdp.hopf import antipode, counit, multiply, multiply_all, normal_form
from qdp.pairing import (PairingSeed, _ideal_spanning_products,
                         _reliable_order, orthogonal_membership, pair,
                         pairing_axioms_check)
from qdp.drinfeld import prime_membership, prime_presentation
from qdp.series import HSeries


@pytest.fixture(scope="module")
def borel2_bundle():
    b = builtin("borel2", 8, 8)
    if not b.pairing_seed.validated:
        pairing_axioms_check(b.pairing_seed, 3)
    return b


@pytest.fixture(scope="module")
def abelian1_bundle():
    b = builtin("abelian1", 8, 8)
    if not b.pairing_seed.validated:
        pairing_axioms_check(b.pairing_seed, 3)
    return b


class TestEvaluation:
    def test_left_unit_rule(self, borel2_bundle):
        seed = borel2_bundle.pairing_seed
        L, R = seed.left, seed.right
        for g in R.generators:
            v = pair(L.unit(), R.gen(g), seed)
            assert v == counit(R.gen(g), R)
        b = R.unit(5) + R.gen("x")
        assert pair(L.unit(), b, seed) == HSeries.const(5, 8)

    def test_right_unit_rule(self, borel2_bundle):
        seed = borel2_bundle.pairing_seed
        L, R = seed.left, seed.right
        a = L.unit(2) + L.gen("y")
        assert pair(a, R.unit(), seed) == HSeries.const(2, 8)

    def test_dual_basis_values(self, abelian1_bundle):
        seed = abelian1_bundle.pairing_seed
        L, R = seed.left, seed.right
        memo = {}
        for m in range(6):
            for n in range(6):
                xm = normal_form((0,) * m, L)
                yn = normal_form((0,) * n, R).scaled(
                    Fraction(1, factorial(n)))
                got = pair(xm, yn, seed, memo)
                want = HSeries.one(8) if m == n else HSeries.zero(8)
                assert got == want, (m, n, got)

    def test_antipode_identity_on_monomials(self, borel2_bundle):
        seed = borel2_bundle.pairing_seed
        L, R = seed.left, seed.right
        rng = random.Random(17)
        lmonos = L.monomials_up_to(3)
        rmonos = R.monomials_up_to(3)
        memo = {}
        from qdp.freealg import Element
        for _ in range(25):
            u = Element.from_monomial(L.name,
                                      lmonos[rng.randrange(len(lmonos))],
                                      HSeries.one(8))
            v = Element.from_monomial(R.name,
                                      rmonos[rng.randrange(len(rmonos))],
                                      HSeries.one(8))
            lhs = pair(antipode(u, L), v, seed, memo).truncate(5)
            rhs = pair(u, antipode(v, R), seed, memo).truncate(5)
            assert lhs == rhs


class TestAxioms:
    def test_abelian1_passes(self, abelian1_bundle):
        rep = pairing_axioms_check(abelian1_bundle.pairing_seed, 3)
        assert rep.passed
        assert abelian1_bundle.pairing_seed.validated

    def test_borel2_passes(self, borel2_bundle):
        rep = pairing_axioms_check(borel2_bundle.pairing_seed, 3)
        assert rep.passed

    def test_broken_seed_detected(self):
        # a cross value <x, Y> = 1 is incompatible with the relation
        b = builtin("borel2", 6, 6)
        L = b.quea
        R = prime_presentation(L, 6)
        seed = PairingSeed(L, R, {(0, 0): HSeries.one(6),
                                  (1, 1): HSeries.one(6),
                                  (0, 1): HSeries.one(6)})
        rep = pairing_axioms_check(seed, 2)
        assert not rep.passed
        assert not seed.validated

    def test_negative_degree_bound_is_input_error(self):
        # a bound of -1 checked zero monomial rows and validated the seed
        b = builtin("borel2", 6, 6)
        seed = PairingSeed(b.quea, prime_presentation(b.quea, 6),
                           {(0, 0): HSeries.one(6), (1, 1): HSeries.one(6)})
        with pytest.raises(InputError, match="degree bound -1"):
            pairing_axioms_check(seed, -1)
        assert not seed.validated


class TestOrthogonalMembership:
    def test_spanning_products_match_multiply_all(self):
        # the cached products, built level by level, are the products of
        # each factor combination in combinations_with_replacement order
        R = prime_presentation(builtin("borel2", 6, 6).quea, 3)
        h_unit = R.unit().scaled(HSeries.h_power(1, R.h_order))
        factors = [h_unit, R.gen("x"), R.gen("y")]
        for n in (4, 0, 1, 2, 3):
            want = [multiply_all([factors[i] for i in combo], R)
                    for combo in itertools.combinations_with_replacement(
                        range(3), n)
                    if sum(1 for i in combo if i > 0) <= 3]
            assert list(_ideal_spanning_products(R, n)) == want

    def test_requires_validation(self):
        b = builtin("borel2", 6, 6)
        seed = PairingSeed(b.quea, prime_presentation(b.quea, 6),
                           {(0, 0): HSeries.one(6), (1, 1): HSeries.one(6)})
        with pytest.raises(InputError):
            orthogonal_membership(b.quea.gen("x"), seed)

    def test_examples(self, borel2_bundle):
        seed = borel2_bundle.pairing_seed
        P = seed.left
        h = HSeries.h_power(1, 8)
        assert orthogonal_membership(P.gen("x").scaled(h), seed).is_member
        assert not orthogonal_membership(P.gen("y"), seed).is_member
        assert orthogonal_membership(P.unit(), seed).is_member

    def test_agreement_with_deviation_route(self, borel2_bundle):
        seed = borel2_bundle.pairing_seed
        P = seed.left
        h = HSeries.h_power(1, 8)
        batch = [P.gen("x"), P.gen("y"), P.gen("x").scaled(h),
                 P.gen("y").scaled(h), P.unit(),
                 multiply(P.gen("x"), P.gen("y"), P),
                 multiply(P.gen("x"), P.gen("y"), P).scaled(h).scaled(h),
                 P.gen("x") + P.gen("y").scaled(h)]
        for a in batch:
            assert (prime_membership(a, P).is_member
                    == orthogonal_membership(a, seed).is_member)


def _pairing_certificate(src, D):
    seed = builtin("borel2", 8, D).pairing_seed
    if not seed.validated:
        pairing_axioms_check(seed, 2)
    return orthogonal_membership(parse_element(src, seed.left), seed)


class TestTruncationStability:
    def test_pairing_verdicts_stable_from_degree_3_to_8(self):
        # an "up to truncation" verdict must not change when D is raised;
        # nine of these were members at D=3 and D=4 (three more at D=2) on
        # a reliable window too narrow to see their witness, and are input
        # errors now
        monos = ["x", "y", "x*y", "y^2", "x^2", "x*y^2", "x^2*y", "y^3"]
        elements = [f"h^{k}*{m}" for k in range(4) for m in monos]
        want = {src: _pairing_certificate(src, 8) for src in elements}
        refused = 0
        for D in range(3, 8):
            for src in elements:
                try:
                    c = _pairing_certificate(src, D)
                except InputError as e:
                    assert "degree cap" in str(e)
                    refused += 1
                    continue
                assert (c.verdict, c.witness) == (want[src].verdict,
                                                  want[src].witness), (src, D)
        # degree 3 needs D >= 5: 12 elements at D=3 and D=4
        assert refused == 24

    def test_pairing_values_agree_inside_the_reliable_window(self):
        # <u, v> read through _reliable_order must not move when the right
        # side's degree cap is raised from 8 to 10
        low = builtin("borel2", 8, 8).pairing_seed
        high = builtin("borel2", 8, 10).pairing_seed
        memo_low, memo_high = {}, {}
        pairs = nonzero = 0
        for u in low.left.monomials_up_to(3):
            w = _reliable_order(low, u.degree)
            assert w == min(8, 8 - u.degree)
            a_low = Element.from_monomial(low.left.name, u, HSeries.one(8))
            a_high = Element.from_monomial(high.left.name, u, HSeries.one(8))
            for v in low.right.monomials_up_to(8):
                got = pair(a_low, Element.from_monomial(
                    low.right.name, v, HSeries.one(8)), low, memo_low)
                want = pair(a_high, Element.from_monomial(
                    high.right.name, v, HSeries.one(8)), high, memo_high)
                assert got.truncate(w) == want.truncate(w), (u, v)
                pairs += 1
                nonzero += not got.truncate(w).is_zero()
        assert (pairs, nonzero) == (450, 48)
