import dataclasses
import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from qdp.bundles import builtin
from qdp.errors import InputError
from qdp.exprs import parse_element
from qdp.hopf import antipode, counit, multiply, multiply_all, normal_form
from qdp.pairing import (PairingSeed, _ideal_spanning_products,
                         _reliable_order, orthogonal_membership, pair,
                         pairing_axioms_check)
from qdp.drinfeld import prime_membership, prime_presentation
from qdp.selftest import RunConfig, oracle_agreement, pairing_duality
from qdp.series import HSeries

from support import from_monomial


@pytest.fixture(scope="module")
def borel2_bundle():
    return builtin("borel2", 8, 8)


@pytest.fixture(scope="module")
def abelian1_bundle():
    return builtin("abelian1", 8, 8)


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
        for _ in range(25):
            u = from_monomial(L.name, lmonos[rng.randrange(len(lmonos))],
                              HSeries.one(8))
            v = from_monomial(R.name, rmonos[rng.randrange(len(rmonos))],
                              HSeries.one(8))
            lhs = pair(antipode(u, L), v, seed, memo).truncate(5)
            rhs = pair(u, antipode(v, R), seed, memo).truncate(5)
            assert lhs == rhs


class TestAxioms:
    def test_abelian1_passes(self, abelian1_bundle):
        rep = pairing_axioms_check(abelian1_bundle.pairing_seed, 3)
        assert rep.passed

    def test_borel2_passes(self, borel2_bundle):
        rep = pairing_axioms_check(borel2_bundle.pairing_seed, 3)
        assert rep.passed

    def test_broken_seed_detected(self):
        rep = pairing_axioms_check(_cross_valued_seed(), 2)
        assert not rep.passed

    def test_negative_degree_bound_is_input_error(self):
        # a bound of -1 checked zero monomial rows and passed
        b = builtin("borel2", 6, 6)
        seed = PairingSeed(b.quea, prime_presentation(b.quea, 6),
                           {(0, 0): HSeries.one(6), (1, 1): HSeries.one(6)})
        with pytest.raises(InputError, match="degree bound -1"):
            pairing_axioms_check(seed, -1)

    def test_shared_bundle_and_seed_are_frozen(self, borel2_bundle):
        # builtin() shares its bundles, so no check may leave state on them
        with pytest.raises(dataclasses.FrozenInstanceError):
            borel2_bundle.pairing_seed.values = {}
        with pytest.raises(dataclasses.FrozenInstanceError):
            borel2_bundle.pairing_seed = None


def _cross_valued_seed() -> PairingSeed:
    """borel2 against its prime image with a cross value <x, Y> = 1, which
    is incompatible with the relation."""
    L = builtin("borel2", 6, 6).quea
    return PairingSeed(L, prime_presentation(L, 6),
                       {(0, 0): HSeries.one(6), (1, 1): HSeries.one(6),
                        (0, 1): HSeries.one(6)})


class TestOrthogonalMembership:
    def test_spanning_products_match_multiply_all(self):
        # the cached products, built level by level, are the products of
        # each factor combination in combinations_with_replacement order
        R = prime_presentation(builtin("borel2", 6, 6).quea, 3)
        h_unit = R.unit().scaled(HSeries.h_power(1, R.h_order))
        factors = [h_unit, R.gen("x"), R.gen("y")]
        levels = []
        for n in (4, 0, 1, 2, 3):
            want = [multiply_all([factors[i] for i in combo], R)
                    for combo in itertools.combinations_with_replacement(
                        range(3), n)
                    if sum(1 for i in combo if i > 0) <= 3]
            assert list(_ideal_spanning_products(R, n, levels)) == want

    def test_refuses_a_seed_that_is_not_a_pairing(self):
        # the oracle checks its seed itself: the cross-valued seed fails
        # its compatibility suite, and the first failing row is named
        seed = _cross_valued_seed()
        first = pairing_axioms_check(seed, 2).failures()[0]
        with pytest.raises(InputError, match="not a Hopf pairing") as err:
            orthogonal_membership([seed.left.gen("x")], seed)
        assert f"{first.check} fails at {first.subject}" in str(err.value)

    def test_examples(self, borel2_bundle):
        seed = borel2_bundle.pairing_seed
        P = seed.left
        h = HSeries.h_power(1, 8)
        certs = orthogonal_membership([P.gen("x").scaled(h), P.gen("y"),
                                       P.unit()], seed)
        assert [c.is_member for c in certs] == [True, False, True]

    def test_agreement_with_deviation_route(self, borel2_bundle):
        seed = borel2_bundle.pairing_seed
        P = seed.left
        h = HSeries.h_power(1, 8)
        batch = [P.gen("x"), P.gen("y"), P.gen("x").scaled(h),
                 P.gen("y").scaled(h), P.unit(),
                 multiply(P.gen("x"), P.gen("y"), P),
                 multiply(P.gen("x"), P.gen("y"), P).scaled(h).scaled(h),
                 P.gen("x") + P.gen("y").scaled(h)]
        certs = orthogonal_membership(batch, seed)
        for a, c in zip(batch, certs):
            assert prime_membership(a, P).is_member == c.is_member


def test_oracle_agreement_does_not_depend_on_criterion_order():
    # the oracle checked its seed only while no flag said a check had
    # passed, and pairing-duality's degree-3 check set that flag on the
    # shared bundle; the rows must not depend on what ran before
    cfg = RunConfig()
    builtin.cache_clear()
    alone = oracle_agreement(cfg)
    builtin.cache_clear()
    pairing_duality(cfg)
    after_duality = oracle_agreement(cfg)
    assert alone == after_duality
    assert all(r.passed for r in alone) and len(alone) == 33


def test_oracle_refuses_a_seed_only_a_narrower_check_passes(monkeypatch):
    # <x, X> = 1 + h^6 passes pairing-duality's degree-3 suite, read through
    # the window D - 3, but fails the oracle's own degree-2 suite; once the
    # degree-3 pass had marked the shared seed, the oracle trusted it
    real = builtin("borel2", 8, 8)
    values = dict(real.pairing_seed.values)
    values[(0, 0)] = values[(0, 0)] + HSeries.h_power(6, 8)
    bent = dataclasses.replace(real, pairing_seed=dataclasses.replace(
        real.pairing_seed, values=values))
    monkeypatch.setattr("qdp.selftest.builtin", lambda name, *orders: (
        bent if name == "borel2" else builtin(name, *orders)))
    cfg = RunConfig()
    with pytest.raises(InputError, match="not a Hopf pairing"):
        oracle_agreement(cfg)
    assert pairing_duality(cfg)[-1].passed   # borel2's degree-3 suite
    with pytest.raises(InputError, match="not a Hopf pairing"):
        oracle_agreement(cfg)


def test_pairing_duality_rejects_a_rescaled_seed(monkeypatch):
    # <x, X> = 2 is still a Hopf pairing (x -> 2x is an automorphism of
    # abelian1), so the compatibility suite passes, but <x^m, y^n/n!> is
    # 2^m delta_mn: only the duality row can tell the seed is wrong
    real = builtin("abelian1", 8, 8)
    doubled = dataclasses.replace(real, pairing_seed=dataclasses.replace(
        real.pairing_seed, values={(0, 0): HSeries.const(2, 8)}))
    monkeypatch.setattr("qdp.selftest.builtin", lambda name, *orders: (
        doubled if name == "abelian1" else builtin(name, *orders)))
    duality, *axioms = pairing_duality(RunConfig())
    assert not duality.passed
    assert duality.detail == f"failures: {[(m, m) for m in range(1, 6)]}"
    assert [r.subject.split(":")[0] for r in axioms] == ["abelian1", "borel2"]
    assert all(r.passed for r in axioms)


def _pairing_certificates(sources, D):
    seed = builtin("borel2", 8, D).pairing_seed
    return orthogonal_membership(
        [parse_element(src, seed.left) for src in sources], seed)


class TestTruncationStability:
    def test_pairing_verdicts_stable_from_degree_3_to_8(self):
        # an "up to truncation" verdict must not change when D is raised;
        # nine of these were members at D=3 and D=4 (three more at D=2) on
        # a reliable window too narrow to see their witness, and are input
        # errors now.  The degree cap's rule depends on the degree alone,
        # so each oracle call takes the candidates of one degree.
        by_degree = [[f"h^{k}*{m}" for k in range(4) for m in monos]
                     for monos in (["x", "y"], ["x*y", "y^2", "x^2"],
                                   ["x*y^2", "x^2*y", "y^3"])]
        elements = [src for group in by_degree for src in group]
        want = dict(zip(elements, _pairing_certificates(elements, 8)))
        refused = 0
        for D in range(3, 8):
            for group in by_degree:
                try:
                    certs = _pairing_certificates(group, D)
                except InputError as e:
                    assert "degree cap" in str(e)
                    refused += len(group)
                    continue
                for src, c in zip(group, certs):
                    assert (c.verdict, c.witness) == (
                        want[src].verdict, want[src].witness), (src, D)
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
            a_low = from_monomial(low.left.name, u, HSeries.one(8))
            a_high = from_monomial(high.left.name, u, HSeries.one(8))
            for v in low.right.monomials_up_to(8):
                got = pair(a_low, from_monomial(
                    low.right.name, v, HSeries.one(8)), low, memo_low)
                want = pair(a_high, from_monomial(
                    high.right.name, v, HSeries.one(8)), high, memo_high)
                assert got.truncate(w) == want.truncate(w), (u, v)
                pairs += 1
                nonzero += not got.truncate(w).is_zero()
        assert (pairs, nonzero) == (450, 48)
