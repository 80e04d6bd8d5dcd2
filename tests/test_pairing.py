import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from qdp.bundles import BUILTIN_NAMES, builtin
from qdp.errors import InputError
from qdp.exprs import parse_element
from qdp.hopf import (antipode, coproduct_monomial, counit, multiply,
                      normal_form)
from qdp.pairing import (PairingSeed, _first_letter_split,
                         _ideal_spanning_products, _reliable_order,
                         orthogonal_membership, pair, pairing_axioms_check)
from qdp.drinfeld import prime_membership, prime_presentation
from qdp.selftest import (DEFAULT_SEED, oracle_agreement, pairing_duality,
                          random_elements)
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
        with pytest.raises(AttributeError):
            borel2_bundle.pairing_seed.values = {}
        with pytest.raises(AttributeError):
            borel2_bundle.pairing_seed = None


def _cross_valued_seed() -> PairingSeed:
    """borel2 against its prime image with a cross value <x, Y> = 1, which
    is incompatible with the relation."""
    L = builtin("borel2", 6, 6).quea
    return PairingSeed(L, prime_presentation(L, 6),
                       {(0, 0): HSeries.one(6), (1, 1): HSeries.one(6),
                        (0, 1): HSeries.one(6)})


def _product(factors, R):
    """The factors multiplied left to right, from the unit."""
    acc = R.unit()
    for f in factors:
        acc = multiply(acc, f, R)
    return acc


class TestOrthogonalMembership:
    def test_spanning_products_match_folded_products(self):
        # the products, read off ordered monomials, are the products of
        # each factor combination in combinations_with_replacement order
        R = prime_presentation(builtin("borel2", 6, 6).quea, 3)
        h_unit = R.unit().scaled(HSeries.h_power(1, R.h_order))
        factors = [h_unit, R.gen("x"), R.gen("y")]
        for n in (4, 0, 1, 2, 3):
            want = [_product([factors[i] for i in combo], R)
                    for combo in itertools.combinations_with_replacement(
                        range(3), n)
                    if sum(1 for i in combo if i > 0) <= 3]
            assert list(_ideal_spanning_products(R, n)) == want

    def test_spanning_products_of_three_generators(self):
        # the same on three generators, with a degree cap of 2 below n = 3
        # and n = 4: a combination of more generators is left out
        R = prime_presentation(builtin("abelian3", 6, 6).quea, 2)
        factors = ([R.unit().scaled(HSeries.h_power(1, R.h_order))]
                   + [R.gen(g) for g in R.generators])
        for n in (4, 0, 1, 2, 3):
            want = [_product([factors[i] for i in combo], R)
                    for combo in itertools.combinations_with_replacement(
                        range(4), n)
                    if sum(1 for i in combo if i > 0) <= 2]
            assert list(_ideal_spanning_products(R, n)) == want

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


def test_oracle_refuses_a_seed_only_a_narrower_check_passes():
    # <x, X> = 1 + h^6 passes pairing-duality's degree-3 suite, read through
    # the window D - 3, but fails the oracle's own degree-2 suite; once the
    # degree-3 pass had marked the shared seed, the oracle trusted it
    real = builtin("borel2", 8, 8).pairing_seed
    values = dict(real.values)
    values[(0, 0)] = values[(0, 0)] + HSeries.h_power(6, 8)
    bent = real._replace(values=values)
    abelian1 = builtin("abelian1", 8, 8).pairing_seed
    with pytest.raises(InputError, match="not a Hopf pairing"):
        oracle_agreement(bent, random.Random(DEFAULT_SEED + 2))
    assert pairing_duality([abelian1, bent])[-1].passed   # degree-3 suite
    with pytest.raises(InputError, match="not a Hopf pairing"):
        oracle_agreement(bent, random.Random(DEFAULT_SEED + 2))


def test_pairing_duality_rejects_a_rescaled_seed():
    # <x, X> = 2 is still a Hopf pairing (x -> 2x is an automorphism of
    # abelian1), so the compatibility suite passes, but <x^m, y^n/n!> is
    # 2^m delta_mn: only the duality row can tell the seed is wrong
    real = builtin("abelian1", 8, 8).pairing_seed
    doubled = real._replace(values={(0, 0): HSeries.const(2, 8)})
    duality, *axioms = pairing_duality(
        [doubled, builtin("borel2", 8, 8).pairing_seed])
    assert not duality.passed
    assert duality.detail == f"failures: {[(m, m) for m in range(1, 6)]}"
    assert [r.subject.split(":")[0] for r in axioms] == ["abelian1", "borel2"]
    assert all(r.passed for r in axioms)


@pytest.mark.parametrize("D", [3, 4])
def test_pairing_duality_table_stops_at_the_degree_cap(D):
    # y^n above the degree cap is 0 on the right side, so the table runs to
    # min(5, D): at D=4 it failed on (5, 5), at D=3 on (4, 4) and (5, 5)
    duality = pairing_duality([builtin("abelian1", 8, D).pairing_seed,
                               builtin("borel2", 8, D).pairing_seed])[0]
    assert duality.passed, duality.detail
    assert duality.subject == (f"abelian1: <x^m, y^n/n!> == delta_mn for "
                               f"m,n <= {D} ({(D + 1) ** 2} values)")


def test_oracle_agreement_rejects_a_seed_that_pairs_nothing():
    # values={} pairs every generator to 0: the seed is a Hopf pairing, so
    # the oracle's own check passes, but it is degenerate and the pairing
    # route calls elements members that the deviation route refuses
    real = builtin("borel2", 8, 8).pairing_seed
    rows = oracle_agreement(real._replace(values={}),
                            random.Random(DEFAULT_SEED + 2))
    failed = [r for r in rows if not r.passed]
    assert len(rows) == 33 and len(failed) == 16
    assert all(r.detail.endswith("pairing route MemberUpToTruncation")
               for r in failed)


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


# -- the bilinear sum against the two loops it replaced ----------------------
#
# The reference model: <a, b> by its own loop, which multiplies every slot
# value in, over a rank-2 recursion that skips every zero slot value, even
# one known only below the seed's order.  Where every value is known to the
# seed's order, the two rules agree with the one sum field for field.


def _ref_pair_split(seed, left, right, memo):
    acc = HSeries.zero(seed.order)
    for (s1, s2), cs in left.items():
        for (t1, t2), ct in right.items():
            a = _ref_pair_mono(seed, s1, t1, memo)
            if a.is_zero():
                continue
            b = _ref_pair_mono(seed, s2, t2, memo)
            if b.is_zero():
                continue
            acc = acc + cs * ct * a * b
    return acc.truncate(seed.order)


def _ref_pair_mono(seed, lm, rm, memo):
    order = seed.order
    if lm.is_identity():
        return (HSeries.one(order) if rm.is_identity()
                else HSeries.zero(order))
    if rm.is_identity():
        return HSeries.zero(order)
    if lm.degree == 1 and rm.degree == 1:
        return seed.value(lm.exponents.index(1), rm.exponents.index(1))
    key = (lm, rm)
    if key not in memo:
        one = HSeries.one(order)
        if lm.degree >= 2:
            memo[key] = _ref_pair_split(
                seed, {_first_letter_split(lm): one},
                coproduct_monomial(seed.right, rm).terms, memo)
        else:
            memo[key] = _ref_pair_split(
                seed, coproduct_monomial(seed.left, lm).terms,
                {_first_letter_split(rm): one}, memo)
    return memo[key]


def _ref_pair(a, b, seed, memo):
    acc = HSeries.zero(seed.order)
    for (lm,), ca in a.terms.items():
        for (rm,), cb in b.terms.items():
            c = ca * cb
            if c.is_zero():
                continue
            acc = acc + c * _ref_pair_mono(seed, lm, rm, memo)
    return acc.truncate(seed.order)


def _fields(s: HSeries):
    return s.v_min, s.order, s.coeffs, s.den


def _random_pairs(seed, rng, count):
    lefts = random_elements(seed.left, rng, count, max_degree=3)
    rights = random_elements(seed.right, rng, count, max_degree=3)
    return list(zip(lefts, rights))


@pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES
                                  if builtin(n, 5, 5).pairing_seed])
def test_pair_matches_the_reference_on_builtin_seeds(name):
    # a built-in seed knows every value to its full order, where the two
    # old loops agreed: the one sum gives their values field for field
    seed = builtin(name, 5, 5).pairing_seed
    rng = random.Random(f"pair:{name}")
    memo, ref_memo = {}, {}
    for a, b in _random_pairs(seed, rng, 20):
        got = pair(a, b, seed, memo)
        want = _ref_pair(a, b, seed, ref_memo)
        assert _fields(got) == _fields(want), (a, b)


def _low_order_seed(rng: random.Random) -> PairingSeed:
    """A random seed between a built-in and its prime image at N, D in 2..6,
    some values known below N and 15% of those zero."""
    name = rng.choice(["borel2", "abelian1", "abelian2", "heisenberg3"])
    N, D = rng.randint(2, 6), rng.randint(2, 6)
    L = builtin(name, N, D).quea
    k = len(L.generators)
    values = {}
    for i, j in itertools.product(range(k), repeat=2):
        known = rng.choice([N, N, rng.randint(0, N - 1)])
        if known < N and rng.random() < 0.15:
            values[(i, j)] = HSeries.zero(known)
        else:
            values[(i, j)] = HSeries(0, known, [
                Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for _ in range(rng.randint(1, 2))])
    return PairingSeed(L, prime_presentation(L, D), values)


def test_pair_on_low_order_seeds_loses_only_order():
    # where a slot value is a zero known below the seed's order, the old
    # rank-2 sum skipped it and claimed the full order; the one sum keeps
    # what the values know: its coefficients are the reference's through
    # its own order, which is never higher
    rng = random.Random(1909)
    lowered = 0
    for _ in range(40):
        seed = _low_order_seed(rng)
        memo, ref_memo = {}, {}
        for a, b in _random_pairs(seed, rng, 4):
            got = pair(a, b, seed, memo)
            want = _ref_pair(a, b, seed, ref_memo)
            assert got.order <= want.order, (a, b)
            assert got == want.truncate(got.order), (a, b)
            lowered += got.order < want.order
    assert lowered


def test_pair_of_a_low_order_zero_is_known_to_that_order():
    # <x, Y> = <y, X> = 0 known to h^2 only: <y*x, y^2> is 0 through h^2,
    # which is all its slot values know; the old rank-2 sum claimed h^4
    L = builtin("borel2", 4, 4).quea
    R = prime_presentation(L, 4)
    seed = PairingSeed(L, R, {(0, 0): HSeries.one(4), (1, 1): HSeries.one(4),
                              (0, 1): HSeries.zero(2),
                              (1, 0): HSeries.zero(2)})
    a, b = parse_element("y*x", L), parse_element("y^2", R)
    got = pair(a, b, seed)
    assert got.is_zero() and got.order == 2
    want = _ref_pair(a, b, seed, {})
    assert want.is_zero() and want.order == 4
