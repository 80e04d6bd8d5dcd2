import importlib.util
import math
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from qdp.bundles import BUILTIN_NAMES, builtin
from qdp.drinfeld import (GaugeMap, PRIME_THEN_VEE, VEE_THEN_PRIME,
                          gauge_preservation_check, prime_membership,
                          prime_presentation, roundtrip_check,
                          vee_presentation)
from qdp.errors import (NotAHopfMap, NotDivisible, PresentationError)
from qdp.exprs import parse_element
from qdp.freealg import Monomial, TensorElement
from qdp.hopf import POLY, SERIES, Presentation, multiply
from qdp.report import CheckRow
from qdp.series import HSeries

from support import from_monomial


@pytest.fixture(scope="module")
def borel2():
    return builtin("borel2", 8, 8).quea


def h(order=8, k=1):
    return HSeries.h_power(k, order)


class TestMembership:
    def test_rescaled_generators_are_members(self, borel2):
        for g in ("x", "y"):
            cert = prime_membership(borel2.gen(g).scaled(h()), borel2)
            assert cert.is_member
            assert cert.witness is None

    def test_plain_y_is_not(self, borel2):
        cert = prime_membership(borel2.gen("y"), borel2)
        assert not cert.is_member
        assert cert.witness == 1            # delta_1(y) = y has valuation 0
        assert cert.valuation_at(2) == 1    # the classic depth-2 witness
        assert 2 in cert.failing_ns()

    def test_delta_valuations_of_scaled_y(self, borel2):
        cert = prime_membership(borel2.gen("y").scaled(h()), borel2)
        # delta_n(h*y) has valuation exactly n while visible at truncation
        for n, v in zip(cert.n_checked, cert.valuations):
            if 1 <= n and v != math.inf:
                assert v == n

    def test_unit_is_member(self, borel2):
        assert prime_membership(borel2.unit(), borel2).is_member

    def test_membership_closed_under_products(self):
        for name in BUILTIN_NAMES:
            P = builtin(name, 6, 6).quea
            members = [P.gen(g).scaled(h(6)) for g in P.generators]
            for a in members:
                for b in members:
                    assert prime_membership(a, P).is_member
                    assert prime_membership(
                        multiply(a, b, P), P).is_member

    def test_h_times_generators_across_builtins(self):
        for name in BUILTIN_NAMES:
            P = builtin(name, 6, 6).quea
            for g in P.generators:
                assert prime_membership(P.gen(g).scaled(h(6)), P).is_member

    def test_series_model_rejected(self, borel2):
        Q = prime_presentation(borel2, 8)
        with pytest.raises(PresentationError):
            prime_membership(Q.gen("x"), Q)


class TestPrimeTransform:
    def test_abelian(self):
        P = builtin("abelian2", 8, 8).quea
        Q = prime_presentation(P, 8)
        assert Q.model == SERIES
        assert Q.degree_cap == 8
        for r in Q.relations.values():
            assert r.is_zero()
        one = Monomial.identity(2)
        for i, g in enumerate(Q.generators):
            gm = Monomial.generator(i, 2)
            assert Q.coproduct_on_gens[g].terms == {
                (gm, one): HSeries.one(8), (one, gm): HSeries.one(8)}

    def test_borel2_relation(self, borel2):
        Q = prime_presentation(borel2, 8)
        r = Q.relations[(0, 1)]
        assert r.terms == {(Monomial((0, 1)),): HSeries.h_power(1, 8, -1)}

    def test_borel2_coproduct_coefficients(self, borel2):
        Q = prime_presentation(borel2, 8)
        dy = Q.coproduct_on_gens["y"]
        one = Monomial.identity(2)
        y = Monomial((0, 1))
        # every term X^k (x) Y carries exactly 1/k!, no h
        for k in range(0, 8):
            c = dy.terms[(Monomial((k, 0)), y)]
            assert c == HSeries.const(Fraction(1, factorial(k)), 8)
        assert dy.terms[(y, one)] == HSeries.one(8)

    def test_divisibility_failure_reported(self):
        # a coproduct term x (x) x with an h-free coefficient cannot be
        # rescaled: the division by h fails and is reported
        name = "notquea"
        one = HSeries.one(4)
        gm = Monomial((1,))
        idm = Monomial.identity(1)
        cop = {"x": TensorElement(name, 2, {(gm, idm): one, (idm, gm): one,
                                            (gm, gm): one})}
        ant = {"x": from_monomial(name, gm, HSeries.const(-1, 4))}
        P = Presentation(name, POLY, ["x"], 4, None, {}, cop,
                         {"x": HSeries.zero(4)}, ant)
        with pytest.raises(NotDivisible, match="coproduct of x"):
            prime_presentation(P, 4)


class TestVeeTransform:
    def test_primitive_series(self):
        Q = prime_presentation(builtin("abelian1", 8, 8).quea, 8)
        R = vee_presentation(Q)
        assert R.model == POLY
        one = Monomial.identity(1)
        gm = Monomial((1,))
        assert R.coproduct_on_gens["x"].terms == {
            (gm, one): HSeries.one(8), (one, gm): HSeries.one(8)}

    def test_prime_borel2_relation_comes_back(self, borel2):
        Q = prime_presentation(borel2, 8)
        R = vee_presentation(Q)
        assert R.relations[(0, 1)].terms == {
            (Monomial((0, 1)),): HSeries.const(-1, 8)}

    def test_noncommutative_mod_h_is_not_divisible(self):
        name = "notqfsha"
        one = HSeries.one(4)
        gens = ["a", "b"]
        cop, eps, ant = {}, {}, {}
        for i, g in enumerate(gens):
            gm = Monomial.generator(i, 2)
            idm = Monomial.identity(2)
            cop[g] = TensorElement(name, 2, {(gm, idm): one, (idm, gm): one})
            eps[g] = HSeries.zero(4)
            ant[g] = from_monomial(name, gm, HSeries.const(-1, 4))
        rel = from_monomial(name, Monomial((0, 1)),
                            HSeries.const(-1, 4))
        P = Presentation(name, SERIES, gens, 4, 4, {(0, 1): rel}, cop, eps,
                         ant)
        # the report names what failed: the relation and its term
        with pytest.raises(NotDivisible,
                           match=r"relation b\*a: term \[\(0, 1\)\]"):
            vee_presentation(P)

    def test_poly_input_rejected(self, borel2):
        with pytest.raises(PresentationError):
            vee_presentation(borel2)


class TestRoundTrips:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_prime_then_vee(self, name):
        P = builtin(name, 8, 8).quea
        rep = roundtrip_check(P, PRIME_THEN_VEE, 8)
        assert rep.passed, rep.failures()

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_vee_then_prime(self, name):
        Q = prime_presentation(builtin(name, 8, 8).quea, 8)
        rep = roundtrip_check(Q, VEE_THEN_PRIME)
        assert rep.passed, rep.failures()

    def test_unknown_direction(self, borel2):
        with pytest.raises(ValueError):
            roundtrip_check(borel2, "sideways")


class TestGauge:
    def test_abelian2_shear(self):
        P = builtin("abelian2", 8, 8).quea
        phi = GaugeMap.make(P, {"x1": P.gen("x1") + P.gen("x2").scaled(h()),
                                "x2": P.gen("x2")})
        rep = gauge_preservation_check(P, phi)
        assert rep.passed, rep.failures()
        assert any(r.check == "delta-commutes-with-gauge" for r in rep.rows)
        assert any(r.check == "membership-preserved" for r in rep.rows)

    def test_identity_gauge(self, borel2):
        rep = gauge_preservation_check(borel2, GaugeMap.identity(borel2))
        assert rep.passed

    def test_borel2_shear_is_not_hopf(self, borel2):
        phi = GaugeMap.make(borel2,
                            {"x": borel2.gen("x") + borel2.gen("y").scaled(h()),
                             "y": borel2.gen("y")})
        with pytest.raises(NotAHopfMap) as exc:
            gauge_preservation_check(borel2, phi)
        assert exc.value.report is not None
        assert not exc.value.report.passed

    def test_images_must_be_identity_mod_h(self, borel2):
        with pytest.raises(PresentationError):
            GaugeMap.make(borel2, {"x": borel2.gen("y"),
                                   "y": borel2.gen("y")})

    def test_all_generators_required(self, borel2):
        with pytest.raises(PresentationError):
            GaugeMap.make(borel2, {"x": borel2.gen("x")})


class TestCertificateSerialization:
    def test_jsonable(self, borel2):
        cert = prime_membership(borel2.gen("y"), borel2, n_max=3)
        data = cert.to_jsonable()
        assert data["verdict"] == "NotMember"
        assert data["witness"] == 1
        assert data["n_checked"] == [0, 1, 2, 3]
        assert data["valuations"][0] is None  # +inf encodes as null

    def test_records_compare_by_content(self, borel2):
        # tests compare certificates and rows by value, not by identity
        fresh = builtin("borel2", 7, 7).quea
        y = prime_membership(borel2.gen("y"), borel2, n_max=3)
        assert y == prime_membership(fresh.gen("y"), fresh, n_max=3)
        assert y != prime_membership(borel2.gen("x"), borel2, n_max=3)
        assert y != prime_membership(borel2.gen("y"), borel2, n_max=2)
        row = CheckRow("coproduct", "y", False, "leading term y")
        assert row == CheckRow("coproduct", "y", False, "leading term y")
        assert row != CheckRow("coproduct", "y", False, "leading term x")
        assert row != CheckRow("coproduct", "y", True, "leading term y")


def _member_delta_catalogue() -> list[str]:
    """The benchmark's member-delta elements (bench/workloads.py)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.all_member_elements("member-delta")


class TestTruncationStability:
    def test_delta_verdicts_stable_from_order_7_to_14(self):
        # an "up to truncation" verdict must not change when N is doubled;
        # one presentation per order, so later certificates reuse and widen
        # the windowed deviations cached by earlier ones.  A valuation
        # beyond h^7 reads inf at N = 7 and may show at N = 14
        elements = _member_delta_catalogue()
        assert len(elements) == 57
        P7 = builtin("borel2", 7, 8).quea
        P14 = builtin("borel2", 14, 8).quea
        for src in elements:
            c7 = prime_membership(parse_element(src, P7), P7)
            c14 = prime_membership(parse_element(src, P14), P14)
            assert (c7.verdict, c7.witness) == (c14.verdict, c14.witness), \
                src
            for n, v in zip(c7.n_checked, c7.valuations):
                if v != math.inf:
                    assert c14.valuation_at(n) == v, (src, n)
                else:
                    assert c14.valuation_at(n) > 7, (src, n)
