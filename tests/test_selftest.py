"""Selftest criteria fed one minimally wrong input each: a built-in bundle
with a single change.  The criterion must fail, in a row that names what
is wrong."""

import dataclasses
import random

import qdp.drinfeld as drinfeld
from qdp.bundles import builtin
from qdp.freealg import Monomial, TensorElement
from qdp.hopf import Presentation
from qdp.selftest import (DEFAULT_SEED, bundle_invariants, filtration_kernel,
                          inclusion_exclusion, limit_valuations,
                          membership_battery, roundtrips)
from qdp.series import HSeries


def _borel2_with(N, D, g, key):
    """borel2 at (N, D) with the term 1 * key added to Delta(g)."""
    P = builtin("borel2", N, D).quea
    cop = dict(P.coproduct_on_gens)
    cop[g] = cop[g] + TensorElement(P.name, 2, {key: HSeries.one(N)})
    return Presentation(P.name, P.model, P.generators, N, P.degree_cap,
                        P.relations, cop, P.counit_on_gens,
                        P.antipode_on_gens)


X = Monomial.generator(0, 2)
Y = Monomial.generator(1, 2)
ONE = Monomial.identity(2)


def _failed(rows):
    return [r for r in rows if not r.passed]


def test_membership_battery_rejects_a_non_primitive_generator():
    # Delta(x) += x (x) x puts x (x) x into delta_2(x), so h*x has
    # valuation 1 < 2 there and is no member; h*y fails through the powers
    # of x in Delta(y).  N = 4 shows it: at N = 8 this coproduct's
    # deviations take over a minute
    failed = _failed(membership_battery(_borel2_with(4, 4, "x", (X, X))))
    assert [(r.subject, r.detail) for r in failed] == [
        ("borel2: h*x", "NotMember"), ("borel2: h*y", "NotMember")]


def test_filtration_kernel_rejects_a_non_primitive_generator():
    # delta_2(x) = x (x) x does not vanish mod h, and x has degree 1
    failed = _failed(filtration_kernel([_borel2_with(2, 8, "x", (X, X))]))
    assert len(failed) == 1
    assert failed[0].subject.startswith("borel2: delta_(n+1)")
    assert failed[0].detail.startswith("failures: [((1, 0), 1)")


def test_inclusion_exclusion_rejects_a_non_counital_coproduct():
    # Delta(y) += y (x) 1 breaks (id (x) eps) o Delta = id, so Delta_E and
    # the deviation maps no longer invert each other
    rows = inclusion_exclusion([_borel2_with(4, 4, "y", (Y, ONE))],
                               random.Random(DEFAULT_SEED + 1))
    assert [(r.subject, r.detail) for r in _failed(rows)] == [
        ("borel2: Delta_E == sum of deviations over subsets (112 instances)",
         "35 failures; first: a = (-1)*[(0, 0)] + (-h^2)*[(1, 0)] "
         "+ (2/3*h^2)*[(1, 2)], n = 2, E = (1, 2): "
         "discrepancy: (2*h^2)*[(1, 2) (x) (0, 0)]")]


def test_limit_valuations_reject_a_coproduct_with_a_constant_term():
    # prime multiplies the 1 (x) 1 term by h and vee divides it back out,
    # so vee's x is not primitive mod h
    P = _borel2_with(8, 8, "x", (ONE, ONE))
    failed = _failed(limit_valuations([P], 8))
    assert "borel2: vee generator x primitive mod h" in [
        r.subject for r in failed]


def test_bundle_invariants_reject_a_recorded_lie_of_another_bundle():
    b = builtin("borel2", 8, 8)
    wrong = dataclasses.replace(b, lie=builtin("abelian2", 8, 8).lie)
    assert [r.check for r in _failed(bundle_invariants([wrong]))] == [
        "bundle-lie-matches-extraction", "bundle-dual-matches-dualization"]


def test_roundtrips_reject_a_rescaling_that_drops_a_term(monkeypatch):
    # prime o vee is exact wherever it is defined, so no input can make a
    # round trip fail; the mutant is in the engine: vee drops the last term
    # of the coproduct of y
    rescale = drinfeld._rescale

    def lossy(e, s, source_degree, what):
        out = rescale(e, s, source_degree, what)
        if s < 0 and what == "coproduct of y":
            del out[list(out)[-1]]
        return out

    monkeypatch.setattr(drinfeld, "_rescale", lossy)
    failed = _failed(roundtrips([builtin("borel2", 8, 8).quea], 8))
    assert [r.subject for r in failed] == [
        "borel2: rescale up then down", "borel2: rescale down then up"]
    # the detail is the round trip's first failing row, which names the
    # dropped x^8 (x) y term of Delta(y)
    assert [r.detail for r in failed] == [
        "coproduct: y  [discrepancy: (1/40320*h^8)*[(8, 0) (x) (0, 1)]]",
        "coproduct: y  [discrepancy: (1/40320)*[(8, 0) (x) (0, 1)]]"]
