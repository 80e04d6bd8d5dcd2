"""Every row kind whose verdict sets two computed values side by side is
decided by one comparison, report.discrepancy.  Each such kind has an entry
here: an input that fails the row with its discrepancy, or the reason no
input can (such rows are listed, not removed, since their bytes are in the
pinned reports).  A kind with no entry fails the table."""

import random
import sys
from typing import Callable, NamedTuple

import pytest

import qdp.report as report
from qdp.bundles import builtin
from qdp.drinfeld import GaugeMap, gauge_preservation_check
from qdp.errors import NotAHopfMap
from qdp.freealg import Monomial, TensorElement
from qdp.hopf import Presentation, check_diamond, check_hopf_axioms
from qdp.pairing import pairing_axioms_check
from qdp.report import HopfReport
from qdp.selftest import (CRITERIA, DEFAULT_SEED, RunConfig,
                          inclusion_exclusion, pairing_duality,
                          product_expansion)
from qdp.series import HSeries

from support import borel2_with

N = 4
Y, ONE = Monomial((0, 1)), Monomial((0, 0))

# The selftest rows that tally many comparisons into one row: each instance
# is decided by discrepancy, and the row lists the instances that disagree.
TALLY_KINDS = {"deviation-of-product", "deviation-of-commutator",
               "inclusion-exclusion", "pairing-duality"}


def _borel2(**maps) -> Presentation:
    """borel2 at h-order N with the given structure maps replaced."""
    P = builtin("borel2", N, N).quea
    parts = dict(relations=P.relations, coproduct=P.coproduct_on_gens,
                 counit=P.counit_on_gens, antipode=P.antipode_on_gens)
    parts.update(maps)
    return Presentation(P.name, P.model, P.generators, N, P.degree_cap,
                        parts["relations"], parts["coproduct"],
                        parts["counit"], parts["antipode"])


def _h(k=1, value=1) -> HSeries:
    return HSeries.h_power(k, N, value)


def _scaled_coproduct_of_y():
    # Delta(y) times 1 + h: coassociativity and both counit laws fail on y
    P = builtin("borel2", N, N).quea
    cop = dict(P.coproduct_on_gens)
    cop["y"] = cop["y"].scaled(HSeries(0, N, [1, 1]))
    return check_hopf_axioms(_borel2(coproduct=cop), 1).rows


def _doubled_antipode_of_x():
    # S(x) = -2x breaks both antipode laws on x and S(yx) = S(x)S(y)
    P = builtin("borel2", N, N).quea
    ant = dict(P.antipode_on_gens, x=P.gen("x").scaled(HSeries.const(-2, N)))
    return check_hopf_axioms(_borel2(antipode=ant), 1).rows


def _relation_with_a_constant():
    # y*x = x*y - y + h: eps(y*x) = h, but eps(y) eps(x) = 0, and Delta no
    # longer respects the relation
    P = builtin("borel2", N, N).quea
    rel = dict(P.relations)
    rel[(0, 1)] = rel[(0, 1)] + TensorElement(P.name, 1, {(ONE,): _h()})
    return check_hopf_axioms(_borel2(relations=rel), 1).rows


def _heisenberg3_with_z_acting():
    # z*x = x*z + x on top of [x, y] = z breaks Jacobi, so the two
    # reductions of z*y*x differ
    H = builtin("heisenberg3", N, N).quea
    rel = dict(H.relations)
    rel[(0, 2)] = H.gen("x")
    Q = Presentation(H.name, H.model, H.generators, N, H.degree_cap, rel,
                     H.coproduct_on_gens, H.counit_on_gens,
                     H.antipode_on_gens)
    return check_diamond(Q).rows


def _gauge_y_to_y_plus_hx():
    # y -> y + h*x is neither a coalgebra map nor respects y*x = x*y - y
    P = builtin("borel2", N, N).quea
    phi = GaugeMap.make(P, {"x": P.gen("x"),
                            "y": P.gen("y") + P.gen("x").scaled(_h())})
    try:
        return gauge_preservation_check(P, phi).rows
    except NotAHopfMap as exc:
        return exc.report.rows


def _cross_valued_seed():
    # <x, Y> = 1 on borel2 against its prime image is incompatible with the
    # relation, so the product and antipode rules fail
    seed = builtin("borel2", N, N).pairing_seed
    values = dict(seed.values)
    values[(0, 1)] = HSeries.one(N)
    return pairing_axioms_check(seed._replace(values=values), 2).rows


def _perturbed_coproduct_of_x():
    # Delta(x) + h y (x) y no longer respects y*x = x*y - y, so
    # Delta(yx), read off x*y - y, is not Delta(y) Delta(x)
    P = builtin("borel2", N, N).quea
    cop = dict(P.coproduct_on_gens)
    cop["x"] = cop["x"] + TensorElement(P.name, 2, {(Y, Y): _h()})
    Q = _borel2(coproduct=cop)
    return product_expansion([(Q, [(Q.gen("y"), Q.gen("x"))])])


def _non_counital_coproduct_of_y():
    # Delta(y) + y (x) 1 breaks (id (x) eps) o Delta = id
    return inclusion_exclusion([borel2_with(N, N, "y", (Y, ONE))],
                               random.Random(DEFAULT_SEED + 1))


def _doubled_seed():
    # <x, X> = 2 pairs x^m with y^m/m! to 2^m
    real = builtin("abelian1", N, N).pairing_seed
    return pairing_duality([real._replace(values={(0, 0): _h(0, 2)}),
                            builtin("borel2", N, N).pairing_seed])


class Fails(NamedTuple):
    rows: Callable[[], list]    # the rows written on the mutant input
    subject: str                # the row of this kind that must fail
    detail: str = "discrepancy: "   # how its detail starts


MUTANTS = {
    "coassociativity": Fails(_scaled_coproduct_of_y, "y"),
    "counit-left": Fails(_scaled_coproduct_of_y, "y"),
    "counit-right": Fails(_scaled_coproduct_of_y, "y"),
    "antipode-left": Fails(_doubled_antipode_of_x, "x"),
    "antipode-right": Fails(_doubled_antipode_of_x, "x"),
    "antipode-respects-relation": Fails(_doubled_antipode_of_x,
                                        "relation y*x"),
    "coproduct-respects-relation": Fails(_relation_with_a_constant,
                                         "relation y*x"),
    "counit-respects-relation": Fails(_relation_with_a_constant,
                                      "relation y*x", "discrepancy: h"),
    "diamond": Fails(_heisenberg3_with_z_acting, "z*y*x"),
    "hopf-map-coproduct": Fails(_gauge_y_to_y_plus_hx, "y"),
    "hopf-map-relation": Fails(_gauge_y_to_y_plus_hx, "y*x"),
    "left-product-compat": Fails(
        _cross_valued_seed, "<Monomial(0, 1)*Monomial(1, 0), Monomial(0, 2)>"),
    "right-product-compat": Fails(
        _cross_valued_seed, "<Monomial(1, 1), Monomial(0, 1)*Monomial(0, 1)>"),
    "antipode-compat": Fails(
        _cross_valued_seed, "<S(Monomial(1, 0)), Monomial(1, 1)>"),
    "deviation-of-product": Fails(
        _perturbed_coproduct_of_x, "borel2: delta_2(a*b) expansion on 1 pairs",
        "1 failures; first: a = (1)*[(0, 1)], b = (1)*[(1, 0)]: "
        "discrepancy: "),
    "deviation-of-commutator": Fails(
        _perturbed_coproduct_of_x,
        "borel2: delta_2(ab-ba) expansion on 1 pairs",
        "1 failures; first: a = (1)*[(0, 1)], b = (1)*[(1, 0)]: "
        "discrepancy: "),
    "inclusion-exclusion": Fails(
        _non_counital_coproduct_of_y,
        "borel2: Delta_E == sum of deviations over subsets (112 instances)",
        "35 failures; first: a = "),
    "pairing-duality": Fails(
        _doubled_seed, "abelian1: <x^m, y^n/n!> == delta_mn for m,n <= 4 "
        "(25 values)", "failures: [(1, 1), (2, 2), (3, 3), (4, 4)]"),
}

CANNOT_FAIL = {
    "pair-with-right-unit":
        "the evaluator sets <m, 1> to 1 for m = 1 and to 0 otherwise, "
        "which is eps(m) on every presentation: a generator counit other "
        "than 0 is refused (exit 2)",
    "pair-with-left-unit":
        "the evaluator sets <1, m> to 1 for m = 1 and to 0 otherwise, "
        "which is eps(m) on every presentation: a generator counit other "
        "than 0 is refused (exit 2)",
    "relation":
        "prime and vee are exact wherever they are defined (a failed "
        "division raises NotDivisible), so no input makes a round trip "
        "disagree; only an engine mutant can, such as test_selftest's "
        "rescaling that drops a term of a coproduct",
    "coproduct":
        "as for relation: a round trip of a coproduct is exact",
    "antipode":
        "as for relation: a round trip of an antipode is exact",
    "delta-commutes-with-gauge":
        "these rows run only once the Hopf-map rows pass, and a Hopf map "
        "commutes with Delta and eps, hence with every delta_n",
}


def _row(rows, check, subject):
    found = [r for r in rows if (r.check, r.subject) == (check, subject)]
    assert len(found) == 1, (check, subject, [str(r) for r in rows])
    return found[0]


def test_every_comparison_kind_has_an_entry(monkeypatch):
    # the kinds HopfReport.compare writes, over every criterion but the
    # product expansion (95% of the battery's time), whose rows are tallies
    kinds = set()
    compare = HopfReport.compare

    def recording(self, check, *args):
        kinds.add(check)
        compare(self, check, *args)

    monkeypatch.setattr(HopfReport, "compare", recording)
    for name, criterion in CRITERIA:
        if name != "deviation-product-expansion":
            criterion(RunConfig(3, 3))
    assert kinds | TALLY_KINDS == set(MUTANTS) | set(CANNOT_FAIL)
    assert not set(MUTANTS) & set(CANNOT_FAIL)


@pytest.mark.parametrize("kind", sorted(MUTANTS))
def test_a_mutant_fails_the_row(kind, monkeypatch):
    entry = MUTANTS[kind]
    row = _row(entry.rows(), kind, entry.subject)
    assert not row.passed
    assert row.detail.startswith(entry.detail), row.detail
    # the row is decided by the one comparison: were every pair of sides
    # to agree, it would pass
    one_comparison = report.discrepancy
    for name, mod in list(sys.modules.items()):
        if (name.startswith("qdp.")
                and getattr(mod, "discrepancy", None) is one_comparison):
            monkeypatch.setattr(mod, "discrepancy", lambda *args: "")
    assert _row(entry.rows(), kind, entry.subject).passed
