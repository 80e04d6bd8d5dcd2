import itertools
import math
import random
from fractions import Fraction
from math import factorial

import pytest

import qdp.hopf as hopf
import qdp.selftest as selftest
from qdp.bundles import builtin
from qdp.drinfeld import (GaugeMap, prime_membership, prime_presentation,
                          vee_presentation)
from qdp.errors import (FuelExceeded, NotTopologicallyNilpotent,
                        PresentationError)
from qdp.exprs import parse_element
from qdp.freealg import Monomial, TensorElement
from qdp.hopf import (POLY, SERIES, Presentation, antipode, big_delta_E,
                      check_diamond, check_hopf_axioms, coproduct, counit,
                      delta_E, delta_n, element_exp, embed_slots,
                      iterated_coproduct, multiply, normal_form)
from qdp.selftest import random_elements
from qdp.series import HSeries, _make

from support import element, from_monomial, series_from_map


@pytest.fixture(scope="module")
def borel2():
    return builtin("borel2", 8, 8).quea


@pytest.fixture(scope="module")
def abelian2():
    return builtin("abelian2", 8, 8).quea


@pytest.fixture(scope="module")
def heis():
    return builtin("heisenberg3", 8, 8).quea


def mono_elem(P, *exps):
    return from_monomial(P.name, Monomial(exps),
                         HSeries.one(P.h_order))


BUILTINS = ["abelian1", "abelian2", "abelian3", "borel2", "heisenberg3"]


def _primitive_maps(name, gens, N):
    """Coproducts, counits and antipodes of primitive generators."""
    one = HSeries.one(N)
    idm = Monomial.identity(len(gens))
    cop, eps, ant = {}, {}, {}
    for i, g in enumerate(gens):
        gm = Monomial.generator(i, len(gens))
        cop[g] = TensorElement(name, 2, {(gm, idm): one, (idm, gm): one})
        eps[g] = HSeries.zero(N)
        ant[g] = from_monomial(name, gm, HSeries.const(-1, N))
    return cop, eps, ant


def _broken3():
    """b*a = a*b + c, c*a = a*c + a, c*b = b*c: a Jacobi defect, so not
    confluent."""
    name = "broken3"
    one = HSeries.one(6)
    relations = {
        (0, 1): from_monomial(name, Monomial((0, 0, 1)), one),
        (0, 2): from_monomial(name, Monomial((1, 0, 0)), one),
    }
    gens = ["a", "b", "c"]
    return Presentation(name, POLY, gens, 6, None, relations,
                        *_primitive_maps(name, gens, 6))


def _quadratic3(model):
    """Three generators whose relations carry admissible degree-2
    corrections h*(monomial below x_i x_j) besides linear terms."""
    name = f"quadratic3-{model}"
    N = 5
    h = HSeries.h_power(1, N)
    rel = {   # keyed (i, j): exponents -> coefficient
        (0, 1): {(0, 2, 0): h, (0, 0, 1): HSeries.const(2, N)},
        (0, 2): {(0, 1, 1): HSeries.h_power(2, N),
                 (1, 0, 0): HSeries.const(-1, N)},
        (1, 2): {(0, 0, 2): HSeries.h_power(1, N, Fraction(1, 3)),
                 (0, 1, 0): HSeries.one(N)},
    }
    relations = {k: element(name, {Monomial(e): c for e, c in r.items()})
                 for k, r in rel.items()}
    gens = ["a", "b", "c"]
    return Presentation(name, model, gens, N, None if model == POLY else 4,
                        relations, *_primitive_maps(name, gens, N))


def ref_add(acc, key, c):
    """Eager accumulation, kept apart from the engine's qdp.freealg.add_into
    so that the reference loops stay an independent computation."""
    prev = acc.get(key)
    acc[key] = c if prev is None else prev + c


def ref_normal_form(word, P):
    """The word rewriter normal_form replaced: a to-do stack of words, the
    leftmost inversion of each rewritten first, and words longer than D
    dropped."""
    acc = {}
    todo = [(HSeries.one(P.h_order), tuple(word))]
    while todo:
        coeff, w = todo.pop()
        if coeff.is_zero():
            continue
        if P.degree_cap is not None and len(w) > P.degree_cap:
            continue
        t = next((t for t in range(len(w) - 1) if w[t] > w[t + 1]), None)
        if t is None:
            ref_add(acc, Monomial.from_word(w, P.ngens), coeff)
            continue
        todo.extend((coeff * c, b) for c, b in hopf._rewrite_at(P, w, t))
    return element(P.name, acc).truncate(P.h_order, P.degree_cap)


def _assert_matches_ref_normal_form(P, seed, longest, words=60):
    """normal_form agrees with ref_normal_form, coefficient orders included,
    on seeded random words of length 0..longest."""
    rng = random.Random(seed)
    for _ in range(words):
        w = [rng.randrange(P.ngens) for _ in range(rng.randint(0, longest))]
        assert _exact(normal_form(w, P)) == _exact(ref_normal_form(w, P)), w


class TestNormalForm:
    def test_borel2_single_swap(self, borel2):
        got = normal_form((1, 0), borel2)
        want = mono_elem(borel2, 1, 1) - mono_elem(borel2, 0, 1)
        assert got == want

    def test_abelian_swap(self, abelian2):
        assert normal_form((1, 0), abelian2) == mono_elem(abelian2, 1, 1)

    def test_heisenberg_two_steps(self, heis):
        # y*y*x -> x*y^2 - 2*y*z
        got = normal_form((1, 1, 0), heis)
        want = mono_elem(heis, 1, 2, 0) \
            - mono_elem(heis, 0, 1, 1).scaled(HSeries.const(2, 8))
        assert got == want

    def test_idempotent_on_ordered(self, borel2):
        rng = random.Random(3)
        for a in random_elements(borel2, rng, 8):
            again = sum(
                (normal_form(m.word(), borel2).scaled(c)
                 for (m,), c in a.terms.items()),
                borel2.zero())
            assert again == a

    def test_fuel_guard(self, borel2, monkeypatch):
        # a rule that hands back its own word never terminates; the
        # re-entry guard turns that into FuelExceeded, and leaves no
        # in-progress state behind once the rule is restored
        P = _fresh(borel2)
        with monkeypatch.context() as mp:
            mp.setattr(hopf, "_rewrite_at",
                       lambda P, word, t: [(HSeries.one(P.h_order), word)])
            with pytest.raises(FuelExceeded):
                normal_form((1, 0), P)
        assert not P._nf_building
        want = mono_elem(P, 1, 1) - mono_elem(P, 0, 1)
        assert normal_form((1, 0), P) == want

    @pytest.mark.parametrize("N,D", [(3, 3), (5, 4), (8, 8)])
    @pytest.mark.parametrize("name", BUILTINS)
    def test_matches_word_rewriter(self, name, N, D):
        P = builtin(name, N, D).quea
        for Q in (_fresh(P), prime_presentation(P, D)):
            _assert_matches_ref_normal_form(Q, 100 + N, D + 1)

    @pytest.mark.parametrize("model", [POLY, SERIES])
    def test_degree_two_corrections_match_word_rewriter(self, model):
        _assert_matches_ref_normal_form(_quadratic3(model), 7, 5, words=120)

    def test_non_confluent_matches_word_rewriter(self):
        # leftmost inversion first, as the word rewriter resolves them
        _assert_matches_ref_normal_form(_broken3(), 11, 7, words=200)


class TestMultiply:
    def test_unit_law(self, borel2):
        a = borel2.gen("y")
        assert multiply(borel2.unit(), a, borel2) == a

    def test_rescaled_commutator(self, borel2):
        h = HSeries.h_power(1, 8)
        hx, hy = borel2.gen("x").scaled(h), borel2.gen("y").scaled(h)
        comm = multiply(hx, hy, borel2) - multiply(hy, hx, borel2)
        assert comm == borel2.gen("y").scaled(HSeries.h_power(2, 8))


class TestStructureMaps:
    def test_primitive_coproduct(self, abelian2):
        x = abelian2.gen("x1")
        got = coproduct(x, abelian2)
        one = Monomial.identity(2)
        g = Monomial((1, 0))
        want = TensorElement(abelian2.name, 2,
                             {(g, one): HSeries.one(8),
                              (one, g): HSeries.one(8)})
        assert got == want

    def test_borel2_coproduct_matches_data(self, borel2):
        assert coproduct(borel2.gen("y"), borel2) == \
            borel2.coproduct_on_gens["y"]

    def test_square_of_primitive(self, abelian2):
        x2 = multiply(abelian2.gen("x1"), abelian2.gen("x1"), abelian2)
        got = coproduct(x2, abelian2)
        one = Monomial.identity(2)
        g, g2 = Monomial((1, 0)), Monomial((2, 0))
        want = TensorElement(abelian2.name, 2, {
            (g2, one): HSeries.one(8),
            (g, g): HSeries.const(2, 8),
            (one, g2): HSeries.one(8)})
        assert got == want

    def test_counit(self, borel2):
        assert counit(borel2.unit(), borel2) == HSeries.one(8)
        assert counit(borel2.gen("x"), borel2).is_zero()
        a = borel2.unit(3) + borel2.gen("x").scaled(HSeries.h_power(1, 8))
        assert counit(a, borel2) == HSeries.const(3, 8)

    def test_antipode_gen(self, abelian2):
        assert antipode(abelian2.gen("x1"), abelian2) == \
            abelian2.gen("x1").scaled(HSeries.const(-1, 8))

    def test_antipode_square(self, abelian2):
        x2 = multiply(abelian2.gen("x1"), abelian2.gen("x1"), abelian2)
        assert antipode(x2, abelian2) == x2

    def test_borel2_antipode_matches_data(self, borel2):
        # S(y) = -exp(-h*x)*y
        ehx = element_exp(
            borel2.gen("x").scaled(HSeries.h_power(1, 8, -1)), borel2)
        want = multiply(ehx, borel2.gen("y"), borel2).scaled(
            HSeries.const(-1, 8))
        assert antipode(borel2.gen("y"), borel2) == want


class TestIteratedCoproduct:
    def test_rank_one_is_identity(self, borel2):
        a = borel2.gen("y")
        t = iterated_coproduct(a, 1, borel2)
        assert t.rank == 1
        assert t.terms == {(Monomial((0, 1)),): HSeries.one(8)}

    def test_primitive_chain(self, abelian2):
        x = abelian2.gen("x1")
        for n in (2, 3):
            t = iterated_coproduct(x, n, abelian2)
            assert len(t.terms) == n
            for key, c in t.terms.items():
                assert c == HSeries.one(8)
                assert sum(m.degree for m in key) == 1

    def test_rank_zero_convention(self, borel2):
        # Delta^0 = delta_0 = eps, a rank-0 tensor keyed by the empty tuple
        a = borel2.unit(5) + borel2.gen("x")
        t = iterated_coproduct(a, 0, borel2)
        assert t.rank == 0
        assert t.terms == {(): HSeries.const(5, 8)}
        assert delta_n(a, 0, borel2) == t
        assert embed_slots(t, (), 2, borel2).terms == {
            (Monomial.identity(2),) * 2: HSeries.const(5, 8)}


class TestDeltaFamily:
    def test_delta_empty(self, borel2):
        a = borel2.unit(3) + borel2.gen("x")
        t = delta_E(a, (), 1, borel2)
        assert t.terms == {(Monomial.identity(2),): HSeries.const(3, 8)}

    def test_delta_one_is_id_minus_counit(self, abelian2):
        x = abelian2.gen("x1")
        assert delta_E(x, (1,), 1, abelian2) == delta_n(x, 1, abelian2)
        a = abelian2.unit(7) + x
        t = delta_n(a, 1, abelian2)
        assert t.terms == {(Monomial((1, 0)),): HSeries.one(8)}

    def test_primitive_killed_by_delta2(self, abelian2):
        assert delta_n(abelian2.gen("x1"), 2, abelian2).is_zero()

    def test_borel2_delta2_closed_form(self, borel2):
        t = delta_n(borel2.gen("y"), 2, borel2)
        y = Monomial((0, 1))
        want = {}
        for k in range(1, 9):
            want[(Monomial((k, 0)), y)] = HSeries.h_power(
                k, 8, Fraction(1, factorial(k)))
        assert t.terms == want
        assert t.h_valuation() == 1

    def test_borel2_delta3_closed_form(self, borel2):
        t = delta_n(borel2.gen("y"), 3, borel2)
        y = Monomial((0, 1))
        want = {}
        for k1 in range(1, 8):
            for k2 in range(1, 9 - k1):
                want[(Monomial((k1, 0)), Monomial((k2, 0)), y)] = \
                    HSeries.h_power(k1 + k2, 8,
                                    Fraction(1, factorial(k1) * factorial(k2)))
        assert t.terms == want
        assert t.h_valuation() == 2

    def test_delta_matches_projected_iterated(self, borel2):
        # independent route: project every slot of Delta^n with id - eps
        rng = random.Random(11)
        for a in random_elements(borel2, rng, 6, max_degree=2):
            for n in (1, 2, 3):
                full = iterated_coproduct(a, n, borel2)
                projected = {k: c for k, c in full.terms.items()
                             if not any(m.is_identity() for m in k)}
                assert delta_n(a, n, borel2) == TensorElement(
                    borel2.name, n, projected)

    def test_delta_lands_outside_identity_slots(self, borel2):
        rng = random.Random(12)
        for a in random_elements(borel2, rng, 6, max_degree=2):
            for n in (1, 2, 3):
                for key in delta_n(a, n, borel2).terms:
                    assert not any(m.is_identity() for m in key)

    def test_inclusion_exclusion_inversion(self, borel2):
        rng = random.Random(13)
        for a in random_elements(borel2, rng, 4, max_degree=2):
            for n in (1, 2, 3):
                for k in range(n + 1):
                    for E in itertools.combinations(range(1, n + 1), k):
                        total = TensorElement.zero(borel2.name, n)
                        for t in range(len(E) + 1):
                            for psi in itertools.combinations(E, t):
                                total = total + delta_E(a, psi, n, borel2)
                        assert big_delta_E(a, E, n, borel2) == total


    def test_inclusion_exclusion_detects_non_counital_coproduct(self):
        # Delta(y) = 2*y (x) 1 + exp(hx) (x) y: (id (x) eps) o Delta != id,
        # so Delta_E and the deviation maps no longer invert each other
        P = builtin("borel2", 4, 4).quea
        extra = TensorElement(P.name, 2, {
            (Monomial((0, 1)), Monomial.identity(2)): HSeries.one(4)})
        Q = Presentation(P.name, P.model, P.generators, 4, P.degree_cap,
                         P.relations,
                         {"x": P.coproduct_on_gens["x"],
                          "y": P.coproduct_on_gens["y"] + extra},
                         P.counit_on_gens, P.antipode_on_gens)
        y = Q.gen("y")
        total = TensorElement.zero(Q.name, 2)
        for psi in ((), (1,), (2,), (1, 2)):
            total = total + delta_E(y, psi, 2, Q)
        assert big_delta_E(y, (1, 2), 2, Q) != total


class TestAxiomChecks:
    def test_abelian_passes(self, abelian2):
        assert check_hopf_axioms(abelian2, 3).passed

    def test_borel2_passes(self, borel2):
        assert check_hopf_axioms(borel2, 3).passed

    def test_corrupted_antipode_detected(self):
        P = builtin("borel2", 6, 6).quea
        name = "borel2_bad"
        retag = lambda t: TensorElement(name, t.rank, t.terms)
        bad = Presentation(
            name, POLY, P.generators, P.h_order, None,
            {k: retag(r) for k, r in P.relations.items()},
            {g: retag(P.coproduct_on_gens[g]) for g in P.generators},
            {g: HSeries.zero(P.h_order) for g in P.generators},
            {"x": retag(P.antipode_on_gens["x"]),
             "y": from_monomial(name, Monomial((0, 1)),
                                HSeries.const(-1, P.h_order))})
        rep = check_hopf_axioms(bad, 2)
        assert not rep.passed
        failing = {(r.check, r.subject) for r in rep.failures()}
        assert any("antipode" in c and "y" in s for c, s in failing)

    def test_failure_note_names_leading_terms(self):
        # Delta(y) scaled by (1 + h): coassociativity and both counit laws
        # fail on every monomial containing y
        P = builtin("borel2", 4, 4).quea
        one_plus_h = series_from_map({0: 1, 1: 1}, 4)
        Q = Presentation(P.name, P.model, P.generators, 4, P.degree_cap,
                         P.relations,
                         {"x": P.coproduct_on_gens["x"],
                          "y": P.coproduct_on_gens["y"].scaled(one_plus_h)},
                         P.counit_on_gens, P.antipode_on_gens)
        failing = {(r.check, r.subject): r.detail
                   for r in check_hopf_axioms(Q, 3).failures()}
        assert len(failing) == 18
        assert failing[("counit-left", "y")] == "discrepancy: (h)*[(0, 1)]"
        assert failing[("coassociativity", "y")] == (
            "discrepancy: (-h - h^2)*[(0, 0) (x) (0, 0) (x) (0, 1)]"
            " + (-h^2 - h^3)*[(0, 0) (x) (1, 0) (x) (0, 1)]"
            " + (-1/2*h^3 - 1/2*h^4)*[(0, 0) (x) (2, 0) (x) (0, 1)]"
            " (+8 more terms)")
        for detail in failing.values():
            assert detail.count("*[") <= 3
            assert len(detail) < 400
        # an element-valued row names its terms by rank-1 keys as well:
        # S(y) = -y breaks the antipode laws on y
        S = dict(P.antipode_on_gens,
                 y=P.gen("y").scaled(HSeries.const(-1, 4)))
        R = Presentation(P.name, P.model, P.generators, 4, P.degree_cap,
                         P.relations, P.coproduct_on_gens, P.counit_on_gens,
                         S)
        failing = {(r.check, r.subject): r.detail
                   for r in check_hopf_axioms(R, 2).failures()}
        assert failing[("antipode-left", "y")] == (
            "discrepancy: (-h)*[(1, 1)] + (1/2*h^2)*[(2, 1)]"
            " + (-1/6*h^3)*[(3, 1)] (+1 more terms)")


class TestDiamond:
    def test_heisenberg_confluent(self, heis):
        assert check_diamond(heis).passed

    def test_abelian3_confluent(self):
        P = builtin("abelian3", 8, 8).quea
        assert check_diamond(P).passed

    def test_jacobi_defect_detected(self):
        assert not check_diamond(_broken3()).passed


class TestElementExp:
    def test_exp_needs_positive_valuation(self, borel2):
        with pytest.raises(NotTopologicallyNilpotent):
            element_exp(borel2.gen("x"), borel2)

    def test_exp_times_inverse(self, borel2):
        hx = borel2.gen("x").scaled(HSeries.h_power(1, 8))
        e = element_exp(hx, borel2)
        einv = element_exp(hx.scaled(HSeries.const(-1, 8)), borel2)
        assert multiply(e, einv, borel2) == borel2.unit()


class TestPresentationValidation:
    def test_nonzero_counit_rejected(self):
        name = "badeps"
        one = HSeries.one(4)
        gm = Monomial((1,))
        idm = Monomial.identity(1)
        cop = {"x": TensorElement(name, 2, {(gm, idm): one, (idm, gm): one})}
        ant = {"x": from_monomial(name, gm, HSeries.const(-1, 4))}
        with pytest.raises(PresentationError, match="x - "):
            Presentation(name, POLY, ["x"], 4, None, {}, cop,
                         {"x": HSeries.one(4)}, ant)

    def test_inadmissible_relation_rejected(self):
        name = "badrel"
        # degree-3 correction is out of the admissible shape
        bad = from_monomial(name, Monomial((3, 0)), HSeries.one(4))
        with pytest.raises(PresentationError, match="inadmissible"):
            Presentation(name, POLY, ["a", "b"], 4, None, {(0, 1): bad},
                         *_primitive_maps(name, ["a", "b"], 4))

    @pytest.mark.parametrize("key", [(1, 0), (0, 7), (1, 1), (-1, 1)])
    def test_relation_key_out_of_range_rejected(self, key):
        # a relation under any other key would be silently ignored
        name = "badkey"
        r = from_monomial(name, Monomial((0, 1)), HSeries.one(4))
        with pytest.raises(PresentationError, match="relation key"):
            Presentation(name, POLY, ["a", "b"], 4, None, {key: r},
                         *_primitive_maps(name, ["a", "b"], 4))

    @pytest.mark.parametrize("where", ["relation", "coproduct", "antipode"])
    def test_laurent_coefficient_rejected(self, where):
        # a deformation over k[[h]] has no h^-1: the engine's pruning bounds
        # and truncation windows assume every valuation is >= 0.  HSeries
        # refuses to build such a coefficient, so a value of a presentation
        # moved one power of h below its valuation never reaches one
        P = builtin("borel2", 5, 5).quea
        value = {"relation": P.relations[(0, 1)],
                 "coproduct": P.coproduct_on_gens["y"],
                 "antipode": P.antipode_on_gens["y"]}[where]
        assert value.h_valuation() == 0
        with pytest.raises(ValueError, match="h-valuation -1"):
            TensorElement(value.pres, value.rank,
                          {k: c.shift(-1) for k, c in value.terms.items()})

    @pytest.mark.parametrize("name", ["abelian1", "abelian2", "abelian3",
                                      "borel2", "heisenberg3"])
    def test_rescaling_builds_no_laurent_coefficient(self, name):
        # prime multiplies by h^k, k >= 0, or divides exactly, and vee
        # divides exactly: a failed division is NotDivisible
        # (TestVeeTransform), so neither hands Presentation an h^-1
        P = builtin(name, 6, 6).quea
        Q = prime_presentation(P, 4)
        V = vee_presentation(Q)
        for R in (Q, V):
            values = [*R.relations.values(), *R.coproduct_on_gens.values(),
                      *R.antipode_on_gens.values()]
            assert all(v.h_valuation() >= 0 for v in values)

    def test_reserved_generator_name(self):
        with pytest.raises(PresentationError, match="reserved"):
            Presentation("bad", POLY, ["h"], 4, None, {}, {}, {}, {})


# -- reference model ----------------------------------------------------------
#
# The product loops before they became truncation-aware: every product is
# formed, summed, and only then truncated at N, and every deviation is built
# to the full h-order.  Installed over qdp.hopf's own functions (same
# signatures as the engine had), they rebuild every structure map the old
# way; the engine must agree with them exactly, coefficient orders included,
# and each windowed deviation it caches must be the reference one cut at its
# window.

def ref_multiply(s, t, P):
    hopf._check_owner(P, s, t)
    acc = {}
    for ka, ca in s.terms.items():
        for kb, cb in t.terms.items():
            c = ca * cb
            if c.is_zero():
                continue
            # normal_form itself multiplies, through the patched multiply
            slot_elems = [ref_normal_form(ma.word() + mb.word(), P)
                          for ma, mb in zip(ka, kb)]
            ref_expand_into(acc, slot_elems, c)
    return TensorElement(P.name, s.rank, acc).truncate(
        P.h_order, P.degree_cap)


def ref_expand_into(acc, slot_elems, coeff):
    keys = [()]
    coeffs = [coeff]
    for e in slot_elems:
        nkeys, ncoeffs = [], []
        for key, c in zip(keys, coeffs):
            for km, cm in e.terms.items():
                nc = c * cm
                if nc.is_zero():
                    continue
                nkeys.append(key + km)
                ncoeffs.append(nc)
        keys, coeffs = nkeys, ncoeffs
    for key, c in zip(keys, coeffs):
        ref_add(acc, key, c)


def ref_coproduct_monomial(P, m):
    # the fold from the unit over the whole word, caching m alone
    cached = P._coproduct_cache.get(m)
    if cached is not None:
        return cached
    acc = TensorElement.unit(P.name, 2, P.ngens, P.h_order)
    for letter in m.word():
        acc = hopf.multiply(acc, P.coproduct_on_gens[P.generators[letter]],
                            P)
    P._coproduct_cache[m] = acc
    return acc


def ref_extend(t, P, rank, image, *args, slot=0, w=None):
    hopf._check_owner(P, t)
    acc = {}
    for key, c in t.terms.items():
        for k, cm in image(P, key[slot], *args).terms.items():
            nc = c * cm
            if nc.is_zero():
                continue
            ref_add(acc, key[:slot] + k + key[slot + 1:], nc)
    return TensorElement(P.name, t.rank - 1 + rank, acc).truncate(
        P.h_order, P.degree_cap)


def ref_delta_monomial(P, m, n):
    key = (m, n)
    cached = P._delta_cache.get(key)
    if cached is not None:
        return cached
    if n == 1:
        if m.is_identity():
            out = TensorElement.zero(P.name, 1)
        else:
            out = TensorElement(P.name, 1, {(m,): HSeries.one(P.h_order)})
    else:
        acc = {}
        for (m1, m2), c in hopf.coproduct_monomial(P, m).terms.items():
            if m2.is_identity():
                continue
            for pkey, pc in ref_delta_monomial(P, m1, n - 1).terms.items():
                nk = pkey + (m2,)
                nc = pc * c
                if nc.is_zero():
                    continue
                ref_add(acc, nk, nc)
        out = TensorElement(P.name, n, acc)
    out = out.truncate(P.h_order, P.degree_cap)
    P._delta_cache[key] = out
    return out


REFERENCE = {"multiply": ref_multiply,
             "coproduct_monomial": ref_coproduct_monomial,
             "_extend": ref_extend,
             "_delta_monomial": ref_delta_monomial}


def _fresh(P):
    """A copy of P with empty caches."""
    return Presentation(P.name, P.model, P.generators, P.h_order,
                        P.degree_cap, P.relations, P.coproduct_on_gens,
                        P.counit_on_gens, P.antipode_on_gens)


def _shifted_primitive(N):
    """One generator with Delta(x) = x (x) 1 + 1 (x) x + h x (x) x (1 + hx is
    group-like): products of positive-valuation coefficients whose order
    exceeds N, landing in terms that receive nothing else."""
    name = "shift1"
    one, x = Monomial.identity(1), Monomial.generator(0, 1)
    cop = TensorElement(name, 2, {(x, one): HSeries.one(N),
                                  (one, x): HSeries.one(N),
                                  (x, x): HSeries.h_power(1, N)})
    ant = element(name, {Monomial((k,)): HSeries.h_power(k - 1, N,
                                                         (-1) ** k)
                         for k in range(1, N + 2)})
    return Presentation(name, POLY, ["x"], N, None, {}, {"x": cop},
                        {"x": HSeries.zero(N)}, {"x": ant})


def _exact(value):
    """A value with every coefficient's truncation order made explicit."""
    if isinstance(value, HSeries):
        return (value, value.order)
    return (type(value).__name__, value.pres, value.rank,
            {k: (c, c.order) for k, c in value.terms.items()})


def _nf(P, ma, mb):
    """A fresh normal form of ma*mb, the product that P._slot_table holds."""
    return normal_form(ma.word() + mb.word(), P)


def _structure_maps(P, seed):
    """Every product loop of the engine, run on random elements of P that
    carry h^k coefficients, then on h^k times the generators in descending
    order, whose products have valuation above N before rewriting; with
    the per-monomial caches those loops filled, and P itself."""
    rng = random.Random(seed)
    elems = random_elements(P, rng, 6, max_degree=2, max_h=3)
    hk = HSeries.h_power((P.h_order + 1) // 2, P.h_order)
    elems += [P.gen(i).scaled(hk) for i in reversed(range(P.ngens))]
    out = []
    for a, b in zip(elems, elems[1:]):
        # through the module, so that the reference loops can stand in
        out.append(hopf.multiply(a, b, P))
        da, db = coproduct(a, P), coproduct(b, P)
        out.append(da)
        out.append(hopf.multiply(da, db, P))
        out.append(hopf._extend(da, P, 2, hopf.coproduct_monomial, slot=0))
        out.append(hopf._extend(db, P, 2, hopf.coproduct_monomial, slot=1))
        out.append(antipode(a, P))
        out.append(iterated_coproduct(a, 3, P))
        out.extend(delta_n(a, n, P) for n in (1, 2, 3))
    caches = [{k: _exact(v) for k, v in cache.items()}
              for cache in (P._coproduct_cache, P._antipode_cache,
                            P._iterated_cache)]
    return [_exact(v) for v in out], caches, P


def _reference_run(monkeypatch, fn):
    """fn() with the reference loops installed in qdp.hopf."""
    with monkeypatch.context() as mp:
        for name, ref in REFERENCE.items():
            mp.setattr(hopf, name, ref)
        return fn()


def _assert_windowed_deltas(Q, full):
    """Every deviation Q caches, at window w, is the full-window reference
    tensor cut at w, coefficient orders included."""
    assert Q._delta_cache
    assert Q._delta_cache.keys() <= full.keys()
    assert Q._delta_windows.keys() == Q._delta_cache.keys()
    for key, t in Q._delta_cache.items():
        w = Q._delta_windows[key]
        assert 0 <= w <= Q.h_order
        assert _exact(t) == _exact(full[key].truncate(w))


def _matches_reference(monkeypatch, make, seed):
    want, want_caches, R = _reference_run(
        monkeypatch, lambda: _structure_maps(make(), seed))
    got, got_caches, Q = _structure_maps(make(), seed)
    assert got == want
    # the engine also caches the coproduct of every prefix it folds through
    (got_cop, *got_rest), (want_cop, *want_rest) = got_caches, want_caches
    assert got_cop.keys() >= want_cop.keys()
    assert {m: got_cop[m] for m in want_cop} == want_cop
    assert got_rest == want_rest
    _assert_windowed_deltas(Q, R._delta_cache)


class TestTruncationAwareProducts:
    @pytest.mark.parametrize("N", [4, 5, 6])
    @pytest.mark.parametrize("name", ["borel2", "heisenberg3", "abelian2"])
    def test_matches_reference(self, monkeypatch, name, N):
        P = builtin(name, N, N).quea
        _matches_reference(monkeypatch, lambda: _fresh(P), N)

    @pytest.mark.parametrize("N", [4, 5])
    def test_positive_valuation_coproduct_matches_reference(self, monkeypatch,
                                                           N):
        _matches_reference(monkeypatch, lambda: _shifted_primitive(N), N)

    @pytest.mark.parametrize("N", [4, 5])
    def test_degree_capped_presentation_matches_reference(self, monkeypatch,
                                                          N):
        # the SERIES-model image of borel2: every product is also cut at D
        Q = prime_presentation(builtin("borel2", N, N).quea, 3)
        _matches_reference(monkeypatch, lambda: _fresh(Q), N)

    def test_prefix_built_coproducts_match_the_fold(self):
        # every monomial the pairing route asks for, highest degree first,
        # so that each one after the first resumes from cached prefixes
        Q = prime_presentation(builtin("borel2", 8, 8).quea, 8)
        P, R = _fresh(Q), _fresh(Q)
        monos = P.monomials_up_to(8)
        assert len(monos) == 45
        for m in reversed(monos):
            got = hopf.coproduct_monomial(P, m)
            assert _exact(got) == _exact(ref_coproduct_monomial(R, m)), m
        assert P._coproduct_cache.keys() == R._coproduct_cache.keys()
        # the antipode resumes from cached suffixes, the gauge map from
        # cached prefixes; both must equal the fold from the unit
        h = HSeries.h_power(1, P.h_order)
        phi = GaugeMap.make(P, {"x": P.gen("x") + P.gen("y").scaled(h),
                                "y": P.gen("y")})
        for m in reversed(monos):
            word = m.word()
            want = P.unit()
            for letter in reversed(word):
                want = multiply(want, P.antipode_on_gens[P.generators[letter]],
                                P)
            assert _exact(hopf.antipode_monomial(P, m)) == _exact(want), m
            want = P.unit()
            for letter in word:
                want = multiply(want, phi.images[P.generators[letter]], P)
            assert _exact(phi.of_monomial(P, m)) == _exact(want), m
        assert P._antipode_cache.keys() == phi._power_cache.keys() == set(
            monos)

    @pytest.mark.parametrize("coeff", [HSeries(1, 6, [1, 2]),
                                       HSeries(1, 6, [Fraction(1, 3), 2])])
    @pytest.mark.parametrize("one_order", [2, 4, 5, 8])
    def test_expand_into_unit_slot_keeps_the_product_order(self, coeff,
                                                            one_order):
        # a slot coefficient exactly 1 but known only to a low order cuts
        # c * 1 below c's own order, and the kept c must not hide that
        x = Monomial.generator(0, 1)
        one = HSeries.one(one_order)
        acc = {}
        hopf._expand_into(acc, [from_monomial("p", x, one)], coeff, 8)
        # the full convolution, canonicalised by _make, not HSeries.__mul__
        order = min(coeff.order + one.v_min, one.order + coeff.v_min)
        conv = [0] * (len(coeff.coeffs) + len(one.coeffs) - 1)
        for i, a in enumerate(coeff.coeffs):
            for j, b in enumerate(one.coeffs):
                conv[i + j] += a * b
        want = _make(coeff.v_min + one.v_min, order, conv,
                     coeff.den * one.den)
        assert _exact(acc[(x,)]) == _exact(want)
        assert want.order == min(6, one_order + 1)

    @pytest.mark.parametrize("v, extra", [(0, 0), (0, 2), (1, 0), (1, 1),
                                          (2, 3)])
    def test_direct_slots_match_full_expansion(self, v, extra):
        # multiply puts a slot product that is one monomial with
        # coefficient exactly 1 straight into the key: every valuation is
        # >= 0, so even with coefficients known past h^N that 1 leaves the
        # product cut at h^N unchanged
        P = _fresh(builtin("borel2", 4, 4).quea)
        N = P.h_order
        rng = random.Random(v * 10 + extra)
        elems = random_elements(P, rng, 4, max_degree=2, max_h=2)
        tensors = []
        for a in elems:
            q = Fraction(rng.randint(1, 5), 3)
            tensors.append(TensorElement(P.name, 2, {
                k: HSeries(cm.v_min + v, N + extra, [1, q])
                for k, cm in coproduct(a, P).terms.items()}))
        for s, t in zip(tensors, tensors[1:]):
            acc = {}
            for ka, ca in s.terms.items():
                for kb, cb in t.terms.items():
                    if ca.v_min + cb.v_min > N:
                        continue
                    slots = [_nf(P, ma, mb) for ma, mb in zip(ka, kb)]
                    if all(e.terms for e in slots):
                        hopf._expand_into(acc, slots, ca * cb, N)
            want = TensorElement(P.name, 2, acc)
            assert _exact(hopf.multiply(s, t, P)) == _exact(want)

    def test_gauge_of_tensor_matches_reference(self):
        # GaugeMap.of_tensor expands through _expand_into as well
        P = _fresh(builtin("borel2", 5, 5).quea)
        h = HSeries.h_power(1, 5)
        phi = GaugeMap.make(P, {"x": P.gen("x") + P.gen("y").scaled(h),
                                "y": P.gen("y")})
        rng = random.Random(7)
        for a in random_elements(P, rng, 4, max_degree=2, max_h=3):
            t = coproduct(a, P)
            acc = {}
            for key, c in t.terms.items():
                ref_expand_into(acc, [phi.of_monomial(P, m) for m in key], c)
            want = TensorElement(P.name, 2, acc).truncate(5, None)
            assert _exact(phi.of_tensor(t, P)) == _exact(want)

    @pytest.mark.parametrize("name", BUILTINS)
    def test_product_table_holds_the_ordered_monomial(self, name):
        # the kernel prunes on coefficient valuations alone; the table's
        # entries carry no valuation because nf(ma*mb) holds ma*mb with
        # coefficient exactly 1, or is 0 past the degree cap
        P = _fresh(builtin(name, 4, 4).quea)
        for Q in (P, prime_presentation(P, 3)):
            check_hopf_axioms(Q, 3)
            assert Q._slot_table
            # _nf fills the table too, so iterate over a copy
            for (ma, mb), e in list(Q._slot_table.items()):
                nf = _nf(Q, ma, mb)
                if nf.is_zero():
                    assert e is None
                    assert Q.degree_cap is not None
                    assert ma.degree + mb.degree > Q.degree_cap
                    continue
                c = nf.terms[(ma.merged(mb),)]
                assert _exact(c) == _exact(HSeries.one(Q.h_order))

    @pytest.mark.parametrize("N", [5, 6])
    @pytest.mark.parametrize("src", ["h^3*x*y^2", "y*x*y"])
    def test_certificates_match_reference(self, monkeypatch, src, N):
        # the scaling workload's certificates, the deviations they cache at
        # their windows, and the certificates' own deviation tensors
        def run():
            P = _fresh(builtin("borel2", N, N).quea)
            a = parse_element(src, P)
            cert = prime_membership(a, P)
            deltas = [_exact(delta_n(a, n, P)) for n in range(N + 1)]
            return cert, deltas, P
        want, want_deltas, R = _reference_run(monkeypatch, run)
        got, got_deltas, Q = run()
        assert got == want
        assert got_deltas == want_deltas
        _assert_windowed_deltas(Q, R._delta_cache)

    def test_delta_cache_working_set(self):
        # each deviation is built only to the window its coefficient can
        # reach: a member h^k * m needs delta_n(m) only to h^(N - k)
        def cached_after(P, src):
            prime_membership(parse_element(src, P), P)
            cache = P._delta_cache.values()
            return (len(cache), sum(len(t.terms) for t in cache),
                    sum(len(c.coeffs) for t in cache
                        for c in t.terms.values()))

        terms = {}
        for N in (5, 6, 7):
            Q = _fresh(builtin("borel2", N, 8).quea)
            terms[N] = cached_after(Q, "h^3*x*y^2")[1]
        assert terms == {5: 152, 6: 412, 7: 1068}
        # y*x*y has coefficient h^0, so it widens the entries it shares
        assert cached_after(Q, "y*x*y") == (122, 13582, 17534)

    @pytest.mark.parametrize("src, products, terms", [
        ("y*x*y", 31038, 13582), ("h^3*x*y^2", 2786, 1068)])
    def test_work_budget(self, monkeypatch, src, products, terms):
        # exact work counts of one cold certificate, free of timing noise: a
        # change that forms more coefficient products or caches more
        # deviation terms fails here
        P = _fresh(builtin("borel2", 7, 7).quea)
        calls = []
        mul = hopf.mul

        def counted(*args):
            calls.append(None)
            return mul(*args)
        monkeypatch.setattr(hopf, "mul", counted)
        prime_membership(parse_element(src, P), P)
        assert len(calls) == products
        assert sum(len(t.terms) for t in P._delta_cache.values()) == terms

    @pytest.mark.parametrize("N", [8, 9, 10])
    def test_scaling_member_certificate(self, N):
        P = _fresh(builtin("borel2", N, 8).quea)
        cert = prime_membership(parse_element("h^3*x*y^2", P), P)
        assert cert.verdict == "MemberUpToTruncation"
        assert cert.valuations == [math.inf, 3, 3, 3, *range(4, N + 1)]

    def test_scaling_nonmember_certificate(self):
        P = _fresh(builtin("borel2", 8, 8).quea)
        cert = prime_membership(parse_element("y*x*y", P), P)
        assert cert.verdict == "NotMember"
        assert cert.witness == 1
        assert cert.valuations == [math.inf, 0, 0, 0, 1, 2, 3, 4, 5]


# -- slot-table tensor kernel ---------------------------------------------------
#
# multiply and _expand_into as they were before the slot table, the
# valuation-filtered partners and the products that take their cut: every
# pair of keys is visited, every slot product is a normal form, and each
# partial product is formed uncut and cut at N at the end.

def pre_slot_table_tensor_multiply(s, t, P):
    N, D = P.h_order, P.degree_cap
    ident = P.identity_monomial()
    acc = {}
    for ka, ca in s.terms.items():
        va = ca.v_min
        for kb, cb in t.terms.items():
            if va + cb.v_min > N:
                continue
            slots = []
            expand = False
            for ma, mb in zip(ka, kb):
                if D is not None and ma.degree + mb.degree > D:
                    break
                if ma is ident or mb is ident:
                    slots.append(mb if ma is ident else ma)
                    continue
                nf = _nf(P, ma, mb)
                terms = nf.terms
                if len(terms) == 1:
                    (((m,), cm),) = terms.items()
                    if cm.is_exact_one() and cm.order >= N:
                        slots.append(m)
                        continue
                elif not terms:
                    break
                slots.append(nf)
                expand = True
            else:
                c = ca * cb
                if N + c.v_min < c.order:
                    slots = [_nf(P, ma, mb)
                             for ma, mb in zip(ka, kb)]
                    expand = True
                if expand:
                    pre_slot_table_expand_into(acc, slots, c, N)
                else:
                    hopf.add_into(acc, tuple(slots), c.truncate(N))
    return TensorElement(P.name, s.rank, acc)


def pre_slot_table_expand_into(acc, slots, coeff, h_order):
    keys = [()]
    coeffs = [coeff]
    for e in slots:
        if type(e) is Monomial:
            keys = [key + (e,) for key in keys]
            continue
        nkeys, ncoeffs = [], []
        for key, c in zip(keys, coeffs):
            vc = c.v_min
            for km, cm in e.terms.items():
                if vc + cm.v_min > h_order:
                    continue
                nkeys.append(key + km)
                ncoeffs.append(c * cm)
        keys, coeffs = nkeys, ncoeffs
    for key, c in zip(keys, coeffs):
        hopf.add_into(acc, key, c.truncate(h_order))


def _deviation_products(P, seed, shift=None):
    """(da[lam], db[y]) for every covering pair lam | y = {1..n}, n = 1..3,
    of a few random pairs, as the deviation-product criterion builds them;
    with shift = (v, extra), every coefficient is also moved to valuation
    v(c) + v and known extra orders past N."""
    rng = random.Random(seed)
    pairs = list(zip(random_elements(P, rng, 3, max_terms=2),
                     random_elements(P, rng, 3, max_terms=2)))
    out = []
    for n in (1, 2, 3):
        phi = tuple(range(1, n + 1))
        for a, b in pairs:
            da = {s: delta_E(a, s, n, P) for k in range(n + 1)
                  for s in itertools.combinations(phi, k)}
            db = {s: delta_E(b, s, n, P) for k in range(n + 1)
                  for s in itertools.combinations(phi, k)}
            for lam, y in selftest._covering_pairs(phi):
                out.append((da[lam], db[y]))
                out.append((db[y], da[lam]))
    if shift is None:
        return out
    v, extra = shift

    def moved(t):
        return TensorElement(P.name, t.rank, {
            k: HSeries(c.v_min + v, P.h_order + extra, [1, *c.coeffs])
            for k, c in t.terms.items()})
    return [(moved(s), moved(t)) for s, t in out]


class TestSlotTableKernel:
    @pytest.mark.parametrize("prime", [False, True])
    @pytest.mark.parametrize("name", BUILTINS)
    def test_matches_the_pre_slot_table_loop(self, name, prime):
        P = builtin(name, 4, 4).quea
        if prime:
            P = prime_presentation(P, 4)
        Q, R = _fresh(P), _fresh(P)
        for s, t in _deviation_products(P, 11):
            got = hopf.multiply(s, t, Q)
            want = pre_slot_table_tensor_multiply(s, t, R)
            assert _exact(got) == _exact(want)
            assert list(got.terms) == list(want.terms)
        assert Q._slot_table

    @pytest.mark.parametrize("shift", [(0, 2), (1, 0)])
    def test_shifted_coefficients_match_the_pre_slot_table_loop(self, shift):
        # coefficients known past h^(N + v): the old loop expanded every slot
        # from its full normal form, which with every valuation >= 0 gives
        # what a unit slot gives
        P = builtin("borel2", 4, 4).quea
        Q, R = _fresh(P), _fresh(P)
        for s, t in _deviation_products(P, 12, shift)[:60]:
            got = hopf.multiply(s, t, Q)
            want = pre_slot_table_tensor_multiply(s, t, R)
            assert _exact(got) == _exact(want)
            assert list(got.terms) == list(want.terms)

    def test_unit_known_to_a_low_order_is_a_coefficient(self):
        # y*x = x*y + r with r's coefficient exactly 1 but known only to
        # h^2: that 1 cuts each product it meets, so it is no unit marker
        P = builtin("borel2", 4, 4).quea
        x, y = Monomial((1, 0)), Monomial((0, 1))
        low_one = from_monomial(P.name, y, HSeries.one(2))
        Q, R = (Presentation(P.name, P.model, P.generators, 4, None,
                             {(0, 1): low_one}, P.coproduct_on_gens,
                             P.counit_on_gens, P.antipode_on_gens)
                for _ in range(2))
        rng = random.Random(14)
        elems = random_elements(Q, rng, 6, max_degree=2, max_h=2)
        for a, b in zip(elems, elems[1:]):
            s, t = coproduct(b, Q), coproduct(a, Q)
            got = hopf.multiply(s, t, Q)
            want = pre_slot_table_tensor_multiply(s, t, R)
            assert _exact(got) == _exact(want)
            assert list(got.terms) == list(want.terms)
        yx = Q._slot_table[(y, x)]
        assert [(m, c) for m, c in yx if m is y] == [(y, HSeries.one(2))]

    @pytest.mark.parametrize("name", BUILTINS)
    def test_slot_table_entries(self, name):
        # None for a zero product, the monomial for a single exact 1 known
        # to h^N, and otherwise the terms with each such 1 marked None
        P = _fresh(prime_presentation(builtin(name, 4, 4).quea, 3))
        for s, t in _deviation_products(P, 13)[:40]:
            hopf.multiply(s, t, P)
        assert P._slot_table
        N = P.h_order
        for (ma, mb), e in P._slot_table.items():
            nf = _nf(P, ma, mb)
            if e is None:
                assert nf.is_zero()
            elif type(e) is Monomial:
                assert _exact(nf) == _exact(from_monomial(P.name, e,
                                                          HSeries.one(N)))
            else:
                assert len(e) == len(nf.terms)
                assert len(e) > 1 or e[0][1] is not None
                for (m, c), ((m2,), c2) in zip(e, nf.terms.items()):
                    assert m == m2
                    if c is None:
                        assert c2.is_exact_one() and c2.order >= N
                    else:
                        assert _exact(c) == _exact(c2) and not (
                            c2.is_exact_one() and c2.order >= N)


class TestDeviationProductMutant:
    def _rows(self, cop):
        P = builtin("borel2", 4, 4).quea
        Q = Presentation(P.name, P.model, P.generators, P.h_order,
                         P.degree_cap, P.relations, cop, P.counit_on_gens,
                         P.antipode_on_gens)
        rng = random.Random(4)
        pairs = list(zip(random_elements(Q, rng, 6, max_terms=2),
                         random_elements(Q, rng, 6, max_terms=2)))
        return selftest.product_expansion([(Q, pairs)])

    def test_perturbed_coproduct_fails_the_rows(self):
        # Delta(x) + h y (x) y no longer respects y*x = x*y - y, so
        # Delta(ab) != Delta(a) Delta(b) and the expansion of delta_n(ab)
        # fails from n = 2 on; delta_1 = id - eps is multiplicative anyway
        P = builtin("borel2", 4, 4).quea
        y = Monomial((0, 1))
        bump = TensorElement(P.name, 2, {(y, y): HSeries.h_power(1, 4)})
        rows = self._rows({"x": P.coproduct_on_gens["x"] + bump,
                           "y": P.coproduct_on_gens["y"]})
        assert len(rows) == 6
        failed = [r for r in rows if not r.passed]
        assert {r.subject.split(": ")[1][:7] for r in failed} == {
            "delta_2", "delta_3"}
        assert len(failed) == 4
        # each names its first failing pair and that pair's leading terms
        for r in failed:
            count, first = r.detail.split("; first: a = ")
            assert count.endswith(" failures") and count != "0 failures"
            assert ", b = " in first and ": discrepancy: (" in first
        assert all(r.detail == "0 failures" for r in rows if r.passed)

    def test_unperturbed_coproduct_passes_the_rows(self):
        P = builtin("borel2", 4, 4).quea
        rows = self._rows(dict(P.coproduct_on_gens))
        assert len(rows) == 6 and all(r.passed for r in rows)
