"""The presentation engine.

A Presentation describes a Hopf algebra by generators: pairwise rewriting
relations x_j x_i = x_i x_j + r_ij (i < j), coproducts / counits /
antipodes on generators, an h-truncation order N and, for degree-capped
(SERIES) presentations, a total-degree cap D.

normal_form rewrites words onto the ordered-monomial basis; everything
else (products, coproducts, antipodes, the iterated coproducts and the
deviation maps delta_E / delta_n) is built on top of it by (anti-)
multiplicative and linear extension.

Models:
  POLY    enveloping-algebra flavour, ordered monomials of any degree;
  SERIES  function-algebra flavour, monomials capped at total degree D,
          relations expected to commute mod h.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import FuelExceeded, MixedPresentations, PresentationError
from .freealg import Element, Monomial, TensorElement, add_into
from .report import HopfReport
from .series import HSeries

POLY = "POLY"
SERIES = "SERIES"

_RESERVED_NAMES = {"h", "exp"}


class Presentation:
    """Immutable Hopf-algebra-by-generators description.

    Relation admissibility (enforced at construction): every monomial of
    r_ij has total degree <= 1, or degree exactly 2 with coefficient
    valuation >= 1 and monomial strictly below x_i x_j in deglex order.
    This is the shape that keeps rewriting terminating; the fuel bound in
    normal_form is the runtime safety net.

    Generator counits are normalized to zero.  A description with
    epsilon(x) = c != 0 is rejected with a pointer to the substitution
    x -> x - c that removes the offset.
    """

    def __init__(self, name: str, model: str, generators: Sequence[str],
                 h_order: int, degree_cap: int | None,
                 relations: Mapping[tuple[int, int], Element],
                 coproduct_on_gens: Mapping[str, TensorElement],
                 counit_on_gens: Mapping[str, HSeries],
                 antipode_on_gens: Mapping[str, Element]):
        if model not in (POLY, SERIES):
            raise PresentationError(f"unknown model {model!r}")
        if model == SERIES and degree_cap is None:
            raise PresentationError("SERIES model needs a degree cap")
        if model == POLY:
            degree_cap = None
        if h_order < 1:
            raise PresentationError("h_order must be >= 1")
        if len(set(generators)) != len(generators):
            raise PresentationError("generator names must be distinct")
        for g in generators:
            if g in _RESERVED_NAMES:
                raise PresentationError(f"generator name {g!r} is reserved")

        self.name = name
        self.model = model
        self.generators = list(generators)
        self.h_order = h_order
        self.degree_cap = degree_cap
        self.ngens = len(self.generators)
        self.gen_index = {g: i for i, g in enumerate(self.generators)}

        pairs = list(itertools.combinations(range(self.ngens), 2))
        for key in relations:
            if key not in pairs:
                raise PresentationError(
                    f"relation key {key!r} is not a generator index pair "
                    f"(i, j) with 0 <= i < j < {self.ngens}")
        self.relations = {}
        for i, j in pairs:
            r = relations.get((i, j))
            if r is None:
                r = Element.zero(name)
            self._check_relation(i, j, r)
            self.relations[(i, j)] = r.truncate(h_order, degree_cap)

        for what, given in (("coproduct", coproduct_on_gens),
                            ("counit", counit_on_gens),
                            ("antipode", antipode_on_gens)):
            stray = sorted(set(given) - set(self.generators))
            if stray:
                raise PresentationError(
                    f"{what} given for {', '.join(map(repr, stray))}, which "
                    "is not a generator")
        self.coproduct_on_gens = {}
        self.counit_on_gens = {}
        self.antipode_on_gens = {}
        for g in self.generators:
            eps = counit_on_gens.get(g, HSeries.zero(h_order))
            if not eps.is_zero():
                raise PresentationError(
                    f"counit of generator {g!r} is {eps}, not 0; replace the "
                    f"generator by {g} - ({eps}) to normalize it away")
            self.counit_on_gens[g] = HSeries.zero(h_order)
            cop = coproduct_on_gens.get(g)
            if cop is None or cop.rank != 2:
                raise PresentationError(f"generator {g!r} needs a rank-2 "
                                        "coproduct entry")
            self.coproduct_on_gens[g] = cop.truncate(h_order, degree_cap)
            ant = antipode_on_gens.get(g)
            if ant is None:
                raise PresentationError(f"generator {g!r} needs an antipode "
                                        "entry")
            self.antipode_on_gens[g] = ant.truncate(h_order, degree_cap)

        # caches, keyed by immutable values; shared across all operations
        self._nf_cache: dict[tuple[int, ...], Element] = {}
        # product table: (ma, mb) -> (normal form of ma*mb, its h-valuation)
        self._product_cache: dict[tuple[Monomial, Monomial],
                                  tuple[Element, int | float]] = {}
        self._coproduct_cache: dict[Monomial, TensorElement] = {}
        self._antipode_cache: dict[Monomial, Element] = {}
        self._iterated_cache: dict[tuple[Monomial, int], TensorElement] = {}
        self._delta_cache: dict[tuple[Monomial, int], TensorElement] = {}
        # pairing._ideal_spanning_products: [n] -> factor combination -> product
        self._ideal_products: list[dict[tuple[int, ...], Element]] = []

    # -- construction helpers ------------------------------------------------

    def _check_relation(self, i: int, j: int, r: Element):
        if r.pres != self.name:
            raise MixedPresentations(
                f"relation ({i},{j}) belongs to {r.pres!r}")
        lhs = Monomial.generator(i, self.ngens).merged(
            Monomial.generator(j, self.ngens))
        for m, c in r.terms.items():
            if m.degree <= 1:
                continue
            if (m.degree == 2 and c.valuation() >= 1
                    and m.deglex_key() < lhs.deglex_key()):
                continue
            raise PresentationError(
                f"relation ({self.generators[i]},{self.generators[j]}) has "
                f"inadmissible monomial {m.exponents} (degree {m.degree})")

    # -- small constructors ----------------------------------------------------

    def identity_monomial(self) -> Monomial:
        return Monomial.identity(self.ngens)

    def zero(self) -> Element:
        return Element.zero(self.name)

    def unit(self, value=1) -> Element:
        return Element.unit(self.name, self.ngens, self.h_order, value)

    def gen(self, g: str | int) -> Element:
        i = g if isinstance(g, int) else self.gen_index[g]
        return Element.from_monomial(
            self.name, Monomial.generator(i, self.ngens),
            HSeries.one(self.h_order))

    def monomials_up_to(self, degree: int) -> list[Monomial]:
        """All ordered monomials of total degree <= degree, deglex order."""
        out = []
        for d in range(degree + 1):
            for c in itertools.combinations_with_replacement(
                    range(self.ngens), d):
                out.append(Monomial.from_word(c, self.ngens))
        return sorted(out, key=Monomial.deglex_key)

    def __repr__(self):
        return (f"Presentation({self.name!r}, {self.model}, "
                f"gens={self.generators}, N={self.h_order}, "
                f"D={self.degree_cap})")


# -- rewriting ----------------------------------------------------------------


def _fuel_bound(P: Presentation, word_len: int) -> int:
    cap = P.degree_cap if P.degree_cap is not None else P.h_order
    return 10 * max(1, word_len) * (cap + P.h_order + 2) ** 2


def _rewrite_at(P: Presentation, word: tuple[int, ...], t: int,
                coeff: HSeries) -> list[tuple[HSeries, tuple[int, ...]]]:
    """Apply x_j x_i -> x_i x_j + r_ij at position t (word[t] > word[t+1])."""
    j, i = word[t], word[t + 1]
    swapped = word[:t] + (i, j) + word[t + 2:]
    branches = [(coeff, swapped)]
    r = P.relations[(i, j)]
    prefix, suffix = word[:t], word[t + 2:]
    for m, c in r.terms.items():
        branches.append((coeff * c, prefix + m.word() + suffix))
    return branches


def _first_inversion(word: tuple[int, ...]) -> int | None:
    for t in range(len(word) - 1):
        if word[t] > word[t + 1]:
            return t
    return None


def normal_form(word: Sequence[int], P: Presentation,
                coeff: HSeries | None = None) -> Element:
    """Rewrite a word of generator indices onto ordered monomials.

    Deterministic (leftmost inversion first), truncated to the
    presentation's (N, D), and guarded by a fuel bound whose exhaustion
    raises FuelExceeded rather than returning a silently wrong answer.
    """
    word = tuple(word)
    base = P._nf_cache.get(word)
    if base is None:
        base = _normal_form_uncached(word, P)
        P._nf_cache[word] = base
    if coeff is None:
        return base
    return base.scaled(coeff)


def _normal_form_uncached(word: tuple[int, ...], P: Presentation) -> Element:
    fuel = _fuel_bound(P, len(word))
    acc: dict[Monomial, HSeries] = {}
    todo = [(HSeries.one(P.h_order), word)]
    while todo:
        coeff, w = todo.pop()
        if coeff.is_zero():
            continue
        if P.degree_cap is not None and len(w) > P.degree_cap:
            continue
        t = _first_inversion(w)
        if t is None:
            m = Monomial.from_word(w, P.ngens)
            acc[m] = acc[m] + coeff if m in acc else coeff
            continue
        fuel -= 1
        if fuel < 0:
            raise FuelExceeded(
                f"rewriting of a word of length {len(word)} in "
                f"{P.name!r} exceeded its fuel bound")
        todo.extend(_rewrite_at(P, w, t, coeff))
    return Element(P.name, acc).truncate(P.h_order, P.degree_cap)


def _product(P: Presentation, ma: Monomial,
             mb: Monomial) -> tuple[Element, int | float]:
    """Fill the product-table entry of (ma, mb): the normal form of ma*mb
    and its h-valuation.  Callers look in P._product_cache first."""
    nf = normal_form(ma.word() + mb.word(), P)
    entry = P._product_cache[(ma, mb)] = (nf, nf.h_valuation())
    return entry


def multiply(a: Element, b: Element, P: Presentation) -> Element:
    """Bilinear extension of word concatenation + normal_form.

    Truncation-aware: with c_m a coefficient of nf(m_a m_b), the product
    term c_a c_b c_m has valuation v(c_a) + v(c_b) + v(c_m).  A pair is
    skipped when that sum with the least v(c_m) exceeds N, and a term when
    its own sum does: either lands wholly above h^N, which truncation at N
    discards.  The least v(c_m) can be negative (a Laurent relation
    coefficient such as -h^-1), so it is part of the pair bound.  Stored
    coefficients are nonzero, so v_min is their valuation.
    """
    _check_owner(P, a, b)
    N = P.h_order
    table = P._product_cache
    acc: dict = {}
    for ma, ca in a.terms.items():
        va = ca.v_min
        for mb, cb in b.terms.items():
            nf, v = table.get((ma, mb)) or _product(P, ma, mb)
            if va + cb.v_min + v > N:
                continue
            c = ca * cb
            vc = c.v_min
            for m, cm in nf.terms.items():
                if vc + cm.v_min <= N:
                    add_into(acc, m, (cm * c).truncate(N))
    return Element(P.name, acc)


def multiply_all(factors: Iterable[Element], P: Presentation) -> Element:
    acc = P.unit()
    for f in factors:
        acc = multiply(acc, f, P)
    return acc


def element_exp(a: Element, P: Presentation) -> Element:
    """exp of an element with h-valuation >= 1 (truncation-convergent)."""
    from .errors import NotTopologicallyNilpotent
    if a.h_valuation() < 1:
        raise NotTopologicallyNilpotent(
            f"element exp needs h-valuation >= 1, got {a.h_valuation()}")
    acc = P.unit()
    term = P.unit()
    for k in range(1, P.h_order + 1):
        term = multiply(term, a, P).scaled(Fraction(1, k))
        if term.is_zero():
            break
        acc = acc + term
    return acc


def _check_owner(P: Presentation, *values):
    for v in values:
        if v.pres != P.name:
            raise MixedPresentations(
                f"value belongs to {v.pres!r}, not {P.name!r}")


# -- tensor algebra (componentwise normal form) ---------------------------------


def tensor_multiply(s: TensorElement, t: TensorElement,
                    P: Presentation) -> TensorElement:
    """Product in the rank-n tensor algebra over P, slot by slot.

    Truncation-aware like multiply: a pair of terms is skipped when
    v(c_a) + v(c_b) plus the least valuation of each slot's normal form
    exceeds N.  Those valuations may be negative (a Laurent relation
    coefficient), so a bound on v(c_a) + v(c_b) alone would be unsound.
    """
    if s.rank != t.rank:
        raise MixedPresentations("tensor ranks differ")
    N = P.h_order
    table = P._product_cache
    acc: dict = {}
    for ka, ca in s.terms.items():
        va = ca.v_min
        for kb, cb in t.terms.items():
            slots = [table.get(pair) or _product(P, *pair)
                     for pair in zip(ka, kb)]
            if va + cb.v_min + sum(v for _, v in slots) > N:
                continue
            _expand_into(acc, slots, ca * cb, N)
    return TensorElement(P.name, s.rank, acc)


def _expand_into(acc: dict, slots: Sequence[tuple[Element, int | float]],
                 coeff: HSeries, h_order: int) -> None:
    """Merge coeff * (e_1 (x) ... (x) e_k) into monomial-tuple terms of acc,
    each cut at h_order; `slots` pairs each e_i, truncated to the
    presentation, with its h-valuation.

    Truncation-aware: a partial product coeff * c_1 ... c_i is dropped as
    soon as its valuation plus the least valuations of e_(i+1) .. e_k
    exceeds h_order, because every term it would grow into lands above
    h^h_order.  Those least valuations can be negative (Laurent
    coefficients), so they are part of the bound.
    """
    lowest = sum(v for _, v in slots)
    if coeff.valuation() + lowest > h_order:   # also when a slot is zero
        return
    bound = h_order - lowest
    keys = [()]
    coeffs = [coeff]
    for e, v in slots:
        bound += v      # h_order minus the least valuations still to come
        nkeys, ncoeffs = [], []
        for key, c in zip(keys, coeffs):
            vc = c.v_min
            for m, cm in e.terms.items():
                if vc + cm.v_min > bound:
                    continue
                nkeys.append(key + (m,))
                ncoeffs.append(c * cm)
        keys, coeffs = nkeys, ncoeffs
    for key, c in zip(keys, coeffs):
        add_into(acc, key, c.truncate(h_order))


# -- structure maps --------------------------------------------------------------


def coproduct_monomial(P: Presentation, m: Monomial) -> TensorElement:
    cached = P._coproduct_cache.get(m)
    if cached is not None:
        return cached
    acc = TensorElement.unit(P.name, 2, P.ngens, P.h_order)
    for letter in m.word():
        acc = tensor_multiply(acc, P.coproduct_on_gens[P.generators[letter]], P)
    P._coproduct_cache[m] = acc
    return acc


def _extend(a: Element, P: Presentation, zero, image, *args):
    """Linear extension of the cached per-monomial map image(P, m, *args)
    over a, truncated to P; `zero` fixes the type and rank of the result.

    Every image is already truncated to P (h-order and degree cap), so the
    result is built in one pass: a term c_m * c whose valuation exceeds N
    is skipped before it is multiplied, and each kept product is cut at N.
    Valuations may be negative (Laurent coefficients); the test is exact,
    since the valuation of a product of nonzero series is the sum.
    """
    _check_owner(P, a)
    N = P.h_order
    acc: dict = {}
    for m, c in a.terms.items():
        vc = c.v_min
        for key, cm in image(P, m, *args).terms.items():
            if vc + cm.v_min <= N:
                add_into(acc, key, (cm * c).truncate(N))
    return zero._new(acc)


def coproduct(a: Element, P: Presentation) -> TensorElement:
    """Multiplicative extension of the generator coproducts."""
    return _extend(a, P, TensorElement.zero(P.name, 2), coproduct_monomial)


def counit(a: Element, P: Presentation) -> HSeries:
    """Coefficient of the identity monomial (generators have counit 0)."""
    _check_owner(P, a)
    c = a.coeff(P.identity_monomial())
    return c if c is not None else HSeries.zero(P.h_order)


def antipode_monomial(P: Presentation, m: Monomial) -> Element:
    cached = P._antipode_cache.get(m)
    if cached is not None:
        return cached
    acc = P.unit()
    for letter in reversed(m.word()):
        acc = multiply(acc, P.antipode_on_gens[P.generators[letter]], P)
    P._antipode_cache[m] = acc
    return acc


def antipode(a: Element, P: Presentation) -> Element:
    """Anti-multiplicative extension of the generator antipodes."""
    return _extend(a, P, P.zero(), antipode_monomial)


# -- iterated coproducts and deviation maps ----------------------------------------


def _tensor_coproduct_slot(t: TensorElement, slot: int,
                           P: Presentation) -> TensorElement:
    """Apply the coproduct to one slot of a tensor, raising its rank by 1.

    t is truncated to P.  A product c * c2 whose valuation exceeds N is
    skipped before it is multiplied; each kept one is cut at N.
    """
    N = P.h_order
    acc: dict[tuple, HSeries] = {}
    for key, c in t.terms.items():
        vc = c.v_min
        for (m1, m2), c2 in coproduct_monomial(P, key[slot]).terms.items():
            if vc + c2.v_min > N:
                continue
            nk = key[:slot] + (m1, m2) + key[slot + 1:]
            nc = (c * c2).truncate(N)
            acc[nk] = acc[nk] + nc if nk in acc else nc
    return TensorElement(P.name, t.rank + 1, acc)


def _iterated_monomial(P: Presentation, m: Monomial, n: int) -> TensorElement:
    """Delta^n on a monomial: expand the first slot of Delta^(n-1).

    Delta^0 is the counit, a rank-0 tensor; Delta^1 is the identity.
    """
    key = (m, n)
    cached = P._iterated_cache.get(key)
    if cached is not None:
        return cached
    if n == 0:
        out = TensorElement(P.name, 0, {(): HSeries.one(P.h_order)}
                            if m.is_identity() else {})
    elif n == 1:
        out = TensorElement(P.name, 1, {(m,): HSeries.one(P.h_order)}
                            ).truncate(P.h_order, P.degree_cap)
    else:
        out = _tensor_coproduct_slot(_iterated_monomial(P, m, n - 1), 0, P)
    P._iterated_cache[key] = out
    return out


def iterated_coproduct(a: Element, n: int, P: Presentation) -> TensorElement:
    """Delta^n; Delta^0 is the counit, a rank-0 (scalar) tensor."""
    return _extend(a, P, TensorElement.zero(P.name, n), _iterated_monomial, n)


def _delta_monomial(P: Presentation, m: Monomial, n: int) -> TensorElement:
    """delta_n on a monomial via delta_n = (delta_{n-1} (x) (id - eps)) o Delta.

    Equivalent to projecting every slot of Delta^n with id - eps, but never
    materializes terms that a later projection would kill.

    Truncation-aware, in one pass: the term pc * c lands above h^N exactly
    when v(pc) + v(c) > N, so it is skipped before it is multiplied, and a
    whole sub-tensor delta_{n-1}(m1) is skipped when v(c) plus its
    valuation exceeds N (each sub-valuation is computed once per call).
    Valuations may be negative (Laurent coefficients); both tests stay
    sound because they bound the valuation of what they skip from below.
    Every sub-tensor is still built, so the cache holds the same entries.
    """
    key = (m, n)
    cached = P._delta_cache.get(key)
    if cached is not None:
        return cached
    if n == 1:
        if m.is_identity():
            out = TensorElement.zero(P.name, 1)
        else:
            out = TensorElement(P.name, 1, {(m,): HSeries.one(P.h_order)}
                                ).truncate(P.h_order, P.degree_cap)
    else:
        N = P.h_order
        acc: dict[tuple, HSeries] = {}
        subs: dict[Monomial, tuple] = {}
        for (m1, m2), c in coproduct_monomial(P, m).terms.items():
            if m2.is_identity():
                continue
            sub = subs.get(m1)
            if sub is None:
                t = _delta_monomial(P, m1, n - 1)
                sub = subs[m1] = (t.terms, t.h_valuation())
            terms, v = sub
            vc = c.v_min
            if vc + v > N:
                continue
            for pkey, pc in terms.items():
                if vc + pc.v_min > N:
                    continue
                nk = pkey + (m2,)
                nc = (pc * c).truncate(N)
                acc[nk] = acc[nk] + nc if nk in acc else nc
        out = TensorElement(P.name, n, acc)
    P._delta_cache[key] = out
    return out


def delta_n(a: Element, n: int, P: Presentation) -> TensorElement:
    """The n-th deviation map (id - eps)^(x n) o Delta^n.

    Supported on tuples with no identity slot; delta_0 = Delta^0 is the
    counit, a rank-0 tensor.
    """
    if n == 0:
        return iterated_coproduct(a, 0, P)
    return _extend(a, P, TensorElement.zero(P.name, n), _delta_monomial, n)


def embed_slots(t: TensorElement, slots: Sequence[int], n: int,
                P: Presentation) -> TensorElement:
    """j_E: place a rank-k tensor into the 1-based slots E of a rank-n one,
    filling the rest with the identity."""
    slots = sorted(slots)
    if len(slots) != t.rank:
        raise ValueError("slot list length must match tensor rank")
    ident = P.identity_monomial()
    out: dict[tuple, HSeries] = {}
    for key, c in t.terms.items():
        padded = [ident] * n
        for pos, m in zip(slots, key):
            padded[pos - 1] = m
        nk = tuple(padded)
        out[nk] = out[nk] + c if nk in out else c
    return TensorElement(P.name, n, out)


def _subset(E: Sequence[int], n: int) -> list[int]:
    E = sorted(set(E))
    if any(not 1 <= i <= n for i in E):
        raise ValueError(f"E={E} is not a subset of 1..{n}")
    return E


def big_delta_E(a: Element, E: Sequence[int], n: int,
                P: Presentation) -> TensorElement:
    """Delta_E = j_E o Delta^{|E|} as a rank-n tensor."""
    E = _subset(E, n)
    return embed_slots(iterated_coproduct(a, len(E), P), E, n, P)


def delta_E(a: Element, E: Sequence[int], n: int,
            P: Presentation) -> TensorElement:
    """delta_E = j_E o delta_{|E|} as a rank-n tensor.

    Built from delta_n, not from Delta_E, so the inversion formula
    Delta_E = sum over psi <= E of delta_psi compares the deviation maps
    against the iterated coproducts; it holds exactly when the coproduct
    is counital.
    """
    E = _subset(E, n)
    return embed_slots(delta_n(a, len(E), P), E, n, P)


# -- axiom checking -----------------------------------------------------------------


def _tensor_counit_slot(t: TensorElement, slot: int,
                        P: Presentation) -> TensorElement:
    acc: dict[tuple, HSeries] = {}
    for key, c in t.terms.items():
        if not key[slot].is_identity():
            continue
        nk = key[:slot] + key[slot + 1:]
        acc[nk] = acc[nk] + c if nk in acc else c
    return TensorElement(P.name, t.rank - 1, acc)


def _convolve_antipode(t: TensorElement, P: Presentation,
                       antipode_slot: int) -> Element:
    """m o (S (x) id) o Delta (slot 0) or m o (id (x) S) o Delta (slot 1)."""
    acc = P.zero()
    for (m1, m2), c in t.terms.items():
        if antipode_slot == 0:
            prod = multiply(antipode_monomial(P, m1),
                            Element.from_monomial(P.name, m2,
                                                  HSeries.one(P.h_order)), P)
        else:
            prod = multiply(Element.from_monomial(P.name, m1,
                                                  HSeries.one(P.h_order)),
                            antipode_monomial(P, m2), P)
        acc = acc + prod.scaled(c)
    return acc.truncate(P.h_order, P.degree_cap)


def check_hopf_axioms(P: Presentation, degree_bound: int) -> HopfReport:
    """Verify the Hopf axioms on all monomials up to the degree bound, and
    that the structure maps respect every relation."""
    rep = HopfReport()
    monos = [m for m in P.monomials_up_to(degree_bound)]
    for m in monos:
        label = _mono_label(P, m)
        elem = Element.from_monomial(P.name, m, HSeries.one(P.h_order))
        cop = coproduct(elem, P)

        left = _tensor_coproduct_slot(cop, 0, P)
        right = _tensor_coproduct_slot(cop, 1, P)
        rep.add("coassociativity", label, left == right,
                _diff_note(left, right))

        ident = iterated_coproduct(elem, 1, P)
        lcu = _tensor_counit_slot(cop, 0, P)
        rcu = _tensor_counit_slot(cop, 1, P)
        rep.add("counit-left", label, lcu == ident, _diff_note(lcu, ident))
        rep.add("counit-right", label, rcu == ident, _diff_note(rcu, ident))

        target = P.unit().scaled(counit(elem, P))
        conv_l = _convolve_antipode(cop, P, 0)
        conv_r = _convolve_antipode(cop, P, 1)
        rep.add("antipode-left", label, conv_l == target,
                _diff_note(conv_l, target))
        rep.add("antipode-right", label, conv_r == target,
                _diff_note(conv_r, target))

    for (i, j), r in P.relations.items():
        gi, gj = P.generators[i], P.generators[j]
        label = f"relation {gj}*{gi}"
        lhs = normal_form((j, i), P)

        d_lhs = coproduct(lhs, P)
        d_rhs = tensor_multiply(coproduct(P.gen(j), P),
                                coproduct(P.gen(i), P), P)
        rep.add("coproduct-respects-relation", label, d_lhs == d_rhs,
                _diff_note(d_lhs, d_rhs))

        e_lhs = counit(lhs, P)
        e_rhs = counit(P.gen(j), P) * counit(P.gen(i), P)
        rep.add("counit-respects-relation", label, e_lhs == e_rhs, "")

        s_lhs = antipode(lhs, P)
        s_rhs = multiply(antipode(P.gen(i), P), antipode(P.gen(j), P), P)
        rep.add("antipode-respects-relation", label, s_lhs == s_rhs,
                _diff_note(s_lhs, s_rhs))
    return rep


def check_diamond(P: Presentation) -> HopfReport:
    """Confluence of overlapping rewrites: for i < j < k resolve the word
    x_k x_j x_i both ways and compare.  A mismatch on degree <= 1
    corrections is exactly a Jacobi defect of the relation constants."""
    rep = HopfReport()
    for i in range(P.ngens):
        for j in range(i + 1, P.ngens):
            for k in range(j + 1, P.ngens):
                word = (k, j, i)
                one = HSeries.one(P.h_order)
                route_a = P.zero()
                for c, w in _rewrite_at(P, word, 0, one):
                    route_a = route_a + normal_form(w, P, c)
                route_b = P.zero()
                for c, w in _rewrite_at(P, word, 1, one):
                    route_b = route_b + normal_form(w, P, c)
                route_a = route_a.truncate(P.h_order, P.degree_cap)
                route_b = route_b.truncate(P.h_order, P.degree_cap)
                label = (f"{P.generators[k]}*{P.generators[j]}"
                         f"*{P.generators[i]}")
                rep.add("diamond", label, route_a == route_b,
                        _diff_note(route_a, route_b))
    if not rep.rows:
        rep.add("diamond", "no generator triples", True, "")
    return rep


def _mono_label(P: Presentation, m: Monomial) -> str:
    if m.is_identity():
        return "1"
    return "*".join(
        (P.generators[i] if e == 1 else f"{P.generators[i]}^{e}")
        for i, e in enumerate(m.exponents) if e)


_NOTE_TERMS = 3


def _diff_note(got, want) -> str:
    """The leading terms of got - want in deglex order, for a failing row;
    a failing axiom can differ in thousands of terms."""
    if got == want:
        return ""
    try:
        diff = got - want
    except MixedPresentations:
        return f"got {got!r}, want {want!r}"
    terms = diff.sorted_terms()
    note = f"discrepancy: {diff._new(dict(terms[:_NOTE_TERMS]))!r}"
    if len(terms) > _NOTE_TERMS:
        note += f" (+{len(terms) - _NOTE_TERMS} more terms)"
    return note
