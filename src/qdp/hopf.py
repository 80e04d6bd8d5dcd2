"""The presentation engine.

A Presentation describes a Hopf algebra by generators: pairwise rewriting
relations x_j x_i = x_i x_j + r_ij (i < j), coproducts / counits /
antipodes on generators, an h-truncation order N and, for degree-capped
(SERIES) presentations, a total-degree cap D.

Two kernels build every structure map.  multiply (with _expand_into) forms
products, slot by slot through the slot table of monomial products, whose
misses take one rewriting step, nf(m*x_j); a normal form is the product of
a word's generators.  _extend applies a per-monomial map linearly to one
slot, optionally in a demand-driven h-window.  Coproducts and antipodes are
(anti-)multiplicative folds of products; iterated coproducts and the
deviation maps delta_E / delta_n are linear extensions.

Models:
  POLY    enveloping-algebra flavour, ordered monomials of any degree;
  SERIES  function-algebra flavour, monomials capped at total degree D,
          relations expected to commute mod h.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (FuelExceeded, InputError, MixedPresentations,
                     NotTopologicallyNilpotent, PresentationError)
from .freealg import Monomial, TensorElement, add_into
from .report import HopfReport
from .series import HSeries, mul

POLY = "POLY"
SERIES = "SERIES"

_RESERVED_NAMES = {"h", "exp"}
_MISS = object()  # a key not in P._slot_table yet


class Presentation:
    """Immutable Hopf-algebra-by-generators description.

    Relation admissibility (enforced at construction): every monomial of
    r_ij has total degree <= 1, or degree exactly 2 with coefficient
    valuation >= 1 and monomial strictly below x_i x_j in deglex order.
    This is the shape that keeps rewriting terminating; a re-entry guard
    in the rewriting step is the runtime safety net.

    Generator counits are normalized to zero.  A description with
    epsilon(x) = c != 0 is rejected with a pointer to the substitution
    x -> x - c that removes the offset.

    A deformation is defined over k[[h]], and HSeries holds no negative
    power of h, so every coefficient the engine forms has valuation >= 0.
    The product loops rely on that bound alone: a product of coefficients
    whose valuations already sum above N can only gain valuation from
    further factors, so it is dropped before it is formed, and each kept
    product is cut at N as it is formed (series.mul); _slot_table caches
    nf(ma*mb) for multiply.

    An element of the algebra is a rank-1 TensorElement, keyed by (m,).
    """

    def __init__(self, name: str, model: str, generators: Sequence[str],
                 h_order: int, degree_cap: int | None,
                 relations: Mapping[tuple[int, int], TensorElement],
                 coproduct_on_gens: Mapping[str, TensorElement],
                 counit_on_gens: Mapping[str, HSeries],
                 antipode_on_gens: Mapping[str, TensorElement]):
        if model not in (POLY, SERIES):
            raise PresentationError(f"unknown model {model!r}")
        if model == SERIES and degree_cap is None:
            raise PresentationError("SERIES model needs a degree cap")
        if model == POLY:
            degree_cap = None
        if h_order < 1:
            raise PresentationError("h_order must be >= 1")
        if degree_cap is not None and degree_cap < 1:
            raise PresentationError("degree cap must be >= 1")
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
                r = TensorElement.zero(name, 1)
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
        self._nf_cache: dict[tuple[Monomial, int], TensorElement] = {}
        self._nf_building: set[tuple[Monomial, int]] = set()
        # product table: (ma, mb) -> normal form of ma*mb; see _slot
        self._slot_table: dict[tuple[Monomial, Monomial], object] = {}
        self._coproduct_cache: dict[Monomial, TensorElement] = {}
        self._antipode_cache: dict[Monomial, TensorElement] = {}
        self._iterated_cache: dict[tuple[Monomial, int], TensorElement] = {}
        # (m, n) -> delta_n(m) at the widest window built so far, and that
        # window; see _delta_monomial
        self._delta_cache: dict[tuple[Monomial, int], TensorElement] = {}
        self._delta_windows: dict[tuple[Monomial, int], int] = {}

    # -- construction helpers ------------------------------------------------

    def _check_relation(self, i: int, j: int, r: TensorElement):
        if r.pres != self.name:
            raise MixedPresentations(
                f"relation ({i},{j}) belongs to {r.pres!r}")
        lhs = Monomial.generator(i, self.ngens).merged(
            Monomial.generator(j, self.ngens))
        for (m,), c in r.terms.items():
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

    def zero(self) -> TensorElement:
        return TensorElement.zero(self.name, 1)

    def unit(self, value=1) -> TensorElement:
        return TensorElement.unit(self.name, 1, self.ngens, self.h_order,
                                  value)

    def lift(self, m: Monomial) -> TensorElement:
        """The element 1 * m."""
        return TensorElement(self.name, 1, {(m,): HSeries.one(self.h_order)})

    def gen(self, g: str | int) -> TensorElement:
        i = g if isinstance(g, int) else self.gen_index[g]
        return self.lift(Monomial.generator(i, self.ngens))

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


def _rewrite_at(P: Presentation, word: tuple[int, ...],
                t: int) -> list[tuple[HSeries, tuple[int, ...]]]:
    """Apply x_j x_i -> x_i x_j + r_ij at position t (word[t] > word[t+1])."""
    j, i = word[t], word[t + 1]
    prefix, suffix = word[:t], word[t + 2:]
    branches = [(HSeries.one(P.h_order), prefix + (i, j) + suffix)]
    for (m,), c in P.relations[(i, j)].terms.items():
        branches.append((c, prefix + m.word() + suffix))
    return branches


def normal_form(word: Sequence[int], P: Presentation) -> TensorElement:
    """Rewrite a word of generator indices onto ordered monomials, truncated
    to the presentation's (N, D); a word longer than D is 0.

    The product of the word's generators, so each letter meets the ordered
    prefix through one slot-table entry, nf(m*x_j) (see _slot).
    """
    D = P.degree_cap
    if D is not None and len(word) > D:
        return P.zero()
    return multiply_all(map(P.gen, word), P)


def _times_generator(P: Presentation, m: Monomial, j: int) -> TensorElement:
    """nf(m*x_j) for an ordered monomial m whose last letter x_k has k > j,
    by m'x_k x_j -> m'x_j x_k + m' r_jk.

    Each branch is below m*x_j in (length, deglex of content, inversions),
    well-founded for admissible relations, so the recursion ends; entering
    an (m, j) still in P._nf_building raises FuelExceeded instead.
    """
    # Only _slot calls this, on a slot-table miss, so P._nf_cache is never
    # read here; it is kept for bench/tracer.py's working_set.
    key = (m, j)
    if key in P._nf_building:
        raise FuelExceeded(f"rewriting in {P.name!r} returned to a word it "
                           "was still rewriting; it does not terminate")
    P._nf_building.add(key)
    try:
        out = P._nf_cache[key] = _resolve_at(P, m.word() + (j,), m.degree - 1)
    finally:
        P._nf_building.discard(key)
    return out


def _resolve_at(P: Presentation, word: tuple[int, ...],
                t: int) -> TensorElement:
    """Rewrite the word once at position t and normal-form every branch."""
    out = P.zero()
    for c, w in _rewrite_at(P, word, t):
        out = out + normal_form(w, P).scaled(c)
    return out.truncate(P.h_order, P.degree_cap)


def multiply_all(factors: Iterable[TensorElement],
                 P: Presentation) -> TensorElement:
    acc = P.unit()
    for f in factors:
        acc = multiply(acc, f, P)
    return acc


def element_exp(a: TensorElement, P: Presentation) -> TensorElement:
    """exp of an element with h-valuation >= 1 (truncation-convergent)."""
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


def multiply(s: TensorElement, t: TensorElement,
             P: Presentation) -> TensorElement:
    """Product in the rank-n tensor algebra over P, slot by slot (rank 1
    is the algebra itself), pruned as the Presentation docstring states: a
    key of s meets only the keys of t with v(c_b) <= N - v(c_a), each slot
    is one lookup in P._slot_table (see _slot), and a pair with a zero slot
    product is skipped.

    A key whose slots are all monomials goes straight into the result;
    otherwise _expand_into takes the slots.  HSeries holds no negative
    power of h, so c = mul(ca, cb, N) has valuation >= 0 and a 1 known to
    h^N, a unit slot, leaves it unchanged.
    """
    _check_owner(P, s, t)
    if s.rank != t.rank:
        raise MixedPresentations("tensor ranks differ")
    N = P.h_order
    get = P._slot_table.get
    acc: dict = {}
    for ka, ca in s.terms.items():
        bound = N - ca.v_min
        for kb, cb in t.terms.items():
            if cb.v_min > bound:
                continue
            slots = []
            expand = False
            for key in zip(ka, kb):
                e = get(key, _MISS)
                if e is _MISS:
                    e = _slot(P, key)
                if e is None:
                    break
                if type(e) is list:
                    expand = True
                slots.append(e)
            else:
                if expand:
                    _expand_into(acc, slots, mul(ca, cb, N), N)
                else:
                    add_into(acc, tuple(slots), mul(ca, cb, N))
    return TensorElement(P.name, s.rank, acc)


# bench/tracer.py's FUNCTION_SPANS wraps the kernel by this name too.
tensor_multiply = multiply


def _slot(P: Presentation, key: tuple[Monomial, Monomial]):
    """The slot-table entry of key = (ma, mb), nf(ma*mb), filled on a miss:
    None when it is 0; the monomial itself when it is one monomial with
    coefficient exactly 1 known to at least h^N; otherwise its list of
    (m, c) terms, where c is None for such a 1.

    A product past the degree cap is 0.  When no letter of ma is above the
    first letter x_j of mb, the concatenation is already ordered; when mb
    is x_j, the product is one rewriting step (_times_generator);
    otherwise it is nf(ma*x_j) times the rest of mb, by multiply.
    """
    ma, mb = key
    N, D = P.h_order, P.degree_cap
    j = next((i for i, e in enumerate(mb.exponents) if e), P.ngens)
    if D is not None and ma.degree + mb.degree > D:
        e = None
    elif not any(ma.exponents[j + 1:]):
        e = ma.merged(mb)
    else:
        rest = Monomial(e - (i == j) for i, e in enumerate(mb.exponents))
        nf = (_times_generator(P, ma, j) if rest.is_identity() else
              multiply(multiply(P.lift(ma), P.gen(j), P), P.lift(rest), P))
        e = [(m, None if c.is_exact_one() and c.order >= N else c)
             for (m,), c in nf.terms.items()]
        if len(e) == 1 and e[0][1] is None:
            e = e[0][0]
        e = e or None
    P._slot_table[key] = e
    return e


def _expand_into(acc: dict, slots: Sequence, coeff: HSeries,
                 h_order: int) -> None:
    """Merge coeff * (e_1 (x) ... (x) e_k) into monomial-tuple terms of acc,
    each cut at h_order; a slot is a rank-1 TensorElement, a Monomial or a
    _slot list.

    HSeries holds no negative power of h, so every valuation is >= 0 and a
    partial product's part above h_order never reaches a term at or below
    it: each one is cut at h_order as it is formed, and dropped once its
    valuation exceeds h_order.  A Monomial slot or a None coefficient
    stands for a 1 that the caller vouches leaves each partial product
    unchanged: no product."""
    keys = [()]
    coeffs = [coeff.truncate(h_order)]
    for e in slots:
        if type(e) is Monomial:
            keys = [key + (e,) for key in keys]
            continue
        terms = e if type(e) is list else [
            (m, c) for (m,), c in e.terms.items()]
        nkeys, ncoeffs = [], []
        for key, c in zip(keys, coeffs):
            vc = c.v_min
            for m, cm in terms:
                if cm is None:
                    nkeys.append(key + (m,))
                    ncoeffs.append(c)
                elif vc + cm.v_min <= h_order:
                    nkeys.append(key + (m,))
                    ncoeffs.append(mul(c, cm, h_order))
        keys, coeffs = nkeys, ncoeffs
    for key, c in zip(keys, coeffs):
        add_into(acc, key, c)


# -- structure maps --------------------------------------------------------------


def _word_fold(P: Presentation, cache: dict, m: Monomial, unit,
               factors: Mapping, reverse: bool = False):
    """unit() * f(x_w1) * ... * f(x_wd) over the ordered word w of m
    (reversed, for an anti-multiplicative map), folded left to right by
    multiply(acc, f(x), P) with f(x) = factors[x].

    Every part the fold passes through, a prefix of w or with reverse a
    suffix, is an ordered monomial, so the fold keeps each part's value in
    cache and resumes from the cached ones: a cached part was built by
    this same fold, so the result is the full fold's, coefficient orders
    included, at one product per part not yet seen."""
    acc = cache.get(m)
    if acc is not None:
        return acc
    acc = unit()
    part = [0] * P.ngens
    word = m.word()
    for letter in reversed(word) if reverse else word:
        part[letter] += 1
        p = Monomial(part)
        t = cache.get(p)
        if t is None:
            t = cache[p] = multiply(acc, factors[P.generators[letter]], P)
        acc = t
    cache[m] = acc  # the identity has no letter, so no part stored it
    return acc


def coproduct_monomial(P: Presentation, m: Monomial) -> TensorElement:
    """Delta(m), multiplicative on the word of m."""
    return _word_fold(
        P, P._coproduct_cache, m,
        lambda: TensorElement.unit(P.name, 2, P.ngens, P.h_order),
        P.coproduct_on_gens)


def _extend(t: TensorElement, P: Presentation, rank: int, image, *args,
            slot: int = 0, w: int | None = None) -> TensorElement:
    """Apply the cached per-monomial map image(P, m, *args), whose values
    have the given rank, linearly to one slot of t: the result has rank
    t.rank - 1 + rank.  On an element, slot 0 is the linear extension of
    the map.

    Every image is already truncated to P (h-order and degree cap), so the
    result is built in one pass, pruned as the Presentation docstring
    states, each product cut at h^N.  With a window w, the result is cut
    at h^w instead, and image takes a window too: each distinct monomial
    m of the slot is asked once, image(P, m, *args, w=w - v), where v is
    the least valuation of its coefficients, and not at all when w - v < 0;
    its terms above that window land above h^w.
    """
    _check_owner(P, t)
    cut = P.h_order if w is None else w
    if w is not None:
        need: dict[Monomial, int] = {}
        for key, c in t.terms.items():
            need[key[slot]] = max(need.get(key[slot], -1), w - c.v_min)
        images = {m: image(P, m, *args, w=wm)
                  for m, wm in need.items() if wm >= 0}
    acc: dict = {}
    for key, c in t.terms.items():
        m = key[slot]
        img = image(P, m, *args) if w is None else images.get(m)
        if img is None:
            continue
        vc = c.v_min
        pre, post = key[:slot], key[slot + 1:]
        for k, cm in img.terms.items():
            if vc + cm.v_min <= cut:
                add_into(acc, pre + k + post, mul(cm, c, cut))
    return TensorElement(P.name, t.rank - 1 + rank, acc)


def coproduct(a: TensorElement, P: Presentation) -> TensorElement:
    """Multiplicative extension of the generator coproducts."""
    return _extend(a, P, 2, coproduct_monomial)


def counit(a: TensorElement, P: Presentation) -> HSeries:
    """Coefficient of the identity monomial (generators have counit 0)."""
    _check_owner(P, a)
    c = a.terms.get((P.identity_monomial(),))
    return c if c is not None else HSeries.zero(P.h_order)


def antipode_monomial(P: Presentation, m: Monomial) -> TensorElement:
    """S(m), anti-multiplicative on the word of m."""
    return _word_fold(P, P._antipode_cache, m, P.unit, P.antipode_on_gens,
                      reverse=True)


def antipode(a: TensorElement, P: Presentation) -> TensorElement:
    """Anti-multiplicative extension of the generator antipodes."""
    return _extend(a, P, 1, antipode_monomial)


# -- iterated coproducts and deviation maps ----------------------------------------


def _iterated_monomial(P: Presentation, m: Monomial, n: int) -> TensorElement:
    """Delta^n on a monomial: the coproduct on slot 0 of Delta^(n-1).

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
        out = P.lift(m).truncate(P.h_order, P.degree_cap)
    else:
        out = _extend(_iterated_monomial(P, m, n - 1), P, 2,
                      coproduct_monomial)
    P._iterated_cache[key] = out
    return out


def iterated_coproduct(a: TensorElement, n: int,
                       P: Presentation) -> TensorElement:
    """Delta^n; Delta^0 is the counit, a rank-0 (scalar) tensor."""
    return _extend(a, P, n, _iterated_monomial, n)


def _delta_monomial(P: Presentation, m: Monomial, n: int, *,
                    w: int | None = None) -> TensorElement:
    """delta_n on a monomial up to h^w (default: the h-order N), via
    delta_n = (delta_{n-1} (x) (id - eps)) o Delta: _extend of delta_{n-1}
    over slot 0 of Delta(m), the terms with the identity in slot 1 dropped.

    Equivalent to projecting every slot of Delta^n with id - eps, but never
    materializes terms that a later projection would kill.  _extend's
    window makes it demand-driven: each delta_{n-1}(m1) is built once, to
    the widest window its coproduct coefficients can reach.  Every
    valuation is >= 0, so the order of each kept product is at least w, and
    the result equals the full-window delta_n(m) cut at w, coefficient
    orders included.

    P._delta_cache holds, per (m, n), the widest window built so far (kept
    in P._delta_windows).  A narrower request reuses that entry uncut,
    since every consumer cuts at its own window; a wider one replaces it.
    """
    if w is None:
        w = P.h_order
    key = (m, n)
    cached = P._delta_cache.get(key)
    if cached is not None and P._delta_windows[key] >= w:
        return cached
    if n == 1:
        terms = {} if m.is_identity() else {(m,): HSeries.one(w)}
        out = TensorElement(P.name, 1, terms).truncate(w, P.degree_cap)
    else:
        cop = TensorElement(P.name, 2, {
            k: c for k, c in coproduct_monomial(P, m).terms.items()
            if not k[1].is_identity()})
        out = _extend(cop, P, n - 1, _delta_monomial, n - 1, w=w)
    P._delta_cache[key] = out
    P._delta_windows[key] = w
    return out


def delta_n(a: TensorElement, n: int, P: Presentation) -> TensorElement:
    """The n-th deviation map (id - eps)^(x n) o Delta^n.

    Supported on tuples with no identity slot; delta_0 = Delta^0 is the
    counit, a rank-0 tensor.
    """
    if n == 0:
        return iterated_coproduct(a, 0, P)
    return _extend(a, P, n, _delta_monomial, n, w=P.h_order)


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
        add_into(out, tuple(padded), c)
    return TensorElement(P.name, n, out)


def _subset(E: Sequence[int], n: int) -> list[int]:
    E = sorted(set(E))
    if any(not 1 <= i <= n for i in E):
        raise ValueError(f"E={E} is not a subset of 1..{n}")
    return E


def big_delta_E(a: TensorElement, E: Sequence[int], n: int,
                P: Presentation) -> TensorElement:
    """Delta_E = j_E o Delta^{|E|} as a rank-n tensor."""
    E = _subset(E, n)
    return embed_slots(iterated_coproduct(a, len(E), P), E, n, P)


def delta_E(a: TensorElement, E: Sequence[int], n: int,
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


def _convolve_antipode(t: TensorElement, P: Presentation,
                       antipode_slot: int) -> TensorElement:
    """m o (S (x) id) o Delta (slot 0) or m o (id (x) S) o Delta (slot 1)."""
    acc = P.zero()
    for key, c in t.terms.items():
        f = [P.lift(m) for m in key]
        f[antipode_slot] = antipode_monomial(P, key[antipode_slot])
        acc = acc + multiply(f[0], f[1], P).scaled(c)
    return acc.truncate(P.h_order, P.degree_cap)


def check_hopf_axioms(P: Presentation, degree_bound: int) -> HopfReport:
    """Verify the Hopf axioms on all monomials up to the degree bound, and
    that the structure maps respect every relation."""
    if degree_bound < 0:
        raise InputError(f"degree bound {degree_bound} is negative")
    rep = HopfReport()
    for m in P.monomials_up_to(degree_bound):
        label = _mono_label(P.generators, m)
        elem = P.lift(m)
        cop = coproduct(elem, P)

        left = _extend(cop, P, 2, coproduct_monomial, slot=0)
        right = _extend(cop, P, 2, coproduct_monomial, slot=1)
        rep.add("coassociativity", label, left == right,
                _diff_note(left, right))

        ident = iterated_coproduct(elem, 1, P)
        # Delta^0 is the counit, a rank-0 map
        lcu = _extend(cop, P, 0, _iterated_monomial, 0, slot=0)
        rcu = _extend(cop, P, 0, _iterated_monomial, 0, slot=1)
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
        d_rhs = multiply(coproduct(P.gen(j), P), coproduct(P.gen(i), P), P)
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
                route_a = _resolve_at(P, (k, j, i), 0)
                route_b = _resolve_at(P, (k, j, i), 1)
                label = (f"{P.generators[k]}*{P.generators[j]}"
                         f"*{P.generators[i]}")
                rep.add("diamond", label, route_a == route_b,
                        _diff_note(route_a, route_b))
    if not rep.rows:
        rep.add("diamond", "no generator triples", True, "")
    return rep


def _mono_label(names: Sequence[str], m: Monomial) -> str:
    if m.is_identity():
        return "1"
    return "*".join((names[i] if e == 1 else f"{names[i]}^{e}")
                    for i, e in enumerate(m.exponents) if e)


_NOTE_TERMS = 3


def _diff_note(got, want) -> str:
    """The leading terms of got - want in deglex order, for a failing row;
    a failing axiom can differ in thousands of terms."""
    if got == want:
        return ""
    diff = got - want
    terms = diff.sorted_terms()
    lead = TensorElement(diff.pres, diff.rank, dict(terms[:_NOTE_TERMS]))
    note = f"discrepancy: {lead!r}"
    if len(terms) > _NOTE_TERMS:
        note += f" (+{len(terms) - _NOTE_TERMS} more terms)"
    return note
