"""Truncated Hopf pairings between an enveloping-type presentation and a
degree-capped one.

A pairing is seeded by generator-vs-generator values and evaluated by one
compatibility rule read both ways round, <uv, w> = <u (x) v, Delta(w)> and
<u, vw> = <Delta(u), v (x) w>.  _pair_split pairs two rank-2 tensors slot
by slot; which of them holds the coproduct is data, not a code branch.
The recursion consumes the left word one generator at a time; the
single-generator-versus-monomial base case splits the right word instead.
A per-call memo table keeps evaluation polynomial, and a recursion-stack
guard turns any (never expected) cyclic dependency into a hard error
instead of a hang.

The orthogonality route to membership pairs a candidate against spanning
products of the right-hand augmentation-plus-h ideal and demands h^n
divisibility of the values; it is the independent cross-check of the
deviation-map route.  It is sound only for a Hopf pairing, so it checks
the seed itself on every call: a seed carries no verdict of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import InputError, MixedPresentations, PresentationError
from .freealg import Monomial, TensorElement
from .hopf import (POLY, SERIES, Presentation, antipode, coproduct_monomial,
                   counit, multiply)
from .drinfeld import MembershipCertificate, certify
from .report import HopfReport
from .series import HSeries

import itertools
import math


@dataclass(frozen=True)
class PairingSeed:
    """Generator-pair values inducing a candidate Hopf pairing."""

    left: Presentation
    right: Presentation
    values: dict  # (left gen index, right gen index) -> HSeries

    @property
    def order(self) -> int:
        return min(self.left.h_order, self.right.h_order)

    def value(self, li: int, ri: int) -> HSeries:
        got = self.values.get((li, ri))
        return got if got is not None else HSeries.zero(self.order)


def _first_letter_split(m: Monomial) -> tuple[Monomial, Monomial]:
    """(first generator, remaining ordered monomial), whose product is m."""
    i = next(k for k, e in enumerate(m.exponents) if e)
    rest = list(m.exponents)
    rest[i] -= 1
    return Monomial.generator(i, len(rest)), Monomial(rest)


def _pair_split(seed: PairingSeed, left: dict, right: dict, memo: dict,
                stack: set) -> HSeries:
    """<s, t> for rank-2 tensors s, t given as key -> coefficient maps:
    the sum of c_s * c_t * <s1, t1> * <s2, t2> over their keys.

    With s = u (x) v and t = Delta(w) this is <uv, w>; with s = Delta(u)
    and t = v (x) w it is <u, vw>.
    """
    acc = HSeries.zero(seed.order)
    for (s1, s2), cs in left.items():
        for (t1, t2), ct in right.items():
            a = _pair_mono(seed, s1, t1, memo, stack)
            if a.is_zero():
                continue
            b = _pair_mono(seed, s2, t2, memo, stack)
            if b.is_zero():
                continue
            acc = acc + cs * ct * a * b
    return acc.truncate(seed.order)


def _pair_mono(seed: PairingSeed, lm: Monomial, rm: Monomial,
               memo: dict, stack: set) -> HSeries:
    order = seed.order
    if lm.is_identity():
        return (HSeries.one(order) if rm.is_identity()
                else HSeries.zero(order))
    if rm.is_identity():
        return HSeries.zero(order)
    if lm.degree == 1 and rm.degree == 1:
        return seed.value(lm.exponents.index(1), rm.exponents.index(1))
    key = (lm, rm)
    if key in memo:
        return memo[key]
    if key in stack:
        raise InputError("pairing recursion hit a cyclic dependency; "
                         "the seed does not define a pairing")
    stack.add(key)
    one = HSeries.one(order)
    if lm.degree >= 2:
        acc = _pair_split(seed, {_first_letter_split(lm): one},
                          coproduct_monomial(seed.right, rm).terms,
                          memo, stack)
    else:
        acc = _pair_split(seed, coproduct_monomial(seed.left, lm).terms,
                          {_first_letter_split(rm): one}, memo, stack)
    stack.discard(key)
    memo[key] = acc
    return acc


def pair(a: TensorElement, b: TensorElement, seed: PairingSeed,
         _memo: dict | None = None) -> HSeries:
    """Bilinear evaluation of the seeded pairing, truncated at the
    smaller of the two h-orders."""
    if a.pres != seed.left.name:
        raise MixedPresentations(
            f"left element of {a.pres!r}, seed pairs {seed.left.name!r}")
    if b.pres != seed.right.name:
        raise MixedPresentations(
            f"right element of {b.pres!r}, seed pairs {seed.right.name!r}")
    memo = _memo if _memo is not None else {}
    acc = HSeries.zero(seed.order)
    for (lm,), ca in a.terms.items():
        for (rm,), cb in b.terms.items():
            c = ca * cb
            if c.is_zero():
                continue
            acc = acc + c * _pair_mono(seed, lm, rm, memo, set())
    return acc.truncate(seed.order)


def _reliable_order(seed: PairingSeed, absorbable_degree: int) -> int:
    """Order through which two evaluation routes of the pairing must agree.

    The right side's degree cap D cuts its coproducts: the first missing
    tensor slot has degree D + 1, and pairing it costs one power of h per
    letter it cannot absorb from the (h-free) left monomial.  Values are
    therefore only trustworthy through h^(D - absorbable_degree); beyond
    that, differently-assembled routes see different boundary terms.
    """
    cap = seed.right.degree_cap
    if cap is None:
        return seed.order
    return min(seed.order, cap - absorbable_degree)


def pairing_axioms_check(seed: PairingSeed, degree_bound: int) -> HopfReport:
    """All pairing compatibility rules on monomial pairs up to the degree
    bound, compared through the truncation-reliable window.  A negative
    degree bound checks no monomial, and one above the right side's degree
    cap leaves no reliable window, so either is an input error."""
    if degree_bound < 0:
        raise InputError(f"degree bound {degree_bound} is negative")
    L, R = seed.left, seed.right
    rep = HopfReport()
    memo: dict = {}
    cmp_order = _reliable_order(seed, degree_bound)
    if cmp_order < 0:
        raise InputError(
            f"the pairing axiom suite runs to degree {degree_bound}, above "
            f"the right side's degree cap {R.degree_cap}: no pairing value "
            "is reliable at any h-order")
    one = HSeries.one(seed.order)

    def same(a: HSeries, b: HSeries) -> bool:
        return a.truncate(cmp_order) == b.truncate(cmp_order)

    lmonos = L.monomials_up_to(degree_bound)
    rmonos = R.monomials_up_to(degree_bound)

    def lelem(m):
        return TensorElement(L.name, 1, {(m,): HSeries.one(L.h_order)})

    def relem(m):
        return TensorElement(R.name, 1, {(m,): HSeries.one(R.h_order)})

    for m in lmonos:
        got = pair(lelem(m), R.unit(), seed, memo)
        want = counit(lelem(m), L)
        rep.add("pair-with-right-unit", repr(m), same(got, want))
    for m in rmonos:
        got = pair(L.unit(), relem(m), seed, memo)
        want = counit(relem(m), R)
        rep.add("pair-with-left-unit", repr(m), same(got, want))

    for u1, u2 in itertools.product(lmonos, repeat=2):
        if u1.degree + u2.degree > degree_bound or not u1.degree or not u2.degree:
            continue
        prod = multiply(lelem(u1), lelem(u2), L)
        for v in rmonos:
            got = pair(prod, relem(v), seed, memo)
            want = _pair_split(seed, {(u1, u2): one},
                               coproduct_monomial(R, v).terms, memo, set())
            rep.add("left-product-compat",
                    f"<{u1!r}*{u2!r}, {v!r}>", same(got, want),
                    "" if same(got, want) else f"{got} vs {want}")

    for v1, v2 in itertools.product(rmonos, repeat=2):
        if v1.degree + v2.degree > degree_bound or not v1.degree or not v2.degree:
            continue
        prod = multiply(relem(v1), relem(v2), R)
        for u in lmonos:
            got = pair(lelem(u), prod, seed, memo)
            want = _pair_split(seed, coproduct_monomial(L, u).terms,
                               {(v1, v2): one}, memo, set())
            rep.add("right-product-compat",
                    f"<{u!r}, {v1!r}*{v2!r}>", same(got, want),
                    "" if same(got, want) else f"{got} vs {want}")

    for u in lmonos:
        su = antipode(lelem(u), L)
        for v in rmonos:
            got = pair(su, relem(v), seed, memo)
            want = pair(lelem(u), antipode(relem(v), R), seed, memo)
            rep.add("antipode-compat", f"<S({u!r}), {v!r}>", same(got, want))
    return rep


def _ideal_spanning_products(R: Presentation, n: int,
                             levels: list) -> tuple[TensorElement, ...]:
    """Products of exactly n factors drawn from {h * 1} and the
    generators, capped at the degree bound; they span the n-th power of
    the augmentation-plus-h ideal up to higher truncation.

    The products depend only on (R, n), so `levels`, which the caller keeps
    for one oracle call, holds them per n, keyed by their factor
    combination.  Each product for n is the one for its first n - 1 factors
    times the last, the same multiplications multiply_all makes, in
    combinations_with_replacement order.
    """
    if len(levels) <= n:
        if not levels:
            levels.append({(): R.unit()})
        h_unit = R.unit().scaled(HSeries.h_power(1, R.h_order))
        factors = [h_unit] + [R.gen(g) for g in R.generators]
        cap = R.degree_cap
        for k in range(len(levels), n + 1):
            prev, level = levels[-1], {}
            for combo in itertools.combinations_with_replacement(
                    range(len(factors)), k):
                if cap is not None and sum(1 for i in combo if i > 0) > cap:
                    continue
                level[combo] = multiply(prev[combo[:-1]],
                                        factors[combo[-1]], R)
            levels.append(level)
    return tuple(levels[n].values())


def orthogonal_membership(candidates: list[TensorElement], seed: PairingSeed,
                          n_max: int | None = None
                          ) -> list[MembershipCertificate]:
    """Membership certificates via orthogonality: pair each candidate
    against spanning sets of the n-th ideal power and require value
    valuation >= n.  The route is sound only for a Hopf pairing, so a seed
    that fails its degree-2 compatibility suite is an input error.

    Values are read through the truncation-reliable window (see
    _reliable_order); divisibility beyond that window is unobservable, so
    positive verdicts are, as always, relative to truncation.  A candidate
    of degree d with an h^(d-1) coefficient fails at n = d with a value of
    valuation d - 1, so a degree cap whose window ends below h^(d-1) could
    certify a non-member: it is an input error.
    """
    if seed.right.model != SERIES:
        raise PresentationError("membership oracle needs a SERIES right side")
    if seed.left.model != POLY:
        raise PresentationError("membership oracle needs a POLY left side")
    cap = seed.right.degree_cap
    degrees = [max((m.degree for (m,) in a.terms), default=0)
               for a in candidates]
    d = max(degrees, default=0)
    if cap - d < d - 1:
        raise InputError(
            f"a candidate has degree {d}: a witness can need pairing "
            f"values through h^{d - 1}, which needs the right side's "
            f"degree cap to be at least {2 * d - 1}, not {cap}")
    check = pairing_axioms_check(seed, 2)
    if not check.passed:
        row = check.failures()[0]
        raise InputError(f"the seed is not a Hopf pairing: {row.check} "
                         f"fails at {row.subject}")
    memo: dict = {}
    levels: list = []

    def worst_valuation(a: TensorElement, window: int, n: int):
        worst = math.inf
        for w in _ideal_spanning_products(seed.right, n, levels):
            v = pair(a, w, seed, memo).truncate(window).valuation()
            worst = min(worst, v)
            if worst < n:
                break
        return worst

    return [certify(a, n_max, seed.left.h_order,
                    partial(worst_valuation, a, _reliable_order(seed, d)))
            for a, d in zip(candidates, degrees)]
