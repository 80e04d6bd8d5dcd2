"""The two rescaling functors at truncation, membership certificates,
round trips, and gauge-equivalence preservation.

An enveloping-type (POLY) presentation is turned into a degree-capped
(SERIES) one on the rescaled generators h*x_i; the inverse functor
divides by h instead.  Every coefficient transform multiplies by a
signed power of h, and whenever that power is negative the division is
performed exactly: its failure (NotDivisible) is a mathematical finding
about the input, not an internal error.

Membership in the subalgebra cut out by "the n-th deviation map lands in
h^n times the n-th tensor power" is checked for n up to the h-order;
beyond that the condition is invisible at truncation, so positive
verdicts are explicitly "up to truncation".  Each valuation is read at the
smallest h-window that shows it (hopf.delta_valuation).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (InputError, MixedPresentations, NotAHopfMap, NotDivisible,
                     PresentationError)
from .freealg import Monomial, TensorElement
from .hopf import (POLY, SERIES, Presentation, _extend, _mono_label,
                   _word_fold, coproduct, counit, delta_n, delta_valuation,
                   multiply, normal_form)
from .report import HopfReport
from .series import HSeries, div_h

MEMBER = "MemberUpToTruncation"
NOT_MEMBER = "NotMember"

PRIME_THEN_VEE = "prime-vee"
VEE_THEN_PRIME = "vee-prime"


class MembershipCertificate(NamedTuple):
    element: str
    n_checked: list[int]
    valuations: list  # int or math.inf, aligned with n_checked
    verdict: str
    witness: int | None = None

    @property
    def is_member(self) -> bool:
        return self.verdict == MEMBER

    def valuation_at(self, n: int):
        return self.valuations[self.n_checked.index(n)]

    def failing_ns(self) -> list[int]:
        return [n for n, v in zip(self.n_checked, self.valuations) if v < n]

    def to_jsonable(self) -> dict:
        return {
            "element": self.element,
            "n_checked": self.n_checked,
            "valuations": [None if v == math.inf else v
                           for v in self.valuations],
            "verdict": self.verdict,
            "witness": self.witness,
        }


def _element_text(a: TensorElement) -> str:
    """The certificate's name for an element: its terms in deglex order as
    (c)*g0*g1^2, generators by index, so that it needs no presentation."""
    bits = []
    for (m,), c in a.sorted_terms():
        names = [f"g{i}" for i in range(len(m.exponents))]
        bits.append(f"({c})*{_mono_label(names, m)}")
    return " + ".join(bits) or "0"


def certify(a: TensorElement, n_max: int | None, default: int,
            valuation) -> MembershipCertificate:
    """Record valuation(n) for n = 0..n_max; the first n with
    valuation(n) < n is the witness against membership.

    n_max defaults to `default`.  n = 0 alone only tests the counit,
    which every element passes, so a certificate must reach n >= 1.
    """
    if n_max is None:
        n_max = default
    elif n_max < 1:
        raise InputError(f"n_max must be >= 1, got {n_max}")
    ns = list(range(n_max + 1))
    vals = [valuation(n) for n in ns]
    witness = next((n for n, v in zip(ns, vals) if v < n), None)
    verdict = MEMBER if witness is None else NOT_MEMBER
    return MembershipCertificate(_element_text(a), ns, vals, verdict,
                                 witness)


def prime_membership(a: TensorElement, P: Presentation,
                     n_max: int | None = None) -> MembershipCertificate:
    """Check h^n-divisibility of the n-th deviation of a, n = 0..n_max.

    The default n_max is the h-order: beyond it divisibility by h^n is
    vacuous at truncation.  A NotMember verdict carries the smallest
    failing n; all checked valuations are recorded.  Each valuation is
    delta_valuation's, the one the full-window delta_n shows, read at the
    smallest window that shows it.
    """
    if P.model != POLY:
        raise PresentationError("membership is defined on POLY presentations")
    if a.pres != P.name:
        raise MixedPresentations(f"element of {a.pres!r} vs {P.name!r}")
    return certify(a, n_max, P.h_order,
                   lambda n: delta_valuation(a, n, P))


# -- the rescaling transforms ---------------------------------------------------


def _rescale(e, s: int, source_degree: int, what: str) -> dict:
    """The terms of the tensor e, each coefficient times
    h^(s * (source_degree - the degree of its key))."""
    out = {}
    for key, c in e.terms.items():
        power = s * (source_degree - sum(m.degree for m in key))
        try:
            out[key] = div_h(c, -power)
        except NotDivisible as exc:
            raise NotDivisible(
                f"{what}: term {[m.exponents for m in key]} has coefficient "
                f"{c}, which is not divisible by h^{-power}") from exc
    return out


def _rescaled_presentation(P: Presentation, s: int, name: str, model: str,
                           degree_cap: int | None) -> Presentation:
    relations = {}
    for (i, j), r in P.relations.items():
        what = f"relation {P.generators[j]}*{P.generators[i]}"
        relations[(i, j)] = TensorElement(name, 1, _rescale(r, s, 2, what))
    coproducts, counits, antipodes = {}, {}, {}
    for g in P.generators:
        coproducts[g] = TensorElement(name, 2, _rescale(
            P.coproduct_on_gens[g], s, 1, f"coproduct of {g}"))
        counits[g] = HSeries.zero(P.h_order)
        antipodes[g] = TensorElement(name, 1, _rescale(
            P.antipode_on_gens[g], s, 1, f"antipode of {g}"))
    return Presentation(name, model, P.generators, P.h_order, degree_cap,
                        relations, coproducts, counits, antipodes)


def prime_presentation(P: Presentation, degree_cap: int) -> Presentation:
    """Presentation on the rescaled generators h * x_i.

    Relation terms pick up h^(2 - deg), coproduct tensor terms
    h^(1 - deg), antipode terms h^(1 - deg); each required division by h
    is performed exactly and NotDivisible reports the offending term.
    Output is a SERIES presentation with the given degree cap.
    """
    if P.model != POLY:
        raise PresentationError("prime transform expects a POLY presentation")
    return _rescaled_presentation(P, +1, f"{P.name}_prime", SERIES,
                                  degree_cap)


def vee_presentation(P: Presentation) -> Presentation:
    """Presentation on the rescaled generators h^(-1) * x_i.

    The inverse power bookkeeping of prime_presentation; the divisions it
    performs fail exactly when the input is not commutative mod h (the
    degree <= 1 relation terms then carry h^0 coefficients).  Output is a
    POLY presentation.
    """
    if P.model != SERIES:
        raise PresentationError("vee transform expects a SERIES presentation")
    return _rescaled_presentation(P, -1, f"{P.name}_vee", POLY, None)


# -- round trips -------------------------------------------------------------------


def compare_presentations(A: Presentation, B: Presentation, h_order: int,
                          degree_cap: int | None) -> HopfReport:
    """Generator-by-generator comparison of the relations, coproducts and
    antipodes, after truncating both sides to the common (h_order,
    degree_cap) window.  A round trip keeps the model and the generator
    list, and every generator counit is zero, so none of these is
    compared."""
    rows = [("relation", f"{A.generators[j]}*{A.generators[i]}",
             A.relations[(i, j)], B.relations[(i, j)])
            for (i, j) in sorted(A.relations)]
    for g in A.generators:
        rows += [("coproduct", g, A.coproduct_on_gens[g],
                  B.coproduct_on_gens[g]),
                 ("antipode", g, A.antipode_on_gens[g],
                  B.antipode_on_gens[g])]
    rep = HopfReport()
    for check, subject, a, b in rows:
        # b's terms read under A's name, so that the two sides subtract
        rep.compare(check, subject, a, TensorElement(a.pres, b.rank, b.terms),
                    h_order, degree_cap)
    return rep


def roundtrip_check(P: Presentation, direction: str,
                    degree_cap: int | None = None) -> HopfReport:
    """Apply both transforms in the given order and compare against P,
    exactly, inside the truncation window the pipeline preserves: at
    degree_cap if the prime transform comes first, else at P's own cap."""
    if direction == PRIME_THEN_VEE:
        cap = degree_cap
        back = vee_presentation(prime_presentation(P, cap))
    elif direction == VEE_THEN_PRIME:
        cap = P.degree_cap
        back = prime_presentation(vee_presentation(P), cap)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return compare_presentations(P, back, P.h_order, cap)


# -- gauge maps ----------------------------------------------------------------------


class GaugeMap:
    """Generator images of the form x_i + h * (correction)."""

    def __init__(self, images: dict):
        self.images = images
        self._power_cache = {}

    @classmethod
    def make(cls, P: Presentation, images: dict) -> "GaugeMap":
        resolved = {}
        for g in P.generators:
            if g not in images:
                raise PresentationError(f"gauge map misses generator {g!r}")
            img = images[g]
            if img.pres != P.name:
                raise MixedPresentations(
                    f"gauge image of {g!r} lives in {img.pres!r}")
            if (img - P.gen(g)).h_valuation() < 1:
                raise PresentationError(
                    f"gauge image of {g!r} is not the identity mod h")
            resolved[g] = img.truncate(P.h_order, P.degree_cap)
        return cls(resolved)

    @classmethod
    def identity(cls, P: Presentation) -> "GaugeMap":
        return cls.make(P, {g: P.gen(g) for g in P.generators})

    def of_monomial(self, P: Presentation, m: Monomial) -> TensorElement:
        return _word_fold(P, self._power_cache, m, P.unit, self.images)

    def of_tensor(self, t: TensorElement, P: Presentation) -> TensorElement:
        """The map on every slot of t, applied by _extend one slot at a
        time; an element is the rank-1 case."""
        for s in range(t.rank):
            t = _extend(t, P, 1, self.of_monomial, slot=s)
        return t


def gauge_preservation_check(P: Presentation, phi: GaugeMap) -> HopfReport:
    """Check that a gauge map is a Hopf morphism, that it commutes with
    the deviation maps delta_1..delta_3, and that it preserves membership
    of the rescaled generators.  A failed Hopf-morphism stage raises
    NotAHopfMap carrying the partial report."""
    rep = HopfReport()
    images = {g: phi.of_tensor(P.gen(g), P) for g in P.generators}
    for g, img in images.items():
        lhs = coproduct(img, P)
        rhs = phi.of_tensor(coproduct(P.gen(g), P), P)
        rep.compare("hopf-map-coproduct", g, lhs, rhs)
        eps = counit(img, P)
        ok = eps.is_zero()
        rep.add("hopf-map-counit", g, ok, "" if ok else f"counit {eps}")
    for (i, j) in sorted(P.relations):
        gi, gj = P.generators[i], P.generators[j]
        lhs = phi.of_tensor(normal_form((j, i), P), P)
        rhs = multiply(images[gj], images[gi], P)
        rep.compare("hopf-map-relation", f"{gj}*{gi}", lhs, rhs)
    if not rep.passed:
        raise NotAHopfMap("gauge map is not a Hopf morphism", rep)

    for g, img in images.items():
        for n in (1, 2, 3):
            lhs = delta_n(img, n, P)
            rhs = phi.of_tensor(delta_n(P.gen(g), n, P), P)
            rep.compare("delta-commutes-with-gauge", f"{g}, n={n}", lhs, rhs)

    h = HSeries.h_power(1, P.h_order)
    for g, img in images.items():
        cert = prime_membership(img.scaled(h), P)
        rep.add("membership-preserved", f"h*{g}", cert.is_member,
                cert.verdict)
    return rep
