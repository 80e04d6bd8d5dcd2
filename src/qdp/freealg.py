"""Sparse tensors over a presented algebra; an element is a rank-1 tensor.

A Monomial is an exponent vector over the generator list: it stands for the
ordered product x1^e1 * ... * xn^en.  Commutation is never implicit: only
the product kernel (qdp.hopf.multiply, through its slot table) multiplies
Monomials, so every tensor slot is implicitly in normal form.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from .errors import MixedPresentations
from .series import HSeries, hsum

INF = math.inf


class Monomial:
    """Ordered monomial as an exponent vector, with cached total degree.

    Monomials are interned: constructing one returns the single object for
    its exponent vector, so equality and hashing are object identity and a
    dict keyed by Monomials (or tuples of them) never calls Python code to
    hash or compare a key.  Identity hashes differ from run to run, but no
    code iterates a set of Monomials (pairing's recursion stack is used for
    membership tests only) and every dict of terms keeps insertion order, so
    no output depends on them.  The intern table lives as long as the
    process; it holds one small object per exponent vector ever built.
    """

    __slots__ = ("exponents", "degree")

    _interned: dict[tuple[int, ...], "Monomial"] = {}

    def __new__(cls, exponents: Sequence[int]):
        exponents = tuple(exponents)
        m = cls._interned.get(exponents)
        if m is None:
            m = object.__new__(cls)
            m.exponents = exponents
            m.degree = sum(exponents)
            cls._interned[exponents] = m
        return m

    @classmethod
    def identity(cls, ngens: int) -> "Monomial":
        return cls((0,) * ngens)

    @classmethod
    def generator(cls, i: int, ngens: int) -> "Monomial":
        e = [0] * ngens
        e[i] = 1
        return cls(e)

    @classmethod
    def from_word(cls, word: Sequence[int], ngens: int) -> "Monomial":
        """Exponent vector of an already-ordered word of generator indices."""
        e = [0] * ngens
        for i in word:
            e[i] += 1
        return cls(e)

    def is_identity(self) -> bool:
        return self.degree == 0

    def word(self) -> tuple[int, ...]:
        """The ordered letter sequence (i repeated e_i times, i ascending)."""
        out = []
        for i, e in enumerate(self.exponents):
            out.extend([i] * e)
        return tuple(out)

    def merged(self, other: "Monomial") -> "Monomial":
        """Exponent-wise sum; valid only when the context knows the
        concatenation is already ordered (same variable, or padding)."""
        return Monomial(tuple(a + b for a, b in
                              zip(self.exponents, other.exponents)))

    def deglex_key(self):
        return (self.degree, self.exponents)

    def __repr__(self):
        return f"Monomial{self.exponents}"


def add_into(acc: dict, key, c) -> None:
    """Accumulate key -> coefficient into a plain dict, deferring the sum.

    The first coefficient of a key is stored as it is; later ones are
    collected with it in a list, in arrival order.  Each list is summed
    once, by hsum, when a TensorElement is built from the dict; hsum
    equals the left fold of +, so the result is the eager sum's, and every
    key keeps its first-insertion position.
    """
    prev = acc.get(key)
    if prev is None:
        acc[key] = c
    elif type(prev) is list:
        prev.append(c)
    else:
        acc[key] = [prev, c]


def _clean_terms(terms: Mapping) -> dict:
    """A new dict of the terms, lists summed by hsum, zeros dropped."""
    out = {}
    for k, v in terms.items():
        if type(v) is list:
            v = hsum(v)
        if v.coeffs:
            out[k] = v
    return out


class TensorElement:
    """A rank-n tensor over a presentation: a finite map from keys, tuples
    of n Monomials (one per slot), to nonzero HSeries coefficients.

    An element of the algebra is the rank-1 tensor, keyed by (m,); rank 0
    is the scalar line, whose only key is the empty tuple.
    """

    __slots__ = ("pres", "rank", "terms")

    def __init__(self, pres: str, rank: int,
                 terms: Mapping[tuple, HSeries]):
        assert rank >= 0
        self.pres = pres
        self.rank = rank
        self.terms = _clean_terms(terms)

    @classmethod
    def zero(cls, pres: str, rank: int) -> "TensorElement":
        return cls(pres, rank, {})

    @classmethod
    def unit(cls, pres: str, rank: int, ngens: int, order: int,
             value=1) -> "TensorElement":
        key = (Monomial.identity(ngens),) * rank
        return cls(pres, rank, {key: HSeries.const(value, order)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if (self.pres, self.rank) != (other.pres, other.rank):
            raise MixedPresentations(
                f"{(self.pres, self.rank)!r} vs {(other.pres, other.rank)!r}")
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_into(out, k, c)
        return TensorElement(self.pres, self.rank, out)

    def __neg__(self):
        return TensorElement(self.pres, self.rank,
                             {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, s):
        """Multiply every coefficient by s (HSeries, Fraction or int)."""
        return TensorElement(self.pres, self.rank,
                             {k: c * s for k, c in self.terms.items()})

    def h_valuation(self):
        """Min coefficient valuation over all terms; +inf for zero.  Stored
        coefficients are nonzero, so v_min is each one's valuation."""
        return min([c.v_min for c in self.terms.values()], default=INF)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return ((self.pres, self.rank, self.terms)
                == (other.pres, other.rank, other.terms))

    def truncate(self, h_order: int, degree_cap: int | None = None):
        """Every coefficient cut at h_order; with a degree cap, the terms
        with a monomial of degree above it dropped."""
        return TensorElement(self.pres, self.rank, {
            k: c.truncate(h_order) for k, c in self.terms.items()
            if degree_cap is None or all(m.degree <= degree_cap for m in k)})

    def sorted_terms(self):
        """The terms in deglex order of their monomials, slot by slot."""
        return sorted(self.terms.items(), key=lambda kv: tuple(
            m.deglex_key() for m in kv[0]))

    def swapped(self) -> "TensorElement":
        """Reverse the slot order (rank-2 opposite coproduct and friends)."""
        return TensorElement(self.pres, self.rank, {
            tuple(reversed(k)): c for k, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return f"0^(x{self.rank})"
        bits = []
        for key, c in self.sorted_terms():
            slots = " (x) ".join(str(m.exponents) for m in key)
            bits.append(f"({c})*[{slots}]")
        return " + ".join(bits)


# bench/tracer.py's METHOD_SPANS wraps Element.truncate by this name.
Element = TensorElement
