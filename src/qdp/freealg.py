"""Sparse elements of a presented algebra and of its tensor powers.

A Monomial is an exponent vector over the generator list: it stands for the
ordered product x1^e1 * ... * xn^en.  Commutation is never implicit; only
the rewriting engine (qdp.hopf.normal_form) may produce Monomials, so every
Element is implicitly in normal form.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from .errors import MixedPresentations
from .series import HSeries

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

    def __lt__(self, other: "Monomial"):
        return self.deglex_key() < other.deglex_key()

    def __repr__(self):
        return f"Monomial{self.exponents}"


def _clean_terms(terms: Mapping) -> dict:
    return {k: v for k, v in terms.items() if not v.is_zero()}


def add_into(acc: dict, key, c) -> None:
    """Accumulate key -> coefficient into a plain dict (hot path)."""
    prev = acc.get(key)
    acc[key] = c if prev is None else prev + c


class _LinearTerms:
    """Arithmetic shared by Element and TensorElement: a finite map from
    keys (a Monomial, or a tuple of them) to HSeries coefficients.

    A subclass names its space with _space() and builds a value of the same
    space from a terms dict with _new(); everything else is written once.
    """

    __slots__ = ()

    def _space(self):
        return self.pres

    def _new(self, terms: Mapping):
        raise NotImplementedError

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if self._space() != other._space():
            raise MixedPresentations(
                f"{self._space()!r} vs {other._space()!r}")
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return self._new(out)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, s):
        """Multiply every coefficient by s (HSeries, Fraction or int)."""
        return self._new({k: c * s for k, c in self.terms.items()})

    def h_valuation(self):
        """Min coefficient valuation over all terms; +inf for zero.  Stored
        coefficients are nonzero, so v_min is each one's valuation."""
        return min([c.v_min for c in self.terms.values()], default=INF)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._space() == other._space() and self.terms == other.terms


class Element(_LinearTerms):
    """Finite sum of ordered monomials with HSeries coefficients."""

    __slots__ = ("pres", "terms")

    def __init__(self, pres: str, terms: Mapping[Monomial, HSeries]):
        self.pres = pres
        self.terms = _clean_terms(terms)

    def _new(self, terms: Mapping) -> "Element":
        return Element(self.pres, terms)

    @classmethod
    def zero(cls, pres: str) -> "Element":
        return cls(pres, {})

    @classmethod
    def unit(cls, pres: str, ngens: int, order: int,
             value=1) -> "Element":
        return cls(pres, {Monomial.identity(ngens): HSeries.const(value, order)})

    @classmethod
    def from_monomial(cls, pres: str, mono: Monomial, coeff: HSeries) -> "Element":
        return cls(pres, {mono: coeff})

    def __bool__(self):
        return bool(self.terms)

    def i_degree(self):
        """Min over terms of (coefficient valuation + monomial degree)."""
        return min((c.valuation() + m.degree for m, c in self.terms.items()),
                   default=INF)

    def truncate(self, h_order: int, degree_cap: int | None = None) -> "Element":
        out = {}
        for m, c in self.terms.items():
            if degree_cap is not None and m.degree > degree_cap:
                continue
            out[m] = c.truncate(h_order)
        return Element(self.pres, out)

    def coeff(self, mono: Monomial) -> HSeries | None:
        return self.terms.get(mono)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].deglex_key())

    def __hash__(self):
        return hash((self.pres, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in self.sorted_terms():
            mono = "*".join(
                (f"g{i}" if e == 1 else f"g{i}^{e}")
                for i, e in enumerate(m.exponents) if e) or "1"
            bits.append(f"({c})*{mono}")
        return " + ".join(bits)


class TensorElement(_LinearTerms):
    """Rank-n tensor stored as a map  (Monomial, ..., Monomial) -> HSeries.

    Rank 0 is the scalar line: its only key is the empty tuple.
    """

    __slots__ = ("pres", "rank", "terms")

    def __init__(self, pres: str, rank: int,
                 terms: Mapping[tuple, HSeries]):
        assert rank >= 0
        self.pres = pres
        self.rank = rank
        self.terms = _clean_terms(terms)

    def _space(self):
        return (self.pres, self.rank)

    def _new(self, terms: Mapping) -> "TensorElement":
        return TensorElement(self.pres, self.rank, terms)

    @classmethod
    def zero(cls, pres: str, rank: int) -> "TensorElement":
        return cls(pres, rank, {})

    @classmethod
    def unit(cls, pres: str, rank: int, ngens: int, order: int,
             value=1) -> "TensorElement":
        key = (Monomial.identity(ngens),) * rank
        return cls(pres, rank, {key: HSeries.const(value, order)})

    def truncate(self, h_order: int,
                 degree_cap: int | None = None) -> "TensorElement":
        out = {}
        for key, c in self.terms.items():
            if degree_cap is not None and any(m.degree > degree_cap
                                              for m in key):
                continue
            out[key] = c.truncate(h_order)
        return TensorElement(self.pres, self.rank, out)

    def swapped(self) -> "TensorElement":
        """Reverse the slot order (rank-2 opposite coproduct and friends)."""
        return self._new({tuple(reversed(k)): c
                          for k, c in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda kv: tuple(m.deglex_key() for m in kv[0]))

    def __repr__(self):
        if not self.terms:
            return f"0^(x{self.rank})"
        bits = []
        for key, c in self.sorted_terms():
            slots = " (x) ".join(str(m.exponents) for m in key)
            bits.append(f"({c})*[{slots}]")
        return " + ".join(bits)
