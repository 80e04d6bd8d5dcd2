"""Truncated power series in the deformation parameter h.

Coefficients are exact rationals stored as Python-int numerators over one
common denominator per series, the representation of FLINT's fmpq_poly:
each sum or product is one pass of int arithmetic followed by one gcd,
instead of a normalised fractions.Fraction per coefficient; hsum adds a
whole list of series in one such pass.  The public surface speaks Fraction
(coeff_at, items, str, to_jsonable).

Every value carries a truncation order N: exponents above N are unknown and
never stored.  Arithmetic propagates the order pessimistically (minimum
through sums, valuation-adjusted minimum through products) so precision
loss is always explicit.

The deformations live over k[[h]]: the public constructors (HSeries(...),
h_power, const and shift) raise ValueError on a nonzero coefficient below
h^0.  _make, mul and hsum stay unchecked, since
non-negative inputs cannot produce one.

Equality compares stored content only: two series that agree
coefficient-by-coefficient are equal even if they were computed at
different truncation orders.  The order is bookkeeping about what is known,
not part of the value's identity.  Because the stored form is canonical,
that content comparison is a structural one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from .errors import NotDivisible

Scalar = Union[int, Fraction]

INF = math.inf


def _rational(x) -> Scalar:
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _make(v_min: int, order: int, cs: list, den: int) -> "HSeries":
    """The canonical series  sum_i (cs[i] / den) h^(v_min + i), cut at
    `order`.  `cs` holds ints and is consumed; `den` is a positive int."""
    if v_min + len(cs) - 1 > order:
        del cs[max(0, order - v_min + 1):]
    while cs and not cs[-1]:
        cs.pop()
    obj = object.__new__(HSeries)
    obj.order = order
    if not cs:
        obj.v_min = order + 1
        obj.coeffs = ()
        obj.den = 1
        return obj
    if not cs[0]:
        i = 1
        while not cs[i]:
            i += 1
        del cs[:i]
        v_min += i
    if den != 1:
        g = math.gcd(den, *cs)
        if g != 1:
            den //= g
            cs = [c // g for c in cs]
    obj.v_min = v_min
    obj.coeffs = tuple(cs)
    obj.den = den
    return obj


def _power_series(s: "HSeries") -> "HSeries":
    """s itself, which a public constructor built: a nonzero coefficient
    below h^0 raises ValueError."""
    if s.coeffs and s.v_min < 0:
        raise ValueError(f"a coefficient at h-valuation {s.v_min}: a series "
                         "over k[[h]] has no negative powers of h")
    return s


def hsum(terms: list) -> "HSeries":
    """The sum of a nonempty list of series in one pass (HSeries.__add__ is
    the sum of two): the order is the least order, and the exact sum is cut
    there and put in canonical form once, so the result equals the left
    fold terms[0] + terms[1] + ... field for field.  A term that starts
    above that order adds nothing."""
    order = min([t.order for t in terms])
    live = []
    den = 1
    lo = top = None
    for t in terms:
        cs = t.coeffs
        v = t.v_min
        if cs and v <= order:
            live.append(t)
            if t.den != den:
                den = math.lcm(den, t.den)
            e = v + len(cs) - 1
            if lo is None:
                lo, top = v, e
            else:
                if v < lo:
                    lo = v
                if e > top:
                    top = e
    if lo is None:
        return _make(order + 1, order, [], 1)
    top = min(top, order)
    acc = [0] * (top - lo + 1)
    for t in live:
        # v_min <= top here, so the slice bound is positive
        i = t.v_min - lo
        f = den // t.den
        for c in t.coeffs[:top - t.v_min + 1]:
            acc[i] += c * f
            i += 1
    return _make(lo, order, acc, den)


class HSeries:
    """A truncated series  sum_{k=v_min}^{order} (coeffs[k - v_min] / den) h^k.

    `coeffs` is a tuple of int numerators and `den` a positive int.  The
    form is canonical: gcd(den, *coeffs) == 1, the first and last numerators
    are nonzero, and the zero series has coeffs == (), den == 1 and
    v_min == order + 1.  A nonzero series has v_min >= 0.

    The constructor accepts int and Fraction coefficients.
    """

    __slots__ = ("v_min", "order", "coeffs", "den")

    def __init__(self, v_min: int, order: int, coeffs: Iterable[Scalar]):
        qs = [_rational(c) for c in coeffs]
        den = math.lcm(*[q.denominator for q in qs])
        cs = [q.numerator * (den // q.denominator) for q in qs]
        s = _power_series(_make(v_min, order, cs, den))
        self.v_min, self.order, self.coeffs, self.den = \
            s.v_min, s.order, s.coeffs, s.den

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "HSeries":
        return _make(order + 1, order, [], 1)

    @classmethod
    def const(cls, value: Scalar, order: int) -> "HSeries":
        return cls.h_power(0, order, value)

    @classmethod
    def one(cls, order: int) -> "HSeries":
        return _make(0, order, [1], 1)

    @classmethod
    def h_power(cls, k: int, order: int, value: Scalar = 1) -> "HSeries":
        q = _rational(value)
        return _power_series(_make(k, order, [q.numerator], q.denominator))

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_exact_one(self) -> bool:
        """True for the constant 1, whatever order it is known to."""
        return self.v_min == 0 and self.coeffs == (1,) and self.den == 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def valuation(self):
        """Smallest exponent with nonzero coefficient; +inf for zero."""
        return INF if not self.coeffs else self.v_min

    def coeff_at(self, k: int) -> Fraction:
        if self.coeffs and self.v_min <= k < self.v_min + len(self.coeffs):
            return Fraction(self.coeffs[k - self.v_min], self.den)
        return Fraction(0)

    def items(self):
        den = self.den
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.v_min + i, Fraction(c, den)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "HSeries") -> "HSeries":
        if not isinstance(other, HSeries):
            return NotImplemented
        return hsum([self, other])

    def __neg__(self) -> "HSeries":
        out = object.__new__(HSeries)
        out.v_min = self.v_min
        out.order = self.order
        out.coeffs = tuple([-c for c in self.coeffs])
        out.den = self.den
        return out

    def __sub__(self, other: "HSeries") -> "HSeries":
        return self + (-other)

    def __mul__(self, other) -> "HSeries":
        if isinstance(other, HSeries):
            return mul(self, other)
        if isinstance(other, (int, Fraction)):
            if not other:
                return _make(self.order + 1, self.order, [], 1)
            p = other.numerator
            return _make(self.v_min, self.order,
                         [c * p for c in self.coeffs],
                         self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def truncate(self, order: int) -> "HSeries":
        """Forget everything above `order` (never extends knowledge)."""
        if order >= self.order:
            return self
        if self.v_min + len(self.coeffs) - 1 <= order:
            out = object.__new__(HSeries)
            out.v_min = self.v_min if self.coeffs else order + 1
            out.order = order
            out.coeffs = self.coeffs
            out.den = self.den
            return out
        return _make(self.v_min, order, list(self.coeffs), self.den)

    def shift(self, k: int) -> "HSeries":
        """Multiply by h^k; shifts the window, never below h^0."""
        out = object.__new__(HSeries)
        out.v_min = self.v_min + k
        out.order = self.order + k
        out.coeffs = self.coeffs
        out.den = self.den
        return _power_series(out)

    # -- equality (content-based, structural on the canonical form) ----------

    def __eq__(self, other) -> bool:
        if not isinstance(other, HSeries):
            return NotImplemented
        if not self.coeffs:
            return not other.coeffs
        return (self.v_min == other.v_min and self.den == other.den
                and self.coeffs == other.coeffs)

    def __hash__(self):
        if not self.coeffs:
            return hash(())
        return hash((self.v_min, self.den, self.coeffs))

    # -- display ------------------------------------------------------------

    def __repr__(self):
        return f"HSeries({self!s}; order={self.order})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in self.items():
            if k == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                hk = "h" if k == 1 else f"h^{k}"
                parts.append(f"{head}{hk}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    # -- serialization --------------------------------------------------------

    def to_jsonable(self) -> dict:
        den = self.den
        return {
            "v_min": self.v_min,
            "order": self.order,
            "coeffs": [str(Fraction(c, den)) for c in self.coeffs],
        }


def mul(a: HSeries, b: HSeries, cut=INF) -> HSeries:
    """(a * b).truncate(cut), field for field, without building the uncut
    product; HSeries.__mul__ is the cut = inf case.  The unknown tail of a
    factor pollutes the product from its order plus the partner's lowest
    stored exponent on, and a factor exactly 1 leaves the other one cut
    there (the other factor itself when the 1 is known as far)."""
    va, vb = a.v_min, b.v_min
    order = min(a.order + vb, b.order + va, cut)
    x, y = a.coeffs, b.coeffs
    v = va + vb
    if not x or not y or v > order:
        return _make(order + 1, order, [], 1)
    if a.is_exact_one():
        return b.truncate(order)
    if b.is_exact_one():
        return a.truncate(order)
    den = a.den * b.den
    width = order - v + 1
    if len(x) == 1 or len(y) == 1:
        if len(x) == len(y):
            # one numerator: what _make builds, without the list
            p = x[0] * y[0]
            g = math.gcd(p, den)
            out = object.__new__(HSeries)
            out.v_min, out.order = v, order
            out.coeffs, out.den = (p // g,), den // g
            return out
        p, z = (x[0], y) if len(x) == 1 else (y[0], x)
        return _make(v, order, [p * q for q in z[:width]], den)
    acc = [0] * width
    ny = len(y)
    for i, p in enumerate(x[:width]):
        if not p:
            continue
        for j in range(min(ny, width - i)):
            acc[i + j] += p * y[j]
    return _make(v, order, acc, den)


def div_h(a: HSeries, k: int) -> HSeries:
    """Divide by h^k (multiply by h^-k for k <= 0).

    The result must stay a power series, which requires valuation(a) >= k;
    a violation raises NotDivisible.  Callers treat that error as a
    finding: the element does not lie in h^k times the module it was
    claimed to.
    """
    if a.coeffs and a.v_min < k:
        raise NotDivisible(
            f"series {a} has valuation {a.valuation()} < {k}")
    return a.shift(-k)
