"""Truncated power/Laurent series in the deformation parameter h.

Coefficients are exact rationals (fractions.Fraction).  Every value carries
a truncation order N: exponents above N are unknown and never stored.
Arithmetic propagates the order pessimistically (minimum through sums,
valuation-adjusted minimum through products) so precision loss is always
explicit.

Equality compares stored content only, after trimming zero coefficients:
two series that agree coefficient-by-coefficient are equal even if they
were computed at different truncation orders.  The order is bookkeeping
about what is known, not part of the value's identity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import NotDivisible

Scalar = Union[int, Fraction]

INF = math.inf
_ZERO = Fraction(0)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class HSeries:
    """A truncated series  sum_{k=v_min}^{order} c_k h^k  with Fraction c_k.

    v_min may be negative (Laurent storage); contexts that model plain
    power-series modules must check the valuation themselves.  The empty
    coefficient window encodes the zero series.
    """

    __slots__ = ("v_min", "order", "coeffs")

    def __init__(self, v_min: int, order: int, coeffs: Iterable[Scalar]):
        cs = [_as_fraction(c) for c in coeffs]
        # drop anything beyond the truncation order
        if v_min + len(cs) - 1 > order:
            cs = cs[: max(0, order - v_min + 1)]
        # trim leading zeros
        while cs and cs[0] == 0:
            cs.pop(0)
            v_min += 1
        # trim trailing zeros
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            v_min = order + 1
        self.v_min = v_min
        self.order = order
        self.coeffs = tuple(cs)

    @classmethod
    def _fast(cls, v_min: int, order: int, cs: list) -> "HSeries":
        """Internal constructor for already-Fraction coefficient lists."""
        if v_min + len(cs) - 1 > order:
            del cs[max(0, order - v_min + 1):]
        while cs and not cs[0]:
            cs.pop(0)
            v_min += 1
        while cs and not cs[-1]:
            cs.pop()
        obj = object.__new__(cls)
        obj.v_min = v_min if cs else order + 1
        obj.order = order
        obj.coeffs = tuple(cs)
        return obj

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "HSeries":
        return cls(order + 1, order, ())

    @classmethod
    def const(cls, value: Scalar, order: int) -> "HSeries":
        return cls(0, order, (value,))

    @classmethod
    def one(cls, order: int) -> "HSeries":
        return cls.const(1, order)

    @classmethod
    def h_power(cls, k: int, order: int, value: Scalar = 1) -> "HSeries":
        return cls(k, order, (value,))

    @classmethod
    def from_map(cls, terms: Mapping[int, Scalar], order: int) -> "HSeries":
        if not terms:
            return cls.zero(order)
        lo = min(terms)
        hi = max(terms)
        cs = [terms.get(k, 0) for k in range(lo, hi + 1)]
        return cls(lo, order, cs)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def valuation(self):
        """Smallest exponent with nonzero coefficient; +inf for zero."""
        return INF if not self.coeffs else self.v_min

    def coeff_at(self, k: int) -> Fraction:
        if self.coeffs and self.v_min <= k < self.v_min + len(self.coeffs):
            return self.coeffs[k - self.v_min]
        return Fraction(0)

    def items(self):
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.v_min + i, c

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "HSeries") -> "HSeries":
        if not isinstance(other, HSeries):
            return NotImplemented
        order = min(self.order, other.order)
        if not self.coeffs:
            return other.truncate(order)
        if not other.coeffs:
            return self.truncate(order)
        lo = min(self.v_min, other.v_min)
        hi = max(self.v_min + len(self.coeffs), other.v_min + len(other.coeffs)) - 1
        cs = [self.coeff_at(k) + other.coeff_at(k) for k in range(lo, hi + 1)]
        return HSeries._fast(lo, order, cs)

    def __neg__(self) -> "HSeries":
        return HSeries._fast(self.v_min, self.order,
                             [-c for c in self.coeffs])

    def __sub__(self, other: "HSeries") -> "HSeries":
        return self + (-other)

    def __mul__(self, other) -> "HSeries":
        if isinstance(other, HSeries):
            # The unknown tail of one factor pollutes the product from
            # order + partner's lowest stored exponent onward.
            order = min(self.order + other.v_min, other.order + self.v_min)
            if not self.coeffs or not other.coeffs:
                return HSeries._fast(order + 1, order, [])
            v = self.v_min + other.v_min
            if len(self.coeffs) == 1:
                a = self.coeffs[0]
                return HSeries._fast(v, order,
                                     [a * b for b in other.coeffs])
            if len(other.coeffs) == 1:
                b = other.coeffs[0]
                return HSeries._fast(v, order,
                                     [a * b for a in self.coeffs])
            width = order - v + 1
            if width <= 0:
                return HSeries._fast(order + 1, order, [])
            acc = [_ZERO] * width
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                lim = min(len(other.coeffs), width - i)
                for j in range(lim):
                    b = other.coeffs[j]
                    if b:
                        acc[i + j] += a * b
            return HSeries._fast(v, order, acc)
        if isinstance(other, (int, Fraction)):
            if not other:
                return HSeries._fast(self.order + 1, self.order, [])
            return HSeries._fast(self.v_min, self.order,
                                 [c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def truncate(self, order: int) -> "HSeries":
        """Forget everything above `order` (never extends knowledge)."""
        order = min(order, self.order)
        if self.v_min + len(self.coeffs) - 1 <= order:
            if order == self.order:
                return self
            out = object.__new__(HSeries)
            out.v_min = self.v_min if self.coeffs else order + 1
            out.order = order
            out.coeffs = self.coeffs
            return out
        return HSeries._fast(self.v_min, order, list(self.coeffs))

    def shift(self, k: int) -> "HSeries":
        """Multiply by h^k (k may be negative); shifts the window."""
        out = object.__new__(HSeries)
        out.v_min = self.v_min + k
        out.order = self.order + k
        out.coeffs = self.coeffs
        return out

    # -- equality (content-based) -------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, HSeries):
            return NotImplemented
        if not self.coeffs and not other.coeffs:
            return True
        return self.v_min == other.v_min and self.coeffs == other.coeffs

    def __hash__(self):
        if not self.coeffs:
            return hash(())
        return hash((self.v_min, self.coeffs))

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
        return {
            "v_min": self.v_min if self.coeffs else self.order + 1,
            "order": self.order,
            "coeffs": [str(c) for c in self.coeffs],
        }

    @classmethod
    def from_jsonable(cls, data: Mapping) -> "HSeries":
        return cls(int(data["v_min"]), int(data["order"]),
                   [Fraction(c) for c in data["coeffs"]])


def div_h(a: HSeries, k: int) -> HSeries:
    """Divide by h^k.

    The result must stay a plain power series, which requires
    valuation(a) >= k; a violation raises NotDivisible.  Callers treat
    that error as a finding: the element does not lie in h^k times the
    module it was claimed to.
    """
    if k < 0:
        return a.shift(-k)
    if a.coeffs and a.v_min < k:
        raise NotDivisible(
            f"series {a} has valuation {a.valuation()} < {k}",
            series=a, needed=k)
    return a.shift(-k)
