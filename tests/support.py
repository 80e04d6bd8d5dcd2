"""Constructors that only the tests use."""

from qdp.series import HSeries


def series_from_map(terms, order):
    """The series sum of terms[k] * h^k, known to h^order."""
    if not terms:
        return HSeries.zero(order)
    lo, hi = min(terms), max(terms)
    return HSeries(lo, order, [terms.get(k, 0) for k in range(lo, hi + 1)])
