"""Constructors that only the tests use."""

from qdp.bundles import builtin
from qdp.freealg import TensorElement
from qdp.hopf import Presentation
from qdp.series import HSeries


def series_from_map(terms, order):
    """The series sum of terms[k] * h^k, known to h^order."""
    if not terms:
        return HSeries.zero(order)
    lo, hi = min(terms), max(terms)
    return HSeries(lo, order, [terms.get(k, 0) for k in range(lo, hi + 1)])


def element(pres, terms):
    """The algebra element sum of c * m over terms {Monomial: HSeries}: the
    rank-1 tensor keyed by (m,)."""
    return TensorElement(pres, 1, {(m,): c for m, c in terms.items()})


def from_monomial(pres, m, c):
    """The algebra element c * m."""
    return TensorElement(pres, 1, {(m,): c})


def borel2_with(N, D, g, key):
    """borel2 at (N, D) with the term 1 * key added to Delta(g)."""
    P = builtin("borel2", N, D).quea
    cop = dict(P.coproduct_on_gens)
    cop[g] = cop[g] + TensorElement(P.name, 2, {key: HSeries.one(N)})
    return Presentation(P.name, P.model, P.generators, N, P.degree_cap,
                        P.relations, cop, P.counit_on_gens,
                        P.antipode_on_gens)
