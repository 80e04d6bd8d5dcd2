"""Semiclassical limits: the finite-dimensional structure read off at h = 0.

From an enveloping-type (POLY) presentation we read a Lie bialgebra on the
generators: the bracket from the relations mod h, the cobracket from the
h-linear part of Delta - Delta_op.

From a degree-capped (SERIES) presentation we read the Lie bialgebra the
algebra quantises.  The raw data lives on the cotangent space at the
identity (the span of the generator images mod squares): commutators
divided by h give one structure-constant table, Delta - Delta_op at h = 0
gives the other.  Those two tables describe the *dual* of the algebra's
own Lie bialgebra, so extract_poisson_structure returns them swapped;
the returned basis is dual to the generator images.

Both structure-constant tables share one index layout, so the dual of a
Lie bialgebra is its two tables swapped, and co-Jacobi is checked as the
Jacobi identity of the dual bracket.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import (CobracketNotInWedge, DimensionMismatch,
                     NotCocommutativeModH, NotCommutativeModH, NotLieType)
# normal_form is not called here; bench/tracer.py wraps this binding
from .hopf import POLY, SERIES, Presentation, coproduct, normal_form
from .report import HopfReport


def _zero_cube(n: int):
    return [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]


class LieBialgebra:
    """Structure constants of a finite-dimensional Lie bialgebra.

    Both tables use one layout, t[i][j][k]: the coefficient of x_k in the
    image of x_i ^ x_j, or dually of x_i ^ x_j in the image of x_k.

    bracket[i][j][k]:   [x_i, x_j] = sum_k bracket[i][j][k] x_k
    cobracket[i][j][k]: delta(x_k) = sum_{i<j} cobracket[i][j][k]
                                      (x_i (x) x_j - x_j (x) x_i)

    So the dual Lie bialgebra is the same two tables swapped, and
    co-Jacobi is the Jacobi identity of the cobracket table read as a
    bracket.  Both tables are stored fully antisymmetrized in (i, j) and
    are not mutated after construction.  Axioms are *not* assumed;
    validate_lie_bialgebra checks them.
    """

    def __init__(self, dim: int, basis_names: Sequence[str],
                 bracket=None, cobracket=None):
        if len(basis_names) != dim:
            raise DimensionMismatch("basis names do not match dimension")
        self.dim = dim
        self.basis_names = list(basis_names)
        self.bracket = bracket if bracket is not None else _zero_cube(dim)
        self.cobracket = cobracket if cobracket is not None else _zero_cube(dim)
        for name in ("bracket", "cobracket"):
            t = getattr(self, name)
            if any(t[i][j][k] != -t[j][i][k] for i in range(dim)
                   for j in range(dim) for k in range(dim)):
                raise ValueError(f"{name} table is not antisymmetric")

    @classmethod
    def from_sparse(cls, dim: int, basis_names: Sequence[str],
                    bracket_entries=(), cobracket_entries=()):
        """Build from nonzero constants given for i < j only: bracket
        entries as (i, j, k, v), cobracket entries as (k, i, j, v)."""
        tables = _zero_cube(dim), _zero_cube(dim)
        entries = (bracket_entries,
                   [(i, j, k, v) for k, i, j, v in cobracket_entries])
        for t, es in zip(tables, entries):
            for i, j, k, val in es:
                v = Fraction(val)
                t[i][j][k] += v
                t[j][i][k] -= v
        return cls(dim, basis_names, *tables)

    def to_jsonable(self) -> dict:
        return {
            "dim": self.dim,
            "basis": list(self.basis_names),
            "bracket": [[i, j, k, str(v)]
                        for i, j, k, v in _nonzero(self.bracket)],
            "cobracket": sorted([k, i, j, str(v)]
                                for i, j, k, v in _nonzero(self.cobracket)),
        }

    def __repr__(self):
        nm = self.basis_names
        brackets, deltas = {}, {}
        for i, j, k, v in _nonzero(self.bracket):
            brackets.setdefault(f"[{nm[i]},{nm[j]}]", []).append((v, nm[k]))
        for i, j, k, v in sorted(_nonzero(self.cobracket),
                                 key=lambda e: e[2]):
            deltas.setdefault(f"delta({nm[k]})", []).append(
                (v, f"{nm[i]}^{nm[j]}"))
        br = ", ".join(f"{lhs}={_comb_str(terms)}"
                       for lhs, terms in brackets.items()) or "abelian"
        cb = ", ".join(f"{lhs}={_comb_str(terms)}"
                       for lhs, terms in deltas.items()) or "0"
        return f"LieBialgebra({br}; {cb})"


def _nonzero(table):
    """(i, j, k, v) for each nonzero table[i][j][k] with i < j."""
    n = len(table)
    for i, j in combinations(range(n), 2):
        for k in range(n):
            if table[i][j][k]:
                yield i, j, k, table[i][j][k]


def _comb_str(terms):
    return " + ".join(f"{'' if v == 1 else f'{v}*'}{label}"
                      for v, label in terms)


# -- extraction -------------------------------------------------------------------


def _relation_table(P: Presentation, at_h: int) -> list:
    """t[i][j][k]: coefficient of x_k in the h^at_h coefficient of
    [x_i, x_j], read off -r_ij for i < j.  Degree >= 2 parts are the
    mod-squares projection and are discarded; a constant part means the
    commutator ideal is broken and is an error."""
    t = _zero_cube(P.ngens)
    for (i, j), r in P.relations.items():
        for (m,), c in r.terms.items():
            v = c.coeff_at(at_h)
            if not v or m.degree > 1:
                continue
            if m.degree == 0:
                raise NotLieType(
                    f"[{P.generators[i]},{P.generators[j]}] has a constant "
                    f"h^{at_h} part {-v}")
            k = m.exponents.index(1)
            t[j][i][k] += v
            t[i][j][k] -= v
    return t


def _coproduct_skew_table(P: Presentation, at_h: int,
                          strict_wedge: bool) -> list:
    """q[i][j][k]: coefficient of x_i (x) x_j in the h^at_h coefficient of
    (Delta - Delta_op)(x_k), restricted to degree-(1,1) tensor keys."""
    n = P.ngens
    q = _zero_cube(n)
    for k, g in enumerate(P.generators):
        skew = coproduct(P.gen(g), P)
        skew = skew - skew.swapped()
        if at_h > 0:
            bad = min((c.valuation() for c in skew.terms.values()
                       if c.valuation() < at_h), default=None)
            if bad is not None:
                raise NotCocommutativeModH(
                    f"(Delta - Delta_op)({g}) has a nonzero h^{bad} part")
        for (m1, m2), c in skew.terms.items():
            val = c.coeff_at(at_h)
            if not val:
                continue
            if m1.degree == 1 and m2.degree == 1:
                q[m1.exponents.index(1)][m2.exponents.index(1)][k] += val
            elif strict_wedge:
                raise CobracketNotInWedge(
                    f"cobracket of {g} hits a degree "
                    f"({m1.degree},{m2.degree}) tensor term")
    return q


def extract_lie_bialgebra(P: Presentation) -> LieBialgebra:
    """Lie bialgebra on the generators of an enveloping-type presentation:
    bracket from relations mod h, cobracket from the h-linear part of
    Delta - Delta_op."""
    if P.model != POLY:
        raise NotLieType("bracket extraction expects a POLY presentation")
    return LieBialgebra(P.ngens, list(P.generators), _relation_table(P, 0),
                        _coproduct_skew_table(P, at_h=1, strict_wedge=True))


def extract_poisson_structure(P: Presentation) -> LieBialgebra:
    """Lie bialgebra quantised by a degree-capped presentation.

    The commutator-over-h table and the specialised Delta - Delta_op
    table are the bracket and cobracket of the cotangent-space structure,
    which is dual to the algebra's own Lie bialgebra; the result is
    therefore their dual, the two tables swapped, on the basis dual to
    the generator images.
    """
    if P.model != SERIES:
        raise NotCommutativeModH(
            "Poisson extraction expects a degree-capped (SERIES) "
            "presentation")
    for (i, j), r in P.relations.items():
        if r.h_valuation() < 1:
            raise NotCommutativeModH(
                f"generators {P.generators[i]},{P.generators[j]} do not "
                "commute mod h")
    cotangent = LieBialgebra(P.ngens, P.generators, _relation_table(P, 1),
                             _coproduct_skew_table(P, at_h=0,
                                                   strict_wedge=False))
    return dual_lie_bialgebra(cotangent)


def dual_lie_bialgebra(L: LieBialgebra) -> LieBialgebra:
    """The dual Lie bialgebra on the dual basis y_i = x_i*:
    <[y_i, y_j], x_k> = <y_i (x) y_j, delta(x_k)> and
    <delta(y_k), x_i (x) x_j> = <y_k, [x_i, x_j]>, so in the common
    layout the two tables swap."""
    return LieBialgebra(L.dim, [f"{b}*" for b in L.basis_names],
                        L.cobracket, L.bracket)


def _jacobiator(t) -> dict:
    """(i, j, k) -> the coefficients over x_r of [[x_i, x_j], x_k] +
    cyclic under the bracket table t, for i < j < k.  An antisymmetric t
    makes the Jacobiator alternating, so these triples decide it."""
    n = range(len(t))
    jac = {}
    for i, j, k in combinations(n, 3):
        v = jac[i, j, k] = [0] * len(t)
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m in n:
                if t[a][b][m]:
                    for r in n:
                        v[r] += t[a][b][m] * t[m][c][r]
    return jac


def _act(L: LieBialgebra, i: int, j: int) -> list:
    """x_i . delta(x_j) = (ad x_i (x) 1 + 1 (x) ad x_i) delta(x_j), as the
    coefficient matrix [p][q] of x_p (x) x_q."""
    c, d, n = L.bracket, L.cobracket, range(L.dim)
    act = [[0] * L.dim for _ in n]
    for p in n:
        for q in n:
            if d[p][q][j]:
                for r in n:
                    act[r][q] += c[i][p][r] * d[p][q][j]
                    act[p][r] += c[i][q][r] * d[p][q][j]
    return act


def validate_lie_bialgebra(L: LieBialgebra) -> HopfReport:
    """Jacobi, co-Jacobi and the 1-cocycle compatibility, exactly.

    co-Jacobi for delta(x_k) is the x_k component of the Jacobi identity
    of the dual bracket, that is of the cobracket table."""
    rep = HopfReport()
    n = range(L.dim)
    nm = L.basis_names
    c, d = L.bracket, L.cobracket
    for (i, j, k), jac in _jacobiator(c).items():
        rep.add("jacobi", f"({nm[i]},{nm[j]},{nm[k]})", not any(jac))
    if L.dim < 3:
        rep.add("jacobi", "dimension < 3", True)
    cojac = _jacobiator(d).values()
    for k in n:
        rep.add("co-jacobi", nm[k], not any(v[k] for v in cojac))
    for i, j in combinations(n, 2):
        ij, ji = _act(L, i, j), _act(L, j, i)
        ok = all(sum(c[i][j][k] * d[p][q][k] for k in n if c[i][j][k])
                 == ij[p][q] - ji[p][q] for p in n for q in n)
        rep.add("cocycle", f"({nm[i]},{nm[j]})", ok)
    return rep


def lie_bialgebra_equal(L1: LieBialgebra, L2: LieBialgebra) -> bool:
    """Table equality in the canonical bases; basis names are not
    compared."""
    if L1.dim != L2.dim:
        raise DimensionMismatch(f"{L1.dim} != {L2.dim}")
    return L1.bracket == L2.bracket and L1.cobracket == L2.cobracket
