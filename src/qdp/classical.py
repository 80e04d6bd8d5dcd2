"""Semiclassical limits: the finite-dimensional structure read off at h = 0.

From an enveloping-type (POLY) presentation we read a Lie bialgebra on the
generators: the bracket from the relations mod h, the cobracket from the
h-linear part of Delta - Delta_op.

From a degree-capped (SERIES) presentation we read the Lie bialgebra the
algebra quantises.  The raw data lives on the cotangent space at the
identity (the span of the generator images mod squares): commutators
divided by h give one structure-constant table, Delta - Delta_op at h = 0
gives the other.  Those two tables describe the *dual* of the algebra's
own Lie bialgebra, so extract_poisson_structure assembles its result by
transposing them; the returned basis is dual to the generator images.
"""

from __future__ import annotations

from fractions import Fraction
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

    bracket[i][j][k]:  [x_i, x_j] = sum_k bracket[i][j][k] x_k
    cobracket[k][i][j]: delta(x_k) = sum_{i<j} cobracket[k][i][j]
                                      (x_i (x) x_j - x_j (x) x_i)

    Both tables are stored fully antisymmetrized in (i, j).  Axioms are
    *not* assumed; validate_lie_bialgebra checks them.
    """

    def __init__(self, dim: int, basis_names: Sequence[str],
                 bracket=None, cobracket=None):
        if len(basis_names) != dim:
            raise DimensionMismatch("basis names do not match dimension")
        self.dim = dim
        self.basis_names = list(basis_names)
        self.bracket = bracket if bracket is not None else _zero_cube(dim)
        self.cobracket = cobracket if cobracket is not None else _zero_cube(dim)
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    if self.bracket[i][j][k] != -self.bracket[j][i][k]:
                        raise ValueError("bracket table is not antisymmetric")
                    if self.cobracket[k][i][j] != -self.cobracket[k][j][i]:
                        raise ValueError("cobracket table is not antisymmetric")

    @classmethod
    def from_sparse(cls, dim: int, basis_names: Sequence[str],
                    bracket_entries=(), cobracket_entries=()):
        """Build from nonzero constants given for i < j only."""
        b = _zero_cube(dim)
        d = _zero_cube(dim)
        for i, j, k, val in bracket_entries:
            v = Fraction(val)
            b[i][j][k] += v
            b[j][i][k] -= v
        for k, i, j, val in cobracket_entries:
            v = Fraction(val)
            d[k][i][j] += v
            d[k][j][i] -= v
        return cls(dim, basis_names, b, d)

    def bracket_nonzero(self):
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k in range(self.dim):
                    if self.bracket[i][j][k]:
                        yield i, j, k, self.bracket[i][j][k]

    def cobracket_nonzero(self):
        for k in range(self.dim):
            for i in range(self.dim):
                for j in range(i + 1, self.dim):
                    if self.cobracket[k][i][j]:
                        yield k, i, j, self.cobracket[k][i][j]

    def to_jsonable(self) -> dict:
        return {
            "dim": self.dim,
            "basis": list(self.basis_names),
            "bracket": [[i, j, k, str(v)]
                        for i, j, k, v in self.bracket_nonzero()],
            "cobracket": [[k, i, j, str(v)]
                          for k, i, j, v in self.cobracket_nonzero()],
        }

    def __repr__(self):
        br = ", ".join(
            f"[{self.basis_names[i]},{self.basis_names[j]}]="
            + _comb_str(self.bracket[i][j], self.basis_names)
            for i, j, _, _ in _dedup_pairs(self.bracket_nonzero())) or "abelian"
        cb = ", ".join(
            f"delta({self.basis_names[k]})="
            + _wedge_str(self.cobracket[k], self.basis_names)
            for k in sorted({k for k, *_ in self.cobracket_nonzero()})) or "0"
        return f"LieBialgebra({br}; {cb})"


def _dedup_pairs(entries):
    seen = set()
    for i, j, k, v in entries:
        if (i, j) not in seen:
            seen.add((i, j))
            yield i, j, k, v


def _comb_str(row, names):
    bits = []
    for k, v in enumerate(row):
        if v:
            bits.append(f"{'' if v == 1 else str(v) + '*'}{names[k]}")
    return " + ".join(bits) or "0"


def _wedge_str(mat, names):
    bits = []
    for i in range(len(mat)):
        for j in range(i + 1, len(mat)):
            v = mat[i][j]
            if v:
                bits.append(f"{'' if v == 1 else str(v) + '*'}"
                            f"{names[i]}^{names[j]}")
    return " + ".join(bits) or "0"


# -- extraction -------------------------------------------------------------------


def _relation_table(P: Presentation, at_h: int) -> list:
    """t[i][j][k]: coefficient of x_k in the h^at_h coefficient of
    [x_i, x_j], read off -r_ij for i < j.  Degree >= 2 parts are the
    mod-squares projection and are discarded; a constant part means the
    commutator ideal is broken and is an error."""
    t = _zero_cube(P.ngens)
    for (i, j), r in P.relations.items():
        for m, c in r.terms.items():
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
    """q[k][i][j]: coefficient of x_i (x) x_j in the h^at_h coefficient of
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
                q[k][m1.exponents.index(1)][m2.exponents.index(1)] += val
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
    therefore assembled with the two tables transposed against each
    other, on the basis dual to the generator images.
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
    """Swap the roles of the two tables:
    <[y_i, y_j], x_k> = cobracket[k][i][j] and
    <delta(y_k), x_i (x) x_j> = bracket[i][j][k]."""
    n = L.dim
    bracket = _zero_cube(n)
    cobracket = _zero_cube(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                bracket[i][j][k] = L.cobracket[k][i][j]
                cobracket[k][i][j] = L.bracket[i][j][k]
    names = [f"{b}*" for b in L.basis_names]
    return LieBialgebra(n, names, bracket, cobracket)


def validate_lie_bialgebra(L: LieBialgebra) -> HopfReport:
    """Jacobi, co-Jacobi and the 1-cocycle compatibility, exactly."""
    rep = HopfReport()
    n = L.dim
    nm = L.basis_names
    c, d = L.bracket, L.cobracket

    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                ok = True
                for r in range(n):
                    total = Fraction(0)
                    for m in range(n):
                        total += (c[i][j][m] * c[m][k][r]
                                  + c[j][k][m] * c[m][i][r]
                                  + c[k][i][m] * c[m][j][r])
                    if total:
                        ok = False
                rep.add("jacobi", f"({nm[i]},{nm[j]},{nm[k]})", ok)
    if n < 3:
        rep.add("jacobi", "dimension < 3", True)

    for k in range(n):
        t = _zero_cube(n)
        for p in range(n):
            for q in range(n):
                if not d[k][p][q]:
                    continue
                for r in range(n):
                    for s in range(n):
                        if d[p][r][s]:
                            t[r][s][q] += d[k][p][q] * d[p][r][s]
        ok = all(t[a][b][e] + t[b][e][a] + t[e][a][b] == 0
                 for a in range(n) for b in range(n) for e in range(n))
        rep.add("co-jacobi", nm[k], ok)

    for i in range(n):
        for j in range(i + 1, n):
            lhs = [[Fraction(0)] * n for _ in range(n)]
            for k in range(n):
                if c[i][j][k]:
                    for p in range(n):
                        for q in range(n):
                            lhs[p][q] += c[i][j][k] * d[k][p][q]
            rhs = [[Fraction(0)] * n for _ in range(n)]
            for p in range(n):
                for q in range(n):
                    if d[j][p][q]:
                        for r in range(n):
                            rhs[r][q] += c[i][p][r] * d[j][p][q]
                            rhs[p][r] += c[i][q][r] * d[j][p][q]
                    if d[i][p][q]:
                        for r in range(n):
                            rhs[r][q] -= c[j][p][r] * d[i][p][q]
                            rhs[p][r] -= c[j][q][r] * d[i][p][q]
            ok = lhs == rhs
            rep.add("cocycle", f"({nm[i]},{nm[j]})", ok)
    return rep


def lie_bialgebra_equal(L1: LieBialgebra, L2: LieBialgebra) -> bool:
    """Table equality in the canonical bases; basis names are not
    compared."""
    if L1.dim != L2.dim:
        raise DimensionMismatch(f"{L1.dim} != {L2.dim}")
    return L1.bracket == L2.bracket and L1.cobracket == L2.cobracket
