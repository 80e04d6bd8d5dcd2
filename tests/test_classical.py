import random
from fractions import Fraction

import pytest

from qdp.bundles import builtin
from qdp.classical import (LieBialgebra, dual_lie_bialgebra,
                           extract_lie_bialgebra, extract_poisson_structure,
                           lie_bialgebra_equal, validate_lie_bialgebra)
from qdp.drinfeld import prime_presentation
from qdp.errors import DimensionMismatch, NotCommutativeModH, NotLieType
from qdp.freealg import Monomial, TensorElement
from qdp.hopf import POLY, SERIES, Presentation
from qdp.report import HopfReport
from qdp.series import HSeries

from support import from_monomial


@pytest.fixture(scope="module")
def borel2():
    return builtin("borel2", 8, 8).quea


def _primitive_pair(name, model, rel):
    """Two primitive generators a, b with b*a = a*b + rel, at h-order 4
    (degree cap 4 for a SERIES model)."""
    one = HSeries.one(4)
    cop, eps, ant = {}, {}, {}
    for i, g in enumerate(["a", "b"]):
        gm = Monomial.generator(i, 2)
        idm = Monomial.identity(2)
        cop[g] = TensorElement(name, 2, {(gm, idm): one, (idm, gm): one})
        eps[g] = HSeries.zero(4)
        ant[g] = from_monomial(name, gm, HSeries.const(-1, 4))
    return Presentation(name, model, ["a", "b"], 4, 4, {(0, 1): rel}, cop,
                        eps, ant)


class TestExtractLie:
    def test_abelian(self):
        P = builtin("abelian2", 8, 8).quea
        L = extract_lie_bialgebra(P)
        assert all(v == 0 for row in L.bracket for col in row for v in col)
        assert all(v == 0 for row in L.cobracket for col in row for v in col)

    def test_borel2(self, borel2):
        L = extract_lie_bialgebra(borel2)
        assert L.bracket[0][1][1] == 1      # [x, y] = y
        assert L.bracket[0][1][0] == 0
        assert L.cobracket[0][1][1] == 1    # delta(y) = x ^ y
        assert all(L.cobracket[i][j][0] == 0 for i in range(2)
                   for j in range(2))

    def test_heisenberg(self):
        P = builtin("heisenberg3", 8, 8).quea
        L = extract_lie_bialgebra(P)
        assert L.bracket[0][1][2] == 1      # [x, y] = z
        assert all(v == 0 for mat in L.cobracket for row in mat for v in row)

    def test_nonlinear_relation_rejected(self):
        name = "nonlie"
        # admissible shape needs valuation >= 1 on degree-2 terms
        rel = from_monomial(name, Monomial((2, 0)),
                            HSeries.h_power(0, 4))  # b*a = a*b + a^2
        with pytest.raises(Exception):
            _primitive_pair(name, POLY, rel)

    @pytest.mark.parametrize("model, k, extract", [
        (POLY, 0, extract_lie_bialgebra),
        (SERIES, 1, extract_poisson_structure)])
    def test_constant_commutator_part_rejected(self, model, k, extract):
        # [a, b] = -r has a constant part at the h-order the structure is
        # read at: h^0 for the bracket of U_h, h^1 for commutators over h
        rel = TensorElement.unit("nonlie", 1, 2, 4).scaled(
            HSeries.h_power(k, 4))
        with pytest.raises(NotLieType,
                           match=rf"\[a,b\] has a constant h\^{k} part -1"):
            extract(_primitive_pair("nonlie", model, rel))


class TestExtractPoisson:
    def test_abelian_series(self):
        Q = prime_presentation(builtin("abelian1", 8, 8).quea, 8)
        L = extract_poisson_structure(Q)
        assert all(v == 0 for mat in L.bracket for row in mat for v in row)
        assert all(v == 0 for mat in L.cobracket for row in mat for v in row)

    def test_prime_borel2_tables(self, borel2):
        Q = prime_presentation(borel2, 8)
        L = extract_poisson_structure(Q)
        assert L.bracket[0][1][1] == 1
        assert L.cobracket[0][1][1] == 1
        assert L.basis_names == ["x*", "y*"]

    def test_prime_heisenberg_is_dual(self):
        P = builtin("heisenberg3", 8, 8).quea
        Q = prime_presentation(P, 8)
        L = extract_poisson_structure(Q)
        # dual of [x,y] = z: abelian bracket, cobracket z* -> x* ^ y*
        assert all(v == 0 for mat in L.bracket for row in mat for v in row)
        assert L.cobracket[0][1][2] == 1

    def test_noncommutative_mod_h_rejected(self):
        name = "notqfsha"
        rel = from_monomial(name, Monomial((0, 1)),
                            HSeries.const(-1, 4))  # b*a = a*b - b
        with pytest.raises(NotCommutativeModH):
            extract_poisson_structure(_primitive_pair(name, SERIES, rel))

    def test_poly_input_rejected(self, borel2):
        with pytest.raises(NotCommutativeModH):
            extract_poisson_structure(borel2)


class TestDual:
    def test_abelian_self_dual(self):
        L = LieBialgebra(2, ["a", "b"])
        D = dual_lie_bialgebra(L)
        assert lie_bialgebra_equal(L, D)

    def test_borel2_dual_tables(self, borel2):
        L = extract_lie_bialgebra(borel2)
        D = dual_lie_bialgebra(L)
        assert D.bracket[0][1][1] == 1
        assert D.cobracket[0][1][1] == 1

    def test_involution(self):
        for name in ("abelian2", "borel2", "heisenberg3"):
            L = builtin(name, 8, 8).lie
            assert lie_bialgebra_equal(dual_lie_bialgebra(
                dual_lie_bialgebra(L)), L)


class TestValidate:
    def test_borel2_valid(self, borel2):
        assert validate_lie_bialgebra(extract_lie_bialgebra(borel2)).passed

    def test_heisenberg_valid(self):
        L = builtin("heisenberg3", 8, 8).lie
        assert validate_lie_bialgebra(L).passed

    def test_jacobi_violation_detected(self):
        # [a,b] = c, [a,c] = b, [b,c] = b breaks Jacobi
        L = LieBialgebra.from_sparse(
            3, ["a", "b", "c"],
            bracket_entries=[(0, 1, 2, 1), (0, 2, 1, 1), (1, 2, 1, 1)])
        rep = validate_lie_bialgebra(L)
        assert not rep.passed
        assert any(r.check == "jacobi" for r in rep.failures())

    def test_cocycle_violation_detected(self):
        # [x,y] = z together with delta(z) = x^y: delta([x,y]) is nonzero
        # but the adjoint actions kill every cobracket value
        L = LieBialgebra.from_sparse(
            3, ["x", "y", "z"],
            bracket_entries=[(0, 1, 2, 1)],
            cobracket_entries=[(2, 0, 1, 1)])
        rep = validate_lie_bialgebra(L)
        assert not rep.passed
        assert any(r.check == "cocycle" for r in rep.failures())


class TestEquality:
    def test_reflexive(self):
        L = builtin("borel2", 8, 8).lie
        assert lie_bialgebra_equal(L, L)

    def test_distinguishes(self):
        L = builtin("borel2", 8, 8).lie
        Z = LieBialgebra(2, ["a", "b"])
        assert not lie_bialgebra_equal(L, Z)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lie_bialgebra_equal(LieBialgebra(2, ["a", "b"]),
                                LieBialgebra(3, ["a", "b", "c"]))


# -- reference model ----------------------------------------------------------
# Explicit loops over a cobracket stored as d[k][i][j], the coefficient of
# x_i ^ x_j in delta(x_k), with co-Jacobi written out as a cyclic sum of
# (delta (x) 1) delta: an independent computation for the common-layout
# tables, which store that coefficient as cobracket[i][j][k].


def _zero(n):
    return [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]


def _k_major(t):
    n = len(t)
    return [[[t[i][j][k] for j in range(n)] for i in range(n)]
            for k in range(n)]


def ref_dual(names, c, d):
    n = len(names)
    bracket, cobracket = _zero(n), _zero(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                bracket[i][j][k] = d[k][i][j]
                cobracket[k][i][j] = c[i][j][k]
    return [f"{b}*" for b in names], bracket, cobracket


def ref_validate(nm, c, d):
    rep = HopfReport()
    n = len(nm)
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
        t = _zero(n)
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
            rep.add("cocycle", f"({nm[i]},{nm[j]})", lhs == rhs)
    return rep


def _ref_term(v, label):
    return f"{'' if v == 1 else str(v) + '*'}{label}"


def ref_jsonable(names, c, d):
    n = len(names)
    return {
        "dim": n,
        "basis": list(names),
        "bracket": [[i, j, k, str(c[i][j][k])] for i in range(n)
                    for j in range(i + 1, n) for k in range(n)
                    if c[i][j][k]],
        "cobracket": [[k, i, j, str(d[k][i][j])] for k in range(n)
                      for i in range(n) for j in range(i + 1, n)
                      if d[k][i][j]],
    }


def ref_repr(names, c, d):
    n = len(names)
    br = ", ".join(
        f"[{names[i]},{names[j]}]=" + " + ".join(
            _ref_term(c[i][j][k], names[k]) for k in range(n) if c[i][j][k])
        for i in range(n) for j in range(i + 1, n) if any(c[i][j])
    ) or "abelian"
    cb = ", ".join(
        f"delta({names[k]})=" + " + ".join(
            _ref_term(d[k][i][j], f"{names[i]}^{names[j]}")
            for i in range(n) for j in range(i + 1, n) if d[k][i][j])
        for k in range(n) if any(any(row) for row in d[k])) or "0"
    return f"LieBialgebra({br}; {cb})"


def _random_lie(rng, n):
    """Antisymmetric tables of dimension n with sparse entries in -1..2,
    so that some satisfy every axiom and others fail some."""
    tables = _zero(n), _zero(n)
    for t in tables:
        density = rng.choice((0.0, 0.15, 0.35))
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    if rng.random() < density:
                        v = Fraction(rng.choice((-1, 1, 1, 2)))
                        t[i][j][k], t[j][i][k] = v, -v
    return LieBialgebra(n, "abcd"[:n], *tables)


def _assert_matches_reference(L):
    d = _k_major(L.cobracket)
    assert validate_lie_bialgebra(L).rows == \
        ref_validate(L.basis_names, L.bracket, d).rows
    assert L.to_jsonable() == ref_jsonable(L.basis_names, L.bracket, d)
    assert repr(L) == ref_repr(L.basis_names, L.bracket, d)
    names, c, d_dual = ref_dual(L.basis_names, L.bracket, d)
    D = dual_lie_bialgebra(L)
    assert (D.basis_names, D.bracket, _k_major(D.cobracket)) == \
        (names, c, d_dual)


class TestReferenceModel:
    def test_random_tables_and_their_duals(self):
        rng = random.Random(18)
        failing = set()
        for _ in range(300):
            L = _random_lie(rng, rng.randint(1, 4))
            for M in (L, dual_lie_bialgebra(L)):
                _assert_matches_reference(M)
                failing.update(r.check
                               for r in validate_lie_bialgebra(M).failures())
        # the draw reaches every kind of failing row
        assert failing == {"jacobi", "co-jacobi", "cocycle"}

    @pytest.mark.parametrize("name", ["abelian2", "abelian3", "borel2",
                                      "heisenberg3"])
    def test_builtins(self, name):
        b = builtin(name, 8, 8)
        for L in (b.lie, b.expected_dual):
            _assert_matches_reference(L)

    def test_co_jacobi_mutant(self):
        # delta(c) = a^b and delta(b) = a^c + b^c: read as a bracket, the
        # cobracket table is the Jacobi mutant above, whose Jacobiator
        # [[a,b],c] + [[b,c],a] + [[c,a],b] = -c has only a c component
        L = LieBialgebra.from_sparse(
            3, ["a", "b", "c"],
            cobracket_entries=[(2, 0, 1, 1), (1, 0, 2, 1), (1, 1, 2, 1)])
        rep = validate_lie_bialgebra(L)
        assert [(r.check, r.subject) for r in rep.failures()] == \
            [("co-jacobi", "c")]
        rep = validate_lie_bialgebra(dual_lie_bialgebra(L))
        assert [(r.check, r.subject) for r in rep.failures()] == \
            [("jacobi", "(a*,b*,c*)")]
