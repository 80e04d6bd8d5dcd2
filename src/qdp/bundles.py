"""Built-in, hand-verified example bundles.

Each bundle packages an enveloping-type presentation, the Lie bialgebra
it quantises, the expected dual structure, and (when the presentation
admits one against its own rescaled image) a canonical pairing seed.

The examples were chosen so every expected outcome is checkable by hand:
  abelian(n)    trivial structure throughout;
  borel2        the two-dimensional nonabelian algebra [x,y] = y with the
                standard cobracket delta(y) = x^y, quantised with the
                grouplike-over-primitive coproduct Delta(y) = y(x)1 +
                exp(hx)(x)y; its Lie bialgebra equals its own dual in the
                canonical basis, which makes the duality tables doubly
                legible;
  heisenberg3   [x,y] = z with undeformed (primitive) coproducts: a
                noncommutative but cocommutative input whose rescaled
                image carries the bracket {X,Y} = Z in the limit, and
                whose dual is therefore genuinely different from itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .classical import LieBialgebra
from .drinfeld import prime_presentation
from .errors import UnknownExample
from .freealg import Monomial, TensorElement
from .hopf import POLY, Presentation
from .pairing import PairingSeed
from .series import HSeries

BUILTIN_NAMES = ("abelian1", "abelian2", "abelian3", "borel2", "heisenberg3")


@dataclass(frozen=True)
class ExampleBundle:
    name: str
    quea: Presentation
    lie: LieBialgebra
    expected_dual: LieBialgebra
    pairing_seed: PairingSeed | None
    notes: str


def _primitive_tensor(name: str, i: int, ngens: int, order: int) -> TensorElement:
    g = Monomial.generator(i, ngens)
    one = Monomial.identity(ngens)
    c = HSeries.one(order)
    return TensorElement(name, 2, {(g, one): c, (one, g): c})


def _minus_gen(name: str, i: int, ngens: int, order: int) -> TensorElement:
    return TensorElement(name, 1, {(Monomial.generator(i, ngens),):
                                   HSeries.const(-1, order)})


def _abelian(n: int, N: int) -> Presentation:
    name = f"abelian{n}"
    gens = ["x"] if n == 1 else [f"x{i+1}" for i in range(n)]
    cop = {g: _primitive_tensor(name, i, n, N) for i, g in enumerate(gens)}
    ant = {g: _minus_gen(name, i, n, N) for i, g in enumerate(gens)}
    eps = {g: HSeries.zero(N) for g in gens}
    return Presentation(name, POLY, gens, N, None, {}, cop, eps, ant)


def _borel2(N: int) -> Presentation:
    name = "borel2"
    gens = ["x", "y"]
    one = Monomial.identity(2)
    x = Monomial.generator(0, 2)
    y = Monomial.generator(1, 2)
    # y*x = x*y - y
    relations = {(0, 1): TensorElement(name, 1, {(y,): HSeries.const(-1, N)})}
    cop = {"x": _primitive_tensor(name, 0, 2, N)}
    dy = {(y, one): HSeries.one(N)}
    for k in range(N + 1):
        xk = Monomial((k, 0))
        dy[(xk, y)] = HSeries.h_power(k, N, Fraction(1, factorial(k)))
    cop["y"] = TensorElement(name, 2, dy)
    ant = {"x": _minus_gen(name, 0, 2, N)}
    sy = {}
    for k in range(N + 1):
        xky = Monomial((k, 1))
        sy[(xky,)] = HSeries.h_power(k, N, Fraction((-1) ** (k + 1),
                                                 factorial(k)))
    ant["y"] = TensorElement(name, 1, sy)
    eps = {g: HSeries.zero(N) for g in gens}
    return Presentation(name, POLY, gens, N, None, relations, cop, eps, ant)


def _heisenberg3(N: int) -> Presentation:
    name = "heisenberg3"
    gens = ["x", "y", "z"]
    z = Monomial.generator(2, 3)
    # y*x = x*y - z, z central
    relations = {(0, 1): TensorElement(name, 1, {(z,): HSeries.const(-1, N)})}
    cop = {g: _primitive_tensor(name, i, 3, N) for i, g in enumerate(gens)}
    ant = {g: _minus_gen(name, i, 3, N) for i, g in enumerate(gens)}
    eps = {g: HSeries.zero(N) for g in gens}
    return Presentation(name, POLY, gens, N, None, relations, cop, eps, ant)


def _canonical_seed(quea: Presentation, degree_cap: int) -> PairingSeed:
    """Diagonal seed against the rescaled image; the diagonal value 1 is
    the unique choice compatible with the pairing axioms and nondegenerate
    mod h."""
    right = prime_presentation(quea, degree_cap)
    values = {(i, i): HSeries.one(min(quea.h_order, right.h_order))
              for i in range(quea.ngens)}
    return PairingSeed(quea, right, values)


@lru_cache(maxsize=None)
def builtin(name: str, h_order: int = 8, degree_cap: int = 8) -> ExampleBundle:
    """Return a built-in bundle, constructed at the given truncation."""
    N, D = h_order, degree_cap
    if name in ("abelian1", "abelian2", "abelian3"):
        n = int(name[-1])
        quea = _abelian(n, N)
        zero = LieBialgebra(n, quea.generators)
        dual = LieBialgebra(n, [f"{g}*" for g in quea.generators])
        return ExampleBundle(
            name, quea, zero, dual, _canonical_seed(quea, D),
            notes=f"{n} commuting primitive generators; every table is "
                  "zero and the dual is again abelian.")
    if name == "borel2":
        quea = _borel2(N)
        lie = LieBialgebra.from_sparse(
            2, ["x", "y"],
            bracket_entries=[(0, 1, 1, 1)],        # [x,y] = y
            cobracket_entries=[(1, 0, 1, 1)])       # delta(y) = x^y
        dual = LieBialgebra.from_sparse(
            2, ["x*", "y*"],
            bracket_entries=[(0, 1, 1, 1)],
            cobracket_entries=[(1, 0, 1, 1)])
        return ExampleBundle(
            name, quea, lie, dual, _canonical_seed(quea, D),
            notes="[x,y] = y, delta(y) = x^y.  Coproduct compatibility "
                  "holds by the hand computation [Delta(x), Delta(y)] = "
                  "[x(x)1 + 1(x)x, y(x)1 + exp(hx)(x)y] = y(x)1 + "
                  "exp(hx)(x)y = Delta(y).  Self-dual in the canonical "
                  "basis.")
    if name == "heisenberg3":
        quea = _heisenberg3(N)
        lie = LieBialgebra.from_sparse(
            3, ["x", "y", "z"],
            bracket_entries=[(0, 1, 2, 1)])         # [x,y] = z
        dual = LieBialgebra.from_sparse(
            3, ["x*", "y*", "z*"],
            cobracket_entries=[(2, 0, 1, 1)])       # delta(z*) = x*^y*
        return ExampleBundle(
            name, quea, lie, dual, None,
            notes="[x,y] = z with z central and undeformed coproducts; "
                  "the rescaled image carries {X,Y} = Z in the limit.  "
                  "No canonical seed: the algebra is not self-dual, so "
                  "no diagonal pairing against its own rescaled image "
                  "can be perfect mod h.")
    raise UnknownExample(f"no built-in bundle named {name!r}; "
                         f"known: {', '.join(BUILTIN_NAMES)}")


def bundle_selfcheck(bundle: ExampleBundle, degree_bound: int = 2):
    """Cheap invariants every bundle must satisfy; returns a HopfReport."""
    from .classical import (dual_lie_bialgebra, extract_lie_bialgebra,
                            lie_bialgebra_equal, validate_lie_bialgebra)
    from .hopf import check_diamond, check_hopf_axioms
    from .report import HopfReport

    rep = HopfReport()
    ax = check_hopf_axioms(bundle.quea, degree_bound)
    rep.add("bundle-hopf-axioms", bundle.name, ax.passed,
            "" if ax.passed else str(ax.failures()[0]))
    dia = check_diamond(bundle.quea)
    rep.add("bundle-diamond", bundle.name, dia.passed)
    rep.add("bundle-lie-valid", bundle.name,
            validate_lie_bialgebra(bundle.lie).passed)
    rep.add("bundle-dual-valid", bundle.name,
            validate_lie_bialgebra(bundle.expected_dual).passed)
    rep.add("bundle-lie-matches-extraction", bundle.name,
            lie_bialgebra_equal(extract_lie_bialgebra(bundle.quea),
                                bundle.lie))
    rep.add("bundle-dual-matches-dualization", bundle.name,
            lie_bialgebra_equal(dual_lie_bialgebra(bundle.lie),
                                bundle.expected_dual))
    return rep
