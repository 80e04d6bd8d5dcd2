"""The full verification battery behind `qdp selftest` and the acceptance
test suite.

Each criterion is a function of explicit inputs (the presentations,
bundles or pairing seeds it checks, the degree cap where it rescales, its
random source) and returns CheckRows that depend only on them.  CRITERIA
binds each criterion to the inputs a configuration selects; the criteria
run in CRITERIA order, so a configuration always emits the same bytes.

Heavy random batteries run at the reduced truncation they are specified
at (h-order 4); the filtration-kernel sweep runs at h-order 2, which is
exact for what it asserts (an h-valuation >= 1 claim only involves the
h^0 coefficient, and no division by h occurs anywhere in that pipeline).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .bundles import (BUILTIN_NAMES, _primitive_tensor, builtin,
                      bundle_selfcheck)
from .classical import (dual_lie_bialgebra, extract_lie_bialgebra,
                        extract_poisson_structure, lie_bialgebra_equal,
                        validate_lie_bialgebra)
from .drinfeld import (GaugeMap, PRIME_THEN_VEE, VEE_THEN_PRIME,
                       gauge_preservation_check, prime_membership,
                       prime_presentation, roundtrip_check, vee_presentation)
from .errors import InputError, NotAHopfMap
from .exprs import parse_element
from .freealg import TensorElement, add_into
from .hopf import (Presentation, _diff_note, big_delta_E, coproduct, delta_E,
                   delta_n, multiply, normal_form)
from .pairing import (PairingSeed, orthogonal_membership, pair,
                      pairing_axioms_check)
from .report import CheckRow, HopfReport, run_tasks
from .series import HSeries

DEFAULT_SEED = 20240


@dataclass
class RunConfig:
    h_order: int = 8
    degree_cap: int = 8
    seed: int = DEFAULT_SEED
    output_format: str = "text"


def random_elements(P: Presentation, rng: random.Random, count: int,
                    max_degree: int = 3, max_h: int = 2,
                    max_terms: int = 3) -> list[TensorElement]:
    """Deterministic pseudo-random elements for identity batteries."""
    monos = P.monomials_up_to(max_degree)
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            m = monos[rng.randrange(len(monos))]
            num = rng.choice([-3, -2, -1, 1, 2, 3])
            den = rng.randint(1, 3)
            c = HSeries.h_power(rng.randint(0, max_h), P.h_order,
                                Fraction(num, den))
            add_into(terms, (m,), c)
        e = TensorElement(P.name, 1, terms)
        out.append(e if not e.is_zero() else P.gen(0))
    return out


# -- criterion 1: membership battery ---------------------------------------------


def membership_battery(P: Presentation) -> list[CheckRow]:
    if P.h_order < 2:
        raise InputError(f"the membership battery reads delta_2(y), which "
                         f"needs an h-order of at least 2, not {P.h_order}")
    rep = HopfReport()
    h = HSeries.h_power(1, P.h_order)

    cert = prime_membership(P.gen("x").scaled(h), P)
    rep.add("membership", f"{P.name}: h*x", cert.is_member, cert.verdict)
    cert = prime_membership(P.gen("y").scaled(h), P)
    rep.add("membership", f"{P.name}: h*y", cert.is_member, cert.verdict)
    cert = prime_membership(P.gen("y"), P)
    rep.add("membership", f"{P.name}: y is not a member", not cert.is_member,
            f"witness n={cert.witness}")
    rep.add("membership", f"{P.name}: delta_2(y) has valuation exactly 1",
            cert.valuation_at(2) == 1, f"valuation {cert.valuation_at(2)}")
    rep.add("membership", f"{P.name}: n=2 is a recorded counterexample for y",
            2 in cert.failing_ns(), f"failing n: {cert.failing_ns()}")
    return rep.rows


# -- criterion 2: limit duality tables ----------------------------------------------


def limit_duality_rows(bundle, degree_cap: int):
    """The limit-duality rows of one bundle, with the Lie bialgebra L its
    presentation quantises and the Poisson structure LP of its rescaled
    image (degree cap `degree_cap`): (rows, L, LP)."""
    name = bundle.name
    rep = HopfReport()
    L = extract_lie_bialgebra(bundle.quea)
    Q = prime_presentation(bundle.quea, degree_cap)
    LP = extract_poisson_structure(Q)
    rep.add("limit-duality", f"{name}: poisson(prime) == dual(lie)",
            lie_bialgebra_equal(LP, dual_lie_bialgebra(L)))
    rep.add("limit-duality", f"{name}: poisson(prime) == expected dual",
            lie_bialgebra_equal(LP, bundle.expected_dual))
    R = vee_presentation(Q)
    rep.add("limit-duality", f"{name}: lie(vee(prime)) == lie",
            lie_bialgebra_equal(extract_lie_bialgebra(R), L))
    rep.add("limit-duality", f"{name}: extracted structures validate",
            validate_lie_bialgebra(L).passed
            and validate_lie_bialgebra(LP).passed)
    rep.add("limit-duality",
            f"{name}: dual(lie(vee(poisson-side))) == poisson extraction",
            lie_bialgebra_equal(dual_lie_bialgebra(extract_lie_bialgebra(R)),
                                LP))
    return rep.rows, L, LP


# -- criterion 3: round trips ----------------------------------------------------------


def roundtrips(presentations, degree_cap: int) -> list[CheckRow]:
    rep = HopfReport()
    for P in presentations:
        fwd = roundtrip_check(P, PRIME_THEN_VEE, degree_cap)
        rep.add("roundtrip", f"{P.name}: rescale up then down", fwd.passed,
                fwd.first_failure())
        Q = prime_presentation(P, degree_cap)
        back = roundtrip_check(Q, VEE_THEN_PRIME)
        rep.add("roundtrip", f"{P.name}: rescale down then up", back.passed,
                back.first_failure())
    return rep.rows


# -- criterion 4: deviation-of-product expansions ----------------------------------------


def _covering_pairs(phi: tuple[int, ...]):
    """All (lam, y) with lam | y = phi, as index subsets."""
    for mask in itertools.product((0, 1, 2), repeat=len(phi)):
        lam = tuple(p for p, m in zip(phi, mask) if m != 1)
        y = tuple(p for p, m in zip(phi, mask) if m != 0)
        yield lam, y


def _tensor_sum(parts, P: Presentation, rank: int) -> TensorElement:
    acc: dict = {}
    for sign, t in parts:
        for key, c in t.terms.items():
            add_into(acc, key, c if sign > 0 else -c)
    return TensorElement(P.name, rank, acc)


def _pair_batteries(presentations, rng: random.Random):
    """Fifty random pairs (a, b) on each presentation, drawn in order."""
    return [(P, list(zip(random_elements(P, rng, 50, max_terms=2),
                         random_elements(P, rng, 50, max_terms=2))))
            for P in presentations]


def _tally(bad: list, got, want, **instance) -> None:
    """Note a failing comparison: its instance and leading discrepancy."""
    note = _diff_note(got, want)
    if note:
        bad.append(", ".join(f"{k} = {v!r}" for k, v in instance.items())
                   + f": {note}")


def _failures(bad: list) -> str:
    return f"{len(bad)} failures" + (f"; first: {bad[0]}" if bad else "")


def product_expansion(batteries) -> list[CheckRow]:
    """For each (P, pairs) battery and n = 1, 2, 3, the rows checking
    delta_n(ab) = sum over lam | y = {1..n} of delta_lam(a) delta_y(b), and
    delta_n(ab - ba)."""
    rep = HopfReport()
    for (P, pairs), n in itertools.product(batteries, (1, 2, 3)):
        phi = tuple(range(1, n + 1))
        subsets = [s for k in range(n + 1)
                   for s in itertools.combinations(phi, k)]
        bad_prod, bad_comm = [], []
        for a, b in pairs:
            ab = multiply(a, b, P)
            ba = multiply(b, a, P)
            da = {s: delta_E(a, s, n, P) for s in subsets}
            db = {s: delta_E(b, s, n, P) for s in subsets}
            want_parts = []
            comm_parts = []
            for lam, y in _covering_pairs(phi):
                prod = multiply(da[lam], db[y], P)
                want_parts.append((1, prod))
                if set(lam) & set(y):
                    comm_parts.append((1, prod))
                    comm_parts.append((-1, multiply(db[y], da[lam], P)))
            _tally(bad_prod, delta_n(ab, n, P),
                   _tensor_sum(want_parts, P, n), a=a, b=b)
            _tally(bad_comm, delta_n(ab - ba, n, P),
                   _tensor_sum(comm_parts, P, n), a=a, b=b)
        rep.add("deviation-of-product",
                f"{P.name}: delta_{n}(a*b) expansion on {len(pairs)} pairs",
                not bad_prod, _failures(bad_prod))
        rep.add("deviation-of-commutator",
                f"{P.name}: delta_{n}(ab-ba) expansion on {len(pairs)} pairs",
                not bad_comm, _failures(bad_comm))
    return rep.rows


# -- criterion 5: inclusion-exclusion inversion -----------------------------------------


def inclusion_exclusion(presentations, rng: random.Random) -> list[CheckRow]:
    rep = HopfReport()
    for P in presentations:
        elems = random_elements(P, rng, 8)
        bad = []
        total = 0
        for a in elems:
            for n in (1, 2, 3):
                for k in range(n + 1):
                    for E in itertools.combinations(range(1, n + 1), k):
                        want = TensorElement.zero(P.name, n)
                        for t in range(len(E) + 1):
                            for psi in itertools.combinations(E, t):
                                want = want + delta_E(a, psi, n, P)
                        total += 1
                        _tally(bad, big_delta_E(a, E, n, P), want,
                               a=a, n=n, E=E)
        rep.add("inclusion-exclusion",
                f"{P.name}: Delta_E == sum of deviations over subsets "
                f"({total} instances)", not bad, _failures(bad))
    return rep.rows


# -- criterion 6: limit-structure valuations ----------------------------------------------


def limit_valuations(presentations, degree_cap: int) -> list[CheckRow]:
    rep = HopfReport()
    for P in presentations:
        Q = prime_presentation(P, degree_cap)
        ok = all(r.h_valuation() >= 1 for r in Q.relations.values())
        rep.add("limit-structure", f"{P.name}: rescaled-up algebra is "
                "commutative mod h", ok)
        R = vee_presentation(Q)
        for i, g in enumerate(R.generators):
            d = coproduct(R.gen(g), R)
            prim = _primitive_tensor(R.name, i, R.ngens, R.h_order)
            rep.add("limit-structure",
                    f"{P.name}: vee generator {g} primitive mod h",
                    (d - prim).h_valuation() >= 1)
            skew = d - d.swapped()
            rep.add("limit-structure",
                    f"{P.name}: vee coproduct of {g} cocommutative mod h",
                    skew.h_valuation() >= 1)
    return rep.rows


# -- criterion 7: filtration kernel ------------------------------------------------------


def filtration_kernel(presentations) -> list[CheckRow]:
    rep = HopfReport()
    for P in presentations:
        bad = []
        total = 0
        for m in P.monomials_up_to(4):
            lift = P.lift(m)
            for n in range(m.degree, 5):
                total += 1
                if delta_n(lift, n + 1, P).h_valuation() < 1:
                    bad.append((m.exponents, n))
        rep.add("filtration-kernel",
                f"{P.name}: delta_(n+1) of degree<=n monomials vanishes "
                f"mod h ({total} instances)", not bad, f"failures: {bad}")
    return rep.rows


# -- criterion 8: pairing duality ----------------------------------------------------------


def pairing_duality(seeds: list[PairingSeed]) -> list[CheckRow]:
    """The duality table <x^m, y^n/n!> for m, n <= min(5, D) on the first
    seed, whose first generators pair to 1 (y^n above the right side's
    degree cap D is 0), then the compatibility suite of every seed."""
    rep = HopfReport()
    seed = seeds[0]
    L, R = seed.left, seed.right
    top = min(5, R.degree_cap)
    memo: dict = {}
    bad = []
    for m in range(top + 1):
        xm = normal_form((0,) * m, L)
        for n in range(top + 1):
            yn = normal_form((0,) * n, R).scaled(
                Fraction(1, factorial(n)))
            got = pair(xm, yn, seed, memo)
            want = (HSeries.one(seed.order) if m == n
                    else HSeries.zero(seed.order))
            if got != want:
                bad.append((m, n))
    rep.add("pairing-duality",
            f"{L.name}: <x^m, y^n/n!> == delta_mn for m,n <= {top} "
            f"({(top + 1) ** 2} values)",
            not bad, f"failures: {bad}")
    for s in seeds:
        ax = pairing_axioms_check(s, 3)
        rep.add("pairing-axioms",
                f"{s.left.name}: compatibility suite to degree 3 "
                f"({len(ax.rows)} instances)", ax.passed, ax.first_failure())
    return rep.rows


# -- criterion 9: oracle agreement ------------------------------------------------------------


def _membership_battery_elements(P: Presentation,
                                 rng: random.Random
                                 ) -> list[tuple[str, TensorElement]]:
    named = [(label, parse_element(label, P)) for label in (
        "1", "x", "y", "h*x", "h*y", "x*y", "y*x", "x^2", "y^2", "h*x*h*y",
        "h*y*h*x", "h*(x+y)", "x+h*y", "h^2*y^2", "h^2*x*y", "h*x+h^2*y^2")]
    randoms = random_elements(P, rng, 16, max_degree=2, max_h=2,
                              max_terms=2)
    named.extend((f"random{i}", e) for i, e in enumerate(randoms))
    return named


def oracle_agreement(seed: PairingSeed,
                     rng: random.Random) -> list[CheckRow]:
    """The deviation route against the pairing route through the seed."""
    rep = HopfReport()
    P = seed.left
    battery = _membership_battery_elements(P, rng)
    certs = orthogonal_membership([a for _, a in battery], seed)
    for (label, a), c2 in zip(battery, certs):
        c1 = prime_membership(a, P)
        rep.add("oracle-agreement", f"{P.name}: {label}",
                c1.is_member == c2.is_member,
                f"deviation route {c1.verdict}, pairing route {c2.verdict}")
    rep.add("oracle-agreement", f"battery size >= 30 ({len(battery)})",
            len(battery) >= 30)
    return rep.rows


# -- criterion 10: gauge preservation -----------------------------------------------------------


def gauge_preservation(P: Presentation, B: Presentation) -> list[CheckRow]:
    """Gauges of abelian2 (P) that are Hopf maps; one of borel2 (B) is not."""
    rep = HopfReport()
    h = HSeries.h_power(1, P.h_order)
    phi = GaugeMap.make(P, {"x1": P.gen("x1") + P.gen("x2").scaled(h),
                            "x2": P.gen("x2")})
    try:
        inner = gauge_preservation_check(P, phi)
        rep.add("gauge", "abelian2: x1 -> x1 + h*x2 passes all stages "
                f"({len(inner.rows)} checks)", inner.passed,
                inner.first_failure())
    except NotAHopfMap as exc:
        rep.add("gauge", "abelian2: x1 -> x1 + h*x2", False, str(exc))

    ident = GaugeMap.identity(P)
    inner = gauge_preservation_check(P, ident)
    rep.add("gauge", "abelian2: identity gauge", inner.passed)

    bad = GaugeMap.make(B, {"x": B.gen("x") + B.gen("y").scaled(h),
                            "y": B.gen("y")})
    try:
        gauge_preservation_check(B, bad)
        rep.add("gauge", "borel2: x -> x + h*y is rejected", False,
                "check unexpectedly passed")
    except NotAHopfMap as exc:
        rep.add("gauge", "borel2: x -> x + h*y is rejected", True,
                f"rejected with {len(exc.report.failures())} "
                "failing morphism checks")
    return rep.rows


# -- bundle invariants (superset of the numbered criteria) ------------------------------------------


def bundle_invariants(bundles) -> list[CheckRow]:
    rep = HopfReport()
    for b in bundles:
        rep.extend(bundle_selfcheck(b, degree_bound=2))
    return rep.rows


# -- the binding: which inputs each criterion runs on ---------------------------------------------

BATTERY_ORDER = 4      # h-order for the seeded random identity batteries
KERNEL_ORDER = 2       # h-order for the filtration-kernel sweep

# Each random stream is consumed over BUILTIN_NAMES in order.
CRITERIA = [
    ("membership-battery", lambda cfg: membership_battery(
        builtin("borel2", cfg.h_order, cfg.degree_cap).quea)),
    ("limit-duality", lambda cfg: [
        row for name in ("abelian2", "borel2", "heisenberg3")
        for row in limit_duality_rows(
            builtin(name, cfg.h_order, cfg.degree_cap), cfg.degree_cap)[0]]),
    ("roundtrips", lambda cfg: roundtrips(
        [builtin(name, cfg.h_order, cfg.degree_cap).quea
         for name in BUILTIN_NAMES], cfg.degree_cap)),
    ("deviation-product-expansion", lambda cfg: product_expansion(
        _pair_batteries([builtin(name, BATTERY_ORDER, BATTERY_ORDER).quea
                         for name in BUILTIN_NAMES],
                        random.Random(cfg.seed)))),
    ("inclusion-exclusion", lambda cfg: inclusion_exclusion(
        [builtin(name, BATTERY_ORDER, BATTERY_ORDER).quea
         for name in BUILTIN_NAMES], random.Random(cfg.seed + 1))),
    ("limit-structure-valuations", lambda cfg: limit_valuations(
        [builtin(name, cfg.h_order, cfg.degree_cap).quea
         for name in BUILTIN_NAMES], cfg.degree_cap)),
    ("filtration-kernel", lambda cfg: filtration_kernel(
        [builtin(name, KERNEL_ORDER, cfg.degree_cap).quea
         for name in ("borel2", "heisenberg3")])),
    ("pairing-duality", lambda cfg: pairing_duality(
        [builtin(name, cfg.h_order, cfg.degree_cap).pairing_seed
         for name in ("abelian1", "borel2")])),
    ("oracle-agreement", lambda cfg: oracle_agreement(
        builtin("borel2", cfg.h_order, cfg.degree_cap).pairing_seed,
        random.Random(cfg.seed + 2))),
    ("gauge-preservation", lambda cfg: gauge_preservation(
        builtin("abelian2", cfg.h_order, cfg.degree_cap).quea,
        builtin("borel2", cfg.h_order, cfg.degree_cap).quea)),
    ("bundle-invariants", lambda cfg: bundle_invariants(
        [builtin(name, cfg.h_order, cfg.degree_cap)
         for name in BUILTIN_NAMES])),
]


def run_selftest(cfg: RunConfig) -> dict:
    """Run the whole battery; the payload is deterministic for a given
    configuration."""
    tasks = [(name, (lambda fn=fn: fn(cfg))) for name, fn in CRITERIA]
    rows = run_tasks(tasks)
    return {
        "tool": "qdp",
        "command": "selftest",
        "h_order": cfg.h_order,
        "degree_cap": cfg.degree_cap,
        "n_max": None,  # every certificate checks n up to the h-order
        "seed": cfg.seed,
        "checks": [r.to_jsonable() for r in rows],
        "passed": all(r.passed for r in rows),
    }
